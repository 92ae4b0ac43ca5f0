"""Batched numpy kernels over CSR adjacencies.

Each kernel answers, for a whole array of query vertices at once, a question
the coloring layer used to ask one vertex at a time: which colors do my
neighbors hold, does my proposal conflict.  The shared workhorse is
:func:`gather_neighborhoods`, which flattens the CSR neighbor segments of
the query vertices into one pair of aligned arrays (segment id, neighbor id)
so every downstream question becomes a masked ``bincount``.

Kernels are deterministic and side-effect free: no ledger charges, no
mutation of ``colors``, and no RNG -- except :func:`draw_free_colors`,
which advances the generator it is handed exactly as the per-vertex loop
it replaces did.  They therefore change *nothing* about what the
simulated algorithms compute -- only how fast the simulation computes it.

Memory: a whole-graph query would flatten every CSR row it touches into
several ``2m``-long int64 arrays at once.  The kernels that answer per
query vertex (conflicts, used colors, label mismatches, counts
within a set) and :func:`bfs_depth`'s frontier expansion instead gather
the blocks :func:`row_blocks` yields, each holding at most
``_GATHER_CHUNK`` neighbor entries, and :func:`is_proper_edges` reads its
edge list in blocks of as many edges, so their working set is
``O(_GATHER_CHUNK)`` words plus the per-query output.  A block draws
nothing and charges nothing, and every answer depends on its own row
only, so the results are the single-gather results bit for bit.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graphcore.csr import CSRAdjacency

#: Largest number of CSR neighbor entries one blocked gather holds: the
#: one memory budget of the whole-graph kernels, the buddy predicate's
#: probes and its plane packing.
_GATHER_CHUNK = 1 << 16

# Kept in sync with repro.coloring.types.UNCOLORED (a one-line protocol
# constant, duplicated to keep this layer free of import cycles).
UNCOLORED = -1


def _as_vertex_array(vertices) -> np.ndarray:
    arr = np.asarray(vertices, dtype=np.int64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def gather_neighborhoods(
    csr: CSRAdjacency, vertices
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the neighbor segments of ``vertices``.

    Returns ``(seg_ids, flat_neighbors)``: aligned int64 arrays where
    ``flat_neighbors[k]`` is a neighbor of ``vertices[seg_ids[k]]``.
    Segments appear in query order; within a segment, neighbors keep their
    CSR (sorted) order.
    """
    verts = _as_vertex_array(vertices)
    starts = csr.indptr[verts]
    counts = csr.indptr[verts + 1] - starts
    total = int(counts.sum())
    seg_ids = np.repeat(np.arange(verts.size, dtype=np.int64), counts)
    if total == 0:
        return seg_ids, np.empty(0, dtype=np.int64)
    seg_starts = np.cumsum(counts) - counts  # segment offsets in the flat view
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - seg_starts, counts
    )
    return seg_ids, csr.indices[positions]


def row_blocks(csr: CSRAdjacency, vertices) -> Iterator[tuple[int, int]]:
    """Split a query into consecutive ranges ``(start, stop)`` of positions
    in ``vertices`` whose CSR rows hold at most ``_GATHER_CHUNK`` entries
    together; a row longer than that gets a range of its own.  An empty
    query yields nothing."""
    verts = _as_vertex_array(vertices)
    ends = np.cumsum(csr.indptr[verts + 1] - csr.indptr[verts])
    start = 0
    while start < verts.size:
        done = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, done + _GATHER_CHUNK, "right"))
        stop = max(start + 1, stop)
        yield start, stop
        start = stop


def in_sorted(pool: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of each of ``values`` in the sorted array ``pool``, as a
    boolean array shaped like ``values`` (one binary search each)."""
    if pool.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(pool, values)
    np.minimum(pos, pool.size - 1, out=pos)
    return pool[pos] == values


def adjacency_mask(csr: CSRAdjacency, v: int, candidates) -> np.ndarray:
    """Whether each of ``candidates`` is a neighbor of ``v``: a boolean
    array aligned with ``candidates``, by binary search on ``v``'s sorted
    CSR row (``v`` itself is never its own neighbor)."""
    return in_sorted(csr.neighbors(v), _as_vertex_array(candidates))


def neighbor_counts_within(csr: CSRAdjacency, vertices, members) -> np.ndarray:
    """``|N(v) ∩ members|`` for every query vertex ``v``: one gather of the
    query rows, a binary search of each neighbor in the sorted members,
    and a ``bincount``.  Returns an int64 array aligned with ``vertices``."""
    verts = _as_vertex_array(vertices)
    pool = np.sort(_as_vertex_array(members))
    counts = np.zeros(verts.size, dtype=np.int64)
    for start, stop in row_blocks(csr, verts):
        seg_ids, flat = gather_neighborhoods(csr, verts[start:stop])
        inside = in_sorted(pool, flat)
        counts[start:stop] = np.bincount(seg_ids[inside], minlength=stop - start)
    return counts


def batch_neighbor_colors(
    csr: CSRAdjacency, colors: np.ndarray, vertices
) -> tuple[np.ndarray, np.ndarray]:
    """Colors held by the neighbors of each query vertex.

    Returns ``(seg_ids, flat_colors)`` aligned as in
    :func:`gather_neighborhoods`; ``flat_colors`` may contain ``UNCOLORED``.
    """
    seg_ids, flat = gather_neighborhoods(csr, vertices)
    return seg_ids, colors[flat]


def batch_conflict_mask(
    csr: CSRAdjacency,
    colors: np.ndarray,
    vertices,
    candidates,
    *,
    proposal_map: np.ndarray | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """Whether each vertex's candidate color is blocked (Algorithm 17 step 4).

    ``vertices[i]`` proposes ``candidates[i]``.  A proposal is blocked when a
    neighbor already *holds* the color, or -- if ``proposal_map`` is given
    (an n-sized array mapping vertex -> proposed color, with a non-color
    sentinel elsewhere) -- when a neighbor *proposes* the same color: any
    such neighbor under the symmetric rule, only smaller-ID neighbors under
    the default smaller-ID-wins rule.

    Returns a boolean array over the query vertices.
    """
    verts = _as_vertex_array(vertices)
    cands = _as_vertex_array(candidates)
    blocked = np.zeros(verts.size, dtype=bool)
    for start, stop in row_blocks(csr, verts):
        seg_ids, flat = gather_neighborhoods(csr, verts[start:stop])
        blocked[start:stop] = conflict_mask_from_flat(
            seg_ids,
            flat,
            colors,
            verts[start:stop],
            cands[start:stop],
            proposal_map=proposal_map,
            symmetric=symmetric,
        )
    return blocked


def conflict_mask_from_flat(
    seg_ids: np.ndarray,
    flat_neighbors: np.ndarray,
    colors: np.ndarray,
    vertices: np.ndarray,
    candidates: np.ndarray,
    *,
    proposal_map: np.ndarray | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """:func:`batch_conflict_mask` over a pre-gathered neighborhood view.

    Callers that maintain adjacency outside a single CSR (the dynamic
    subsystem's delta-buffered graphs) produce ``(seg_ids, flat_neighbors)``
    themselves and share this resolution step with the static path.
    """
    verts = _as_vertex_array(vertices)
    cands = _as_vertex_array(candidates)
    flat_cand = cands[seg_ids]
    conflict = colors[flat_neighbors] == flat_cand
    if proposal_map is not None:
        same_proposal = proposal_map[flat_neighbors] == flat_cand
        if not symmetric:
            same_proposal &= flat_neighbors < verts[seg_ids]
        conflict |= same_proposal
    return np.bincount(seg_ids[conflict], minlength=verts.size) > 0


def used_color_masks_from_flat(
    seg_ids: np.ndarray, flat_colors: np.ndarray, n_rows: int, num_colors: int
) -> np.ndarray:
    """Shared mask builder: row ``i`` marks the colors appearing among the
    gathered neighbor colors of query vertex ``i`` (``UNCOLORED`` and
    out-of-palette values ignored).  Public so delta-buffered adjacencies
    (the dynamic subsystem) can feed their own gathers through it."""
    mask = np.zeros((n_rows, num_colors), dtype=bool)
    _mark_used(mask, seg_ids, flat_colors)
    return mask


def _mark_used(mask: np.ndarray, seg_ids: np.ndarray, flat_colors: np.ndarray) -> None:
    """Set ``mask[i, c]`` for every gathered color ``c`` of row ``i`` that
    lies in the palette ``[0, mask.shape[1])``."""
    valid = (flat_colors >= 0) & (flat_colors < mask.shape[1])
    mask[seg_ids[valid], flat_colors[valid]] = True


def batch_used_color_masks(
    csr: CSRAdjacency, colors: np.ndarray, vertices, num_colors: int
) -> np.ndarray:
    """Boolean matrix ``(len(vertices), num_colors)``: entry ``[i, c]`` is
    True iff some neighbor of ``vertices[i]`` holds color ``c``.

    One gather replaces per-vertex ``set(neighbor colors)`` construction;
    rows double as palette complements (``~row`` = free colors).
    """
    verts = _as_vertex_array(vertices)
    mask = np.zeros((verts.size, num_colors), dtype=bool)
    for start, stop in row_blocks(csr, verts):
        seg_ids, flat_colors = batch_neighbor_colors(csr, colors, verts[start:stop])
        _mark_used(mask[start:stop], seg_ids, flat_colors)
    return mask


def draw_free_colors(
    used: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one uniform free color per row of a used-color mask.

    ``used`` is a ``(k, q)`` boolean matrix as
    :func:`batch_used_color_masks` builds it.  Returns ``(can, colors)``:
    ``can`` (length ``k``) marks the rows with at least one free color, and
    ``colors`` (length ``can.sum()``, int64) holds the color drawn for each
    such row, in row order.  Rows without a free color draw nothing.

    One ``rng.integers(0, free_counts[can])`` call draws every rank.  numpy
    draws an array of upper bounds element by element with the scalar
    bounded-integer algorithm, so the ranks and the generator's end state
    equal a loop of scalar ``rng.integers(0, free_count)`` calls over the
    rows that have a free color (pinned in ``tests/test_graphcore.py``).
    The rank-th free color is the first column at which the running count
    of free colors exceeds the rank.
    """
    free_counts = used.shape[1] - used.sum(axis=1)
    can = free_counts > 0
    ranks = rng.integers(0, free_counts[can])
    colors = (np.cumsum(~used[can], axis=1) > ranks[:, None]).argmax(axis=1)
    return can, colors.astype(np.int64, copy=False)


def batch_label_mismatch_counts(
    csr: CSRAdjacency,
    labels: np.ndarray,
    vertices,
    *,
    ignore_label: int | None = None,
    own_labels: np.ndarray | int | None = None,
) -> np.ndarray:
    """For each query vertex, how many neighbors carry a *different* label.

    ``labels`` is an n-sized int array (cluster ids, cabal ownership marks,
    ...).  A neighbor ``u`` of query vertex ``v`` counts iff
    ``labels[u] != own`` and (when ``ignore_label`` is given)
    ``labels[u] != ignore_label``, where ``own`` defaults to ``labels[v]``
    and can be overridden per query (or as one shared scalar) via
    ``own_labels`` -- the cabal filters compare neighbors against the
    *cabal index* of the query, which is not stored in ``labels``.

    This is the shared gather behind the decomposition's external-degree
    pass (label = clique id, count neighbors outside the clique) and the
    cabal machinery's cross-cabal independence filters (label = owning
    cabal with ``ignore_label`` marking unowned vertices) -- one CSR gather
    plus a ``bincount`` instead of a per-vertex Python scan.

    Returns an int64 count array aligned with ``vertices``; ``counts > 0``
    is the "has a foreign neighbor" predicate.
    """
    verts = _as_vertex_array(vertices)
    if own_labels is None:
        own_of = labels[verts]
    elif not np.isscalar(own_labels):
        own_of = np.asarray(own_labels, dtype=np.int64)
    counts = np.zeros(verts.size, dtype=np.int64)
    for start, stop in row_blocks(csr, verts):
        seg_ids, flat = gather_neighborhoods(csr, verts[start:stop])
        nbr_labels = labels[flat]
        if np.isscalar(own_labels):
            own = own_labels
        else:
            own = own_of[start:stop][seg_ids]
        mismatch = nbr_labels != own
        if ignore_label is not None:
            mismatch &= nbr_labels != ignore_label
        counts[start:stop] = np.bincount(seg_ids[mismatch], minlength=stop - start)
    return counts


def label_components(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    n_vertices: int,
    active_mask: np.ndarray,
) -> np.ndarray:
    """Connected components of the subgraph induced by ``active_mask`` over
    an explicit undirected edge list, as min-vertex-id labels.

    Iterated min-label propagation: each pass scatters the coordinate-wise
    minimum across surviving edges (both directions) until a fixpoint.  The
    pass count is bounded by the component diameter -- the ACD's dense
    components have diameter 2 ([ACK19, Lemma 4.8]), so this replaces the
    per-vertex BFS of ComputeACD step 3 with ``O(1)`` numpy sweeps.

    Returns an int64 array with ``labels[v] = min vertex id of v's
    component`` for active vertices and ``-1`` elsewhere.
    """
    labels = np.full(n_vertices, -1, dtype=np.int64)
    active = np.flatnonzero(active_mask)
    labels[active] = active
    eu = np.asarray(edge_u, dtype=np.int64).reshape(-1)
    ev = np.asarray(edge_v, dtype=np.int64).reshape(-1)
    if eu.size:
        keep = active_mask[eu] & active_mask[ev]
        eu, ev = eu[keep], ev[keep]
        for _ in range(max(1, n_vertices)):
            prev = labels.copy()
            np.minimum.at(labels, eu, labels[ev])
            np.minimum.at(labels, ev, labels[eu])
            if np.array_equal(prev, labels):
                break
    return labels


def bfs_depth(csr: CSRAdjacency, labels: np.ndarray, sources) -> int:
    """Depth of a level-synchronous BFS from every ``sources[i]`` at once,
    each confined to the vertices that share its label.

    ``labels`` is an n-sized int array whose equal values mark
    vertex-disjoint parts (``-1`` outside all of them); ``sources`` holds
    one vertex per part.  A frontier vertex's neighbor joins the next
    frontier iff it is unvisited and carries the same label.  The result is
    the number of non-empty expansions: the largest BFS-tree height over
    the parts, the quantity Lemma 3.2's parallel BFS is charged for
    (``repro.aggregation.bfs.bfs_forest`` builds the trees themselves).
    Members a part's BFS cannot reach are never visited.
    """
    frontier = _as_vertex_array(sources)
    visited = np.zeros(csr.n_vertices, dtype=bool)
    visited[frontier] = True
    depth = 0
    while True:
        reached = [np.empty(0, dtype=np.int64)]
        for start, stop in row_blocks(csr, frontier):
            part = frontier[start:stop]
            seg_ids, flat = gather_neighborhoods(csr, part)
            keep = ~visited[flat] & (labels[flat] == labels[part][seg_ids])
            reached.append(np.unique(flat[keep]))
        frontier = np.unique(np.concatenate(reached))
        if frontier.size == 0:
            return depth
        visited[frontier] = True
        depth += 1


def is_proper_edges(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    colors: np.ndarray,
    *,
    allow_partial: bool = False,
) -> bool:
    """Vectorized properness check over an explicit edge list, read in
    blocks of ``_GATHER_CHUNK`` edges."""
    for start in range(0, len(edge_u), _GATHER_CHUNK):
        cu = colors[edge_u[start : start + _GATHER_CHUNK]]
        cv = colors[edge_v[start : start + _GATHER_CHUNK]]
        has_uncolored = (cu == UNCOLORED) | (cv == UNCOLORED)
        if not allow_partial and bool(has_uncolored.any()):
            return False
        if bool(((cu == cv) & ~has_uncolored).any()):
            return False
    return True


def violations_edges(
    edge_u: np.ndarray, edge_v: np.ndarray, colors: np.ndarray
) -> list[tuple[int, int]]:
    """All monochromatic edges of an explicit edge list, as int pairs."""
    cu = colors[edge_u]
    bad = (cu != UNCOLORED) & (cu == colors[edge_v])
    return [
        (int(u), int(v)) for u, v in zip(edge_u[bad], edge_v[bad])
    ]
