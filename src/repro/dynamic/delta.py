"""Delta-buffered CSR adjacency: the storage layer of the streaming engine.

A :class:`DeltaCSR` holds an immutable :class:`~repro.graphcore.csr.CSRAdjacency`
*base* plus an overlay of edits.  Queries merge base and overlay on the fly;
when the overlay grows past :data:`_REBUILD_FRACTION` of the base,
:meth:`compact` folds everything into a fresh base via
:meth:`CSRAdjacency.from_edge_arrays` -- the classic periodic-rebuild
scheme, so a long stream of small batches never degrades query cost.

The overlay is arrays, not per-vertex sets.  An undirected edge ``{u, v}``
with ``u < v`` is packed into the int64 code ``(u << 32) | v``:

* **deleted base edges** are a bool *dead* mask over the base's undirected
  edge list (the cached ``base.edge_arrays()``).  That list is row-major
  with sorted rows, so its codes are sorted and one ``searchsorted`` finds
  an edge's index;
* **inserted non-base edges** are one sorted, unique int64 array that
  holds each edge's code in both orientations, ``(u << 32) | v`` and
  ``(v << 32) | u``.  Membership is one binary search, and a vertex's
  inserted neighbors are one contiguous run of codes.

A base edge that is deleted and re-inserted is *resurrected* (its dead bit
cleared), never duplicated into the inserted codes, so the two halves stay
disjoint.  Queries mask a base row by looking its slots' codes up in the
same sorted list.  The base codes and the dead mask are built lazily, at
most once per compaction, so constructing a :class:`DeltaCSR` costs no
O(m) work.

:meth:`DeltaCSR.insert_edge` and :meth:`DeltaCSR.delete_edge` take one pair
or whole arrays of pairs.  A call is checked in full before it writes
anything: with array operations when it is long, pair by pair when it is
short (below the fixed cost of the array check).  An invalid call raises
the error that applying its pairs one at a time would raise first, and
leaves the structure untouched; a valid one writes, with array operations,
the state that loop would.

Every pair an :meth:`DeltaCSR.insert_edge` call accepts, resurrections
included, is also appended to an *insert record*: its endpoint arrays, in
call order.  :meth:`DeltaCSR.drain_inserts` hands the record over and
clears it.  The stream engine drains it once per batch, so its per-batch
properness check can look at the edges that are new since the last check
instead of every edge (compaction leaves the record alone).

Vertex ids are stable across the lifetime of the structure: removing a vertex
leaves a dead (edge-free) id behind rather than renumbering, so stream events
can keep referring to the ids they were generated against.  Ids must fit in
32 bits (:data:`MAX_VERTICES`); the constructor and :meth:`DeltaCSR.add_vertex`
raise before an id would break the packing.
"""

from __future__ import annotations

import numpy as np

from repro.graphcore.csr import CSRAdjacency

#: Bits of the low half of an edge code; ids must stay below ``1 << _SHIFT``.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1

#: Exclusive bound on vertex ids (and so on the vertex count).
MAX_VERTICES = 1 << _SHIFT

#: Edit calls of at most this many pairs are checked pair by pair: below
#: it, the array check's fixed cost in numpy calls exceeds the loop's.
_PAIRWISE_MAX = 16

#: Compact when overlay edits exceed this fraction of the base's
#: directed-edge count (plus a small absolute floor, so tiny graphs do not
#: rebuild on every edit).
_REBUILD_FRACTION = 0.25


def _endpoints(u, v) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``v`` as flat int64 arrays of equal length (a scalar
    broadcasts against an array; other lengths that differ raise)."""
    us = np.asarray(u, dtype=np.int64).reshape(-1)
    vs = np.asarray(v, dtype=np.int64).reshape(-1)
    if us.size == 1 and vs.size != 1:
        us = us.repeat(vs.size)  # far cheaper than np.broadcast_arrays
    elif vs.size == 1 and us.size != 1:
        vs = vs.repeat(us.size)
    elif us.size != vs.size:
        raise ValueError(f"{us.size} endpoints cannot pair with {vs.size}")
    return us, vs


def _search(
    sorted_codes: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, hit)``: where each of ``codes`` sorts into ``sorted_codes``,
    and whether it is there."""
    pos = sorted_codes.searchsorted(codes)
    if not sorted_codes.size:
        return pos, np.zeros(codes.size, dtype=bool)
    return pos, sorted_codes.take(pos, mode="clip") == codes


def _both_ways(codes: np.ndarray) -> np.ndarray:
    """``codes`` and their mirror images ``(v << 32) | u``, sorted."""
    mirrored = ((codes & _LOW) << _SHIFT) | (codes >> _SHIFT)
    return np.sort(np.concatenate([codes, mirrored]))


def _merged(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``sorted_codes`` with the sorted ``codes``, none of them present,
    merged in."""
    at = sorted_codes.searchsorted(codes) + np.arange(codes.size)
    out = np.empty(sorted_codes.size + codes.size, dtype=np.int64)
    keep = np.ones(out.size, dtype=bool)
    keep[at] = False
    out[keep] = sorted_codes
    out[at] = codes
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment ids and flat positions of the slices
    ``starts[i] : starts[i] + counts[i]``, concatenated in order."""
    seg_ids = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    positions = np.arange(seg_ids.size, dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    return seg_ids, positions


class DeltaCSR:
    """A mutable undirected adjacency: CSR base + array edit overlay.

    The overlay layout, the lazily built arrays, the insert record and the
    32-bit id bound are described in the module docstring.
    :meth:`edge_arrays` returns the surviving base edges followed by the
    inserted ones; that order is unspecified and may change between
    versions, so callers must not depend on it.

    Parameters
    ----------
    base:
        The starting adjacency (vertices ``0..base.n_vertices-1`` alive).
    """

    def __init__(self, base: CSRAdjacency):
        if base.n_vertices > MAX_VERTICES:
            raise ValueError(
                f"{base.n_vertices} vertices exceed the {MAX_VERTICES}-id bound"
            )
        self._n = base.n_vertices
        self._alive = np.ones(self._n, dtype=bool)
        self._n_alive = self._n
        self._degrees = base.degrees.astype(np.int64)
        self._n_edges = base.n_directed_edges // 2
        self._rebuilds = 0
        self._insert_log: list[tuple[np.ndarray, np.ndarray]] = []
        self._set_base(base)

    def _set_base(self, base: CSRAdjacency) -> None:
        """Adopt ``base`` with an empty overlay."""
        self._base = base
        self._base_codes: np.ndarray | None = None
        self._dead: np.ndarray | None = None  # allocated with _base_codes
        self._inserted = np.empty(0, dtype=np.int64)  # both orientations
        self._delta_ops = 0

    # ---- size and liveness ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Total ids ever allocated (alive + dead)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Current undirected edge count."""
        return self._n_edges

    @property
    def n_alive(self) -> int:
        """Number of live vertices (a counter, not a scan of the mask)."""
        return self._n_alive

    @property
    def alive_mask(self) -> np.ndarray:
        """Boolean liveness mask over all ids (read-only view)."""
        return self._alive

    def is_alive(self, v: int) -> bool:
        """Whether id ``v`` is currently a live vertex."""
        return bool(self._alive[v])

    @property
    def degrees(self) -> np.ndarray:
        """Current per-vertex degrees (dead vertices have 0)."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Current ``Delta`` over live vertices (0 for an empty graph)."""
        return int(self._degrees.max()) if self._n else 0

    @property
    def rebuilds(self) -> int:
        """Number of compactions performed so far."""
        return self._rebuilds

    # ---- lazily built arrays -------------------------------------------------

    def _codes(self) -> np.ndarray:
        """Sorted codes of the base's undirected edges (allocates the dead
        mask alongside)."""
        if self._base_codes is None:
            base_u, base_v = self._base.edge_arrays()
            self._base_codes = (base_u << _SHIFT) | base_v
            self._dead = np.zeros(base_u.size, dtype=bool)
        return self._base_codes

    # ---- mutation ------------------------------------------------------------

    def _check_alive(self, v: int) -> None:
        if not (0 <= v < self._n) or not self._alive[v]:
            raise ValueError(f"vertex {v} is not alive")

    def has_edge(self, u, v):
        """Whether ``{u[i], v[i]}`` is a current edge (base + overlay): a
        bool for two integers, a bool array for int arrays."""
        us, vs = _endpoints(u, v)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        # a negative id makes a negative code, which matches nothing
        codes = (lo << _SHIFT) | hi
        pos, hit = _search(self._codes(), codes)
        hit[hit] = ~self._dead[pos[hit]]
        hit |= _search(self._inserted, codes)[1]  # the halves are disjoint
        hit &= hi < self._n
        if isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer)):
            return bool(hit[0])
        return hit

    def _plan(
        self, insert: bool, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(base, overlay)`` of a valid edit call: the base-list indices
        of its pairs that are base edges, and the codes of the others in
        both orientations, sorted.  Raises the ``ValueError`` that applying
        the pairs one at a time (as inserts, or as deletes) would raise
        first."""
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        codes = (lo << _SHIFT) | hi  # garbage where an id is out of range
        pos, in_base = _search(self._codes(), codes)
        in_overlay = _search(self._inserted, codes)[1]
        if us.size > _PAIRWISE_MAX and lo.min() >= 0 and hi.max() < self._n:
            base = pos[in_base]
            if insert:
                valid = (
                    self._alive[lo].all()
                    and self._alive[hi].all()
                    and (lo < hi).all()
                    and not in_overlay.any()
                    and self._dead[base].all()
                )
            else:
                valid = (in_base | in_overlay).all() and not self._dead[base].any()
            ranked = np.sort(codes)
            if valid and not (ranked[1:] == ranked[:-1]).any():
                return base, _both_ways(codes[~in_base])
        # short or invalid calls: the same checks, pair by pair, in order
        n, alive, dead = self._n, self._alive, self._dead
        base_list: list[int] = []
        overlay: list[int] = []  # both orientations
        seen: set[int] = set()
        for a, b, code, i, hit, held in zip(
            us.tolist(),
            vs.tolist(),
            codes.tolist(),
            pos.tolist(),
            in_base.tolist(),
            in_overlay.tolist(),
        ):
            known = 0 <= a < n and 0 <= b < n
            if insert:
                for x in (a, b):
                    if not (0 <= x < n and alive[x]):
                        raise ValueError(f"vertex {x} is not alive")
                if a == b:
                    raise ValueError(f"self-loop on vertex {a}")
            live = known and (held or (hit and not dead[i]))
            if code in seen or live == insert:
                state = "already present" if insert else "not present"
                raise ValueError(f"edge ({a},{b}) {state}")
            seen.add(code)
            if hit:
                base_list.append(i)
            else:
                overlay += (code, (max(a, b) << _SHIFT) | min(a, b))
        return (
            np.array(base_list, dtype=np.int64),
            np.array(sorted(overlay), dtype=np.int64),
        )

    def _count_edits(self, us: np.ndarray, vs: np.ndarray, sign: int) -> None:
        """Book ``us.size`` edge edits: degrees, edge count and overlay ops."""
        np.add.at(self._degrees, np.concatenate([us, vs]), sign)
        self._n_edges += sign * us.size
        self._delta_ops += us.size

    def insert_edge(self, u, v) -> None:
        """Add the undirected edges ``{u[i], v[i]}`` (scalars or int arrays).

        Raises, before any write, if an endpoint is not alive, a pair is a
        self-loop, or an edge is already present or repeated in the call.
        """
        us, vs = _endpoints(u, v)
        revived, fresh = self._plan(True, us, vs)
        self._dead[revived] = False  # resurrect: undo their deletion
        if fresh.size:
            self._inserted = _merged(self._inserted, fresh)
        self._count_edits(us, vs, 1)
        # copies: ``us``/``vs`` may be the caller's arrays, free to change
        self._insert_log.append((us.copy(), vs.copy()))

    def drain_inserts(self) -> tuple[np.ndarray, np.ndarray]:
        """The insert record: the ``(u, v)`` endpoint arrays of every pair
        :meth:`insert_edge` accepted since the last drain, in call order
        (a pair deleted since is still listed).  Clears the record."""
        log, self._insert_log = self._insert_log, []
        if not log:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        us, vs = zip(*log)
        return np.concatenate(us), np.concatenate(vs)

    def delete_edge(self, u, v) -> None:
        """Remove the undirected edges ``{u[i], v[i]}`` (scalars or int
        arrays); raises, before any write, if one is absent or repeated."""
        us, vs = _endpoints(u, v)
        killed, gone = self._plan(False, us, vs)
        self._dead[killed] = True
        if gone.size:  # overlay-only edges: cancel them
            keep = np.ones(self._inserted.size, dtype=bool)
            keep[self._inserted.searchsorted(gone)] = False
            self._inserted = self._inserted[keep]
        self._count_edits(us, vs, -1)

    def add_vertex(self, count: int = 1) -> int:
        """Allocate ``count`` fresh isolated vertices with sequential ids,
        growing each array once; returns the first id.  Raises, before any
        write, if ``count < 1`` or an id would pass :data:`MAX_VERTICES`."""
        if count < 1:
            raise ValueError(f"cannot add {count} vertices; the count must be >= 1")
        v = self._n
        last = v + count - 1
        if last >= MAX_VERTICES:
            raise ValueError(f"vertex id {last} exceeds the {MAX_VERTICES}-id bound")
        self._n += count
        self._n_alive += count
        self._alive = np.concatenate([self._alive, np.ones(count, dtype=bool)])
        self._degrees = np.concatenate(
            [self._degrees, np.zeros(count, dtype=np.int64)]
        )
        self._delta_ops += count
        return v

    def remove_vertex(self, v: int) -> np.ndarray:
        """Delete all of ``v``'s edges and mark it dead; returns the sorted
        neighbors it was detached from (the repair frontier)."""
        self._check_alive(v)
        detached = self.neighbors(v)
        self.delete_edge(v, detached)
        self._alive[v] = False
        self._n_alive -= 1
        self._delta_ops += 1
        return detached

    # ---- queries -------------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Current sorted neighbor array of ``v`` (dead vertices: empty);
        :meth:`gather` of one vertex, read off its base row and its run of
        inserted codes directly."""
        v = int(v)
        if not (0 <= v < self._n and self._alive[v]):
            return np.empty(0, dtype=np.int64)
        row = np.empty(0, dtype=np.int64)
        if v < self._base.n_vertices:
            indptr = self._base.indptr
            row = self._base.indices[indptr[v] : indptr[v + 1]]
            if self._dead is None:
                row = row.copy()
            else:
                codes = np.where(row < v, (row << _SHIFT) | v, (v << _SHIFT) | row)
                row = row[~self._dead[self._base_codes.searchsorted(codes)]]
        inserted = self._inserted
        lo = int(inserted.searchsorted(v << _SHIFT))
        hi = int(inserted.searchsorted((v + 1) << _SHIFT))
        if hi > lo:
            row = np.sort(np.concatenate([row, inserted[lo:hi] & _LOW]))
        return row

    def gather(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """Flattened neighborhoods of ``vertices`` -- the delta-aware
        counterpart of :func:`repro.graphcore.gather_neighborhoods`, aligned
        the same way (segments in query order, each sorted) so the flat
        kernels consume either."""
        verts = np.asarray(vertices, dtype=np.int64).reshape(-1)
        live = (verts >= 0) & (verts < self._n)
        live[live] = self._alive[verts[live]]
        # base rows, minus the deleted edges
        base = self._base
        in_base = live & (verts < base.n_vertices)
        rows = np.where(in_base, verts, 0)
        starts = base.indptr[rows]
        counts = np.where(in_base, base.indptr[rows + 1] - starts, 0)
        seg_ids, slots = _ranges(starts, counts)
        flat = base.indices[slots]
        if self._dead is not None:
            owners = verts[seg_ids]
            codes = (np.minimum(owners, flat) << _SHIFT) | np.maximum(owners, flat)
            keep = ~self._dead[self._codes().searchsorted(codes)]
            seg_ids, flat = seg_ids[keep], flat[keep]
        inserted = self._inserted
        if not inserted.size:
            return seg_ids, flat
        # plus the incident inserted edges (a vertex's codes are one run),
        # merged into sorted segments
        lo = inserted.searchsorted(verts << _SHIFT)
        hi = inserted.searchsorted((verts + 1) << _SHIFT)
        ins_seg, ins_pos = _ranges(lo, np.where(live, hi - lo, 0))
        seg_ids = np.concatenate([seg_ids, ins_seg])
        flat = np.concatenate([flat, inserted[ins_pos] & _LOW])
        order = np.lexsort((flat, seg_ids))
        return seg_ids[order], flat[order]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current undirected edge list as ``(u, v)`` arrays with ``u < v``:
        the surviving base edges, then the inserted ones.  The order is
        unspecified; the properness check and compaction do not use it."""
        base_u, base_v = self._base.edge_arrays()
        if self._dead is not None:
            keep = ~self._dead
            base_u, base_v = base_u[keep], base_v[keep]
        inserted = self._inserted
        if not inserted.size:
            return base_u, base_v
        src, dst = inserted >> _SHIFT, inserted & _LOW
        upper = src < dst
        return (
            np.concatenate([base_u, src[upper]]),
            np.concatenate([base_v, dst[upper]]),
        )

    # ---- compaction ----------------------------------------------------------

    def should_compact(self) -> bool:
        """Whether the overlay has outgrown the rebuild budget."""
        budget = max(64, int(_REBUILD_FRACTION * max(1, 2 * self._n_edges)))
        return self._delta_ops > budget

    def compact(self) -> CSRAdjacency:
        """Fold the overlay into a fresh base CSR and return it."""
        edge_u, edge_v = self.edge_arrays()
        self._set_base(CSRAdjacency.from_edge_arrays(edge_u, edge_v, self._n))
        self._rebuilds += 1
        return self._base

    def maybe_compact(self) -> bool:
        """Compact if past the rebuild budget; returns whether it happened."""
        if self.should_compact():
            self.compact()
            return True
        return False

    def as_csr(self) -> CSRAdjacency:
        """A CSR equal to the *current* adjacency.

        Returns the base directly when the overlay is clean; otherwise
        builds a throwaway CSR without clearing the overlay (rebuild policy
        stays with :meth:`maybe_compact`).
        """
        if self._delta_ops == 0 and self._n == self._base.n_vertices:
            return self._base
        edge_u, edge_v = self.edge_arrays()
        return CSRAdjacency.from_edge_arrays(edge_u, edge_v, self._n)
