"""Cluster-assignment builders: ways of obtaining ``H`` from ``G``.

Cluster graphs arise in practice when algorithms contract edges (maximum
flow), grow low-diameter clusters (network decomposition), or when the
conflict graph is planted and the network is synthesized around it.  This
module provides all three:

* :func:`contraction_clusters` -- contract a random forest of ``G``;
* :func:`voronoi_clusters` -- multi-source BFS regions (always connected);
* :func:`blowup` -- synthesize ``G`` around a *desired* ``H``, controlling
  cluster topology (hence dilation) and link multiplicity.  This is the
  workhorse of the experiments: it lets us plant almost-cliques, cabals and
  bridge pathologies with known ground truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

import numpy as np

from repro.cluster.cluster_graph import ClusterGraph
from repro.network.commgraph import CommGraph, networkx_edge_array

if TYPE_CHECKING:
    import networkx as nx

ClusterTopology = Literal["path", "star", "clique", "tree", "bridge"]


def voronoi_clusters(
    comm: CommGraph, n_clusters: int, rng: np.random.Generator
) -> ClusterGraph:
    """Partition ``G`` into ``n_clusters`` BFS (Voronoi) regions.

    Multi-source BFS regions are connected by construction, satisfying
    Definition 3.1.  ``G`` must be connected.
    """
    if n_clusters <= 0 or n_clusters > comm.n:
        raise ValueError(f"n_clusters={n_clusters} out of range for n={comm.n}")
    centers = rng.choice(comm.n, size=n_clusters, replace=False).astype(np.int64)
    assignment = np.full(comm.n, -1, dtype=np.int64)
    assignment[centers] = np.arange(n_clusters, dtype=np.int64)
    # vectorized multi-source BFS: one frontier gather per level.  Ties
    # (several frontier machines reaching the same target in one level) go
    # to the first writer in (frontier-order, neighbor-order) -- exactly
    # the order the per-vertex loop this replaces assigned in, so pinned
    # instances keep the identical partition.
    from repro.graphcore import gather_neighborhoods

    csr = comm.csr
    frontier = centers
    while frontier.size:
        seg_ids, flat = gather_neighborhoods(csr, frontier)
        unvisited = assignment[flat] < 0
        targets = flat[unvisited]
        owners = assignment[frontier[seg_ids[unvisited]]]
        uniq, first_idx = np.unique(targets, return_index=True)
        assignment[uniq] = owners[first_idx]
        frontier = uniq[np.argsort(first_idx, kind="stable")]
    if (assignment < 0).any():
        raise ValueError("communication graph is not connected")
    return ClusterGraph.from_assignment(comm, assignment)


def contraction_clusters(
    comm: CommGraph, contraction_fraction: float, rng: np.random.Generator
) -> ClusterGraph:
    """Contract a random sub-forest covering roughly ``contraction_fraction``
    of the machines, as edge-contracting algorithms do.

    Each contracted tree becomes one cluster; untouched machines stay
    singleton clusters (so the result is always a valid partition).
    """
    if not 0.0 <= contraction_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    parent = list(range(comm.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    links = list(zip(*(a.tolist() for a in comm.link_arrays())))
    rng.shuffle(links)
    target_merges = int(contraction_fraction * comm.n)
    merges = 0
    for u, v in links:
        if merges >= target_merges:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    roots = np.fromiter(
        (find(machine) for machine in range(comm.n)), dtype=np.int64, count=comm.n
    )
    # number the trees in order of their first machine
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return ClusterGraph.from_assignment(comm, rank[inverse])


def _internal_links(
    starts: np.ndarray,
    sizes: np.ndarray,
    topology: ClusterTopology,
    rng: np.random.Generator,
) -> np.ndarray:
    """Internal wiring of every cluster at once; controls support-tree
    height.  Clusters are the contiguous machine ranges
    ``[starts[c], starts[c] + sizes[c])``.

    Only ``tree`` draws: machine ``i`` of each cluster picks its parent
    among the first ``i``, clusters and machines in order.  The others are
    fixed shapes, and ``CommGraph`` sorts the links, so their order here
    is free.
    """
    cluster = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    machine = np.arange(cluster.size, dtype=np.int64)
    first = starts[cluster]
    offset = machine - first
    rest = offset > 0
    if topology == "path":
        return np.stack([machine[rest] - 1, machine[rest]], axis=1)
    if topology == "star":
        return np.stack([first[rest], machine[rest]], axis=1)
    if topology == "tree":
        parent = first[rest] + rng.integers(0, offset[rest])
        return np.stack([parent, machine[rest]], axis=1)
    if topology == "bridge":
        # Two stars joined by a single bridge link (Figures 2/3): every path
        # between the halves crosses one O(log n)-bit link.
        half = (sizes // 2)[cluster]
        hub = np.where(offset < half, first, first + half)
        spoke = rest & (offset != half)
        split = sizes > 1
        return np.concatenate([
            np.stack([hub[spoke], machine[spoke]], axis=1),
            np.stack([starts[split], starts[split] + sizes[split] // 2], axis=1),
        ])
    if topology == "clique":
        parts = [np.empty((0, 2), dtype=np.int64)]
        for k in np.unique(sizes[sizes > 1]).tolist():
            i, j = np.triu_indices(k, 1)
            base = starts[sizes == k][:, None]
            parts.append(np.stack([(base + i).ravel(), (base + j).ravel()], axis=1))
        return np.concatenate(parts)
    raise ValueError(f"unknown topology {topology!r}")


def _check_conflict_edges(n_vertices: int, edges: np.ndarray) -> None:
    """Reject what no cluster graph can realize: an endpoint outside
    ``0..n_vertices-1``, an H self-loop, or the same H-edge twice."""
    if not edges.size:
        return
    outside = ((edges < 0) | (edges >= n_vertices)).any(axis=1)
    if outside.any():
        u, v = edges[outside][0].tolist()
        raise ValueError(
            f"conflict edge ({u}, {v}) names an H vertex outside 0..{n_vertices - 1}"
        )
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        raise ValueError(f"conflict graph self-loop on H vertex {int(edges[loops][0, 0])}")
    codes = np.minimum(edges[:, 0], edges[:, 1]) * n_vertices + np.maximum(
        edges[:, 0], edges[:, 1]
    )
    if not (codes[1:] > codes[:-1]).all():  # sorted input skips the sort
        codes = np.sort(codes)
        repeated = codes[1:][codes[1:] == codes[:-1]]
        if repeated.size:
            u, v = divmod(int(repeated[0]), n_vertices)
            raise ValueError(f"duplicate conflict edge ({u}, {v}) at H vertex {u}")


def blowup(
    conflict_graph: nx.Graph | tuple[int, np.ndarray],
    rng: np.random.Generator,
    *,
    cluster_size: int = 1,
    topology: ClusterTopology = "star",
    link_multiplicity: int = 1,
    size_jitter: float = 0.0,
) -> ClusterGraph:
    """Synthesize a network ``G`` realizing a desired conflict graph ``H``.

    ``conflict_graph`` is either ``(n, edges)``, an int64 ``(m, 2)`` edge
    array over H vertices ``0..n-1``, or a networkx graph, whose nodes are
    numbered in sorted label order (:func:`networkx_edge_array`).  Each
    vertex becomes a cluster of about ``cluster_size`` machines wired
    according to ``topology``; each H-edge, in edge order, is realized by
    ``link_multiplicity`` links between machines chosen uniformly in the
    two clusters (several links between the same cluster pair are the norm
    in real cluster graphs -- Figure 1).  Self-loops, repeated edges and
    out-of-range endpoints are rejected before any draw.

    Returns a :class:`ClusterGraph` whose ``H`` equals ``conflict_graph``.
    """
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    if link_multiplicity < 1:
        raise ValueError("link_multiplicity must be >= 1")
    if hasattr(conflict_graph, "adj"):  # a networkx graph, without importing it
        n_vertices, edge_arr = networkx_edge_array(conflict_graph, ordering="sorted")
    else:
        n_vertices, edge_arr = conflict_graph
        edge_arr = np.asarray(edge_arr, dtype=np.int64).reshape(-1, 2)
    _check_conflict_edges(n_vertices, edge_arr)

    if size_jitter > 0:
        # one uniform per vertex, in vertex order
        spread = rng.uniform(-size_jitter, size_jitter, size=n_vertices)
        sizes = np.maximum(1, np.rint(cluster_size * (1 + spread)).astype(np.int64))
    else:
        sizes = np.full(n_vertices, cluster_size, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    internal = _internal_links(starts, sizes, topology, rng)

    # Inter-cluster links, vectorized: clusters are contiguous machine
    # ranges, so a pick is start + offset.  The (edges, multiplicity, 2)
    # draw matrix consumes the rng in exactly the order the per-edge loop
    # did (C-order: edge, copy, endpoint), keeping pinned instances
    # bitwise identical.  Internal and inter-cluster links share one
    # buffer, and each link-length temporary is dropped once spent.
    highs = np.stack(
        [sizes[edge_arr[:, 0]], sizes[edge_arr[:, 1]]], axis=1
    )[:, None, :].repeat(link_multiplicity, axis=1)
    offsets = rng.integers(0, highs) if edge_arr.size else highs
    del highs
    links = np.empty((internal.shape[0] + offsets.size // 2, 2), dtype=np.int64)
    links[: internal.shape[0]] = internal
    inter = links[internal.shape[0] :].reshape(offsets.shape)
    del internal
    np.add(offsets, starts[edge_arr][:, None, :], out=inter)
    del offsets, inter

    comm = CommGraph(int(sizes.sum()), links)
    del links
    assignment = np.repeat(np.arange(n_vertices, dtype=np.int64), sizes)
    return ClusterGraph.from_assignment(comm, assignment)
