"""Support trees ``T(v)`` spanning each cluster (Section 3.2).

Each cluster elects a leader and computes a BFS tree of ``G`` restricted to
its machines.  The *dilation* ``d`` of a cluster graph is the maximum
*height* of a support tree, at least 1 (a singleton cluster still costs a
round): one broadcast or convergecast over ``T(v)`` costs its height in
rounds on ``G``, and all round costs scale linearly with ``d`` (Theorems
1.1/1.2 state the ``d`` factor explicitly).  A tree's diameter is at most
twice its height, so this is the paper's ``d`` up to a factor 2.

:func:`build_forest` builds every cluster's tree at once and returns them
as one :class:`SupportForest` of flat arrays.  :class:`SupportTree` is the
per-cluster sequential build it must reproduce, kept as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphcore.csr import CSRAdjacency
from repro.network.commgraph import CommGraph


@dataclass(frozen=True)
class SupportTree:
    """A rooted spanning tree of one cluster, built sequentially.

    The reference for :func:`build_forest` (which must match it tree for
    tree); the pipeline itself reads the :class:`SupportForest`.

    Attributes
    ----------
    cluster_id:
        The H-vertex this tree supports.
    root:
        The leader machine.
    parent:
        ``parent[machine]`` is the parent machine, or ``None`` for the root.
        Only machines of this cluster appear as keys.
    depth_of:
        Distance (in tree hops) of each machine from the root.
    height:
        Maximum depth; one broadcast or convergecast costs ``height`` rounds
        on ``G`` (``>= 1`` so even singleton clusters cost a round).
    """

    cluster_id: int
    root: int
    parent: dict[int, int | None]
    depth_of: dict[int, int]
    height: int

    @classmethod
    def build_bfs(
        cls, comm: CommGraph, machines: Sequence[int], cluster_id: int, root: int | None = None
    ) -> "SupportTree":
        """BFS spanning tree of ``G[machines]`` rooted at ``root`` (default:
        the smallest machine id, a deterministic leader election).

        Raises
        ------
        ValueError
            If ``G[machines]`` is not connected (Definition 3.1 requires it).
        """
        if not machines:
            raise ValueError("cluster must contain at least one machine")
        member = set(machines)
        if root is None:
            root = min(machines)
        if root not in member:
            raise ValueError(f"root {root} not in cluster {cluster_id}")
        parent: dict[int, int | None] = {root: None}
        depth_of: dict[int, int] = {root: 0}
        frontier = [root]
        height = 0
        while frontier:
            nxt = []
            for u in frontier:
                for w in comm.neighbors(u):
                    if w in member and w not in parent:
                        parent[w] = u
                        depth_of[w] = depth_of[u] + 1
                        height = max(height, depth_of[w])
                        nxt.append(w)
            frontier = nxt
        if len(parent) != len(member):
            missing = sorted(member - parent.keys())[:5]
            raise ValueError(
                f"cluster {cluster_id} is not connected in G; "
                f"unreachable machines include {missing}"
            )
        return cls(
            cluster_id=cluster_id,
            root=root,
            parent=parent,
            depth_of=depth_of,
            height=max(1, height),
        )

    @property
    def machines(self) -> list[int]:
        """All machines of the cluster (tree vertices, in BFS discovery
        order -- the root first)."""
        return list(self.parent.keys())


@dataclass(frozen=True, eq=False)
class SupportForest:
    """The support trees of every cluster of a partition, as flat arrays.

    Cluster ``v`` owns the slice ``offsets[v]:offsets[v + 1]`` of both
    ``members`` and ``order``.  All arrays are int64 and read-only.

    Attributes
    ----------
    offsets:
        ``(k + 1,)`` slice bounds per cluster; ``np.diff(offsets)`` are the
        cluster sizes.
    members:
        ``(n,)`` machines grouped by cluster, ascending within each one.
    order:
        ``(n,)`` machines grouped by cluster, in each tree's BFS discovery
        order (the root first, parents before their children).
    root:
        ``(k,)`` leader machine per cluster (its smallest machine).
    height:
        ``(k,)`` tree height per cluster, at least 1: one broadcast or
        convergecast over the tree costs ``height`` rounds on ``G``.
    parent:
        ``(n,)`` parent machine per machine, ``-1`` at a root.
    depth:
        ``(n,)`` hops from each machine to its cluster's root.
    """

    offsets: np.ndarray
    members: np.ndarray
    order: np.ndarray
    root: np.ndarray
    height: np.ndarray
    parent: np.ndarray
    depth: np.ndarray


def build_forest(comm: CommGraph, assignment: np.ndarray) -> SupportForest:
    """BFS support trees for *every* cluster of a partition at once.

    The vectorized counterpart of calling :meth:`SupportTree.build_bfs`
    per cluster, rooted at each cluster's smallest machine (the
    deterministic leader election): one multi-source frontier BFS over the
    CSR of the intra-cluster links alone (clusters are vertex-disjoint, so
    all of them advance in the same frontier, and no level gathers the
    inter-cluster links it would discard).  Per level, ties between
    several frontier machines reaching the same target resolve to the
    first writer in (frontier-order, neighbor-order) -- exactly the order
    the sequential BFS assigned parents in -- so every root, parent,
    depth, height and discovery order equals the per-cluster build's.

    Parameters
    ----------
    comm:
        The communication network ``G``.
    assignment:
        int64 array mapping machine -> cluster id (dense in ``0..k-1``).

    Raises
    ------
    ValueError
        If some cluster is empty, or is not connected in ``G``
        (Definition 3.1); the offending cluster is the smallest-id one, as
        in the per-cluster loop.
    """
    from repro.graphcore import gather_neighborhoods

    n_clusters = int(assignment.max()) + 1 if assignment.size else 0
    sizes = np.bincount(assignment, minlength=n_clusters)
    if (sizes == 0).any():
        raise ValueError("cluster must contain at least one machine")
    offsets = np.zeros(n_clusters + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    members = np.argsort(assignment, kind="stable")
    roots = members[offsets[:-1]]

    mu, mv = comm.link_arrays()
    intra = assignment[mu] == assignment[mv]
    # each machine's intra-cluster neighbors, ascending as in comm.csr
    links = CSRAdjacency.from_edge_arrays(mu[intra], mv[intra], comm.n)
    parent = np.full(comm.n, -1, dtype=np.int64)
    depth = np.full(comm.n, -1, dtype=np.int64)
    depth[roots] = 0
    levels: list[np.ndarray] = [roots]
    frontier = roots
    level = 0
    while frontier.size:
        level += 1
        seg_ids, flat = gather_neighborhoods(links, frontier)
        fresh = depth[flat] < 0
        uniq, first_idx = np.unique(flat[fresh], return_index=True)
        parent[uniq] = frontier[seg_ids[fresh][first_idx]]
        depth[uniq] = level
        frontier = uniq[np.argsort(first_idx, kind="stable")]
        levels.append(frontier)

    unreachable = np.flatnonzero(depth < 0)
    if unreachable.size:
        bad_cluster = int(assignment[unreachable].min())
        missing = unreachable[assignment[unreachable] == bad_cluster][:5]
        raise ValueError(
            f"cluster {bad_cluster} is not connected in G; "
            f"unreachable machines include {missing.tolist()}"
        )

    # Group the global discovery order by cluster; the stable sort keeps
    # each cluster's subsequence in its own BFS order.  Depths never
    # decrease along a BFS order, so a tree's height is the depth of the
    # last machine it discovered.
    discovery = np.concatenate(levels)
    order = discovery[np.argsort(assignment[discovery], kind="stable")]
    height = np.maximum(depth[order[offsets[1:] - 1]], 1)
    forest = SupportForest(
        offsets=offsets, members=members, order=order, root=roots,
        height=height, parent=parent, depth=depth,
    )
    for arr in (offsets, members, order, roots, height, parent, depth):
        arr.flags.writeable = False
    return forest
