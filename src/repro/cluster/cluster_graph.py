"""Cluster graphs (Definition 3.1).

A cluster graph ``H`` over a communication network ``G`` partitions the
machines into disjoint *connected* clusters; ``H`` has one node per cluster
and an edge between two nodes iff some ``G``-link joins their clusters.

The same pair of clusters may be joined by many links (Figure 1): this is
what makes degree computation and palette discovery non-trivial in the
model, so :class:`ClusterGraph` keeps ``G`` and reads every realizing link
off it.

The adjacency is the CSR (``indptr``/``indices`` int64 arrays) laid out
once at construction; the read interface over it is
:class:`~repro.graphcore.csr.CSRConflictGraph`.  The realizing links are
read off ``G``'s CSR as arrays (:meth:`ClusterGraph.realizing_links`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.graphcore.csr import CSRAdjacency, CSRConflictGraph
from repro.network.commgraph import CommGraph
from repro.cluster.support_tree import SupportForest, build_forest


@dataclass
class ClusterGraph(CSRConflictGraph):
    """The conflict graph ``H`` over network ``G``.

    Construct via :meth:`from_assignment` (validates Definition 3.1) or
    :meth:`identity` (the CONGEST special case ``H = G``).

    Attributes
    ----------
    comm:
        The underlying communication network ``G``.
    assignment:
        Read-only int64 array, ``assignment[machine] -> vertex`` cluster
        identifiers, dense in ``0..n_vertices-1``.
    forest:
        Every cluster's members and support tree (leader = tree root).
    csr:
        H-adjacency, the graph's only adjacency state: the read interface
        (:class:`~repro.graphcore.csr.CSRConflictGraph`) and the batched
        coloring kernels (:mod:`repro.graphcore`) run on it.
    """

    comm: CommGraph
    assignment: np.ndarray = field(repr=False, compare=False)
    forest: SupportForest = field(repr=False, compare=False)
    csr: CSRAdjacency = field(repr=False, compare=False)

    # ---- construction --------------------------------------------------------

    @classmethod
    def from_assignment(
        cls, comm: CommGraph, assignment: Sequence[int] | np.ndarray
    ) -> "ClusterGraph":
        """Build ``H`` from a machine-to-cluster assignment (vectorized).

        ``assignment`` is a sequence or an array of integer ids; the graph
        keeps its own read-only int64 copy.

        Raises
        ------
        ValueError
            If the assignment is not a 1-D sequence of integers, is not a
            partition into connected clusters, or cluster ids are not dense
            in ``0..k-1``.
        """
        assign = np.asarray(assignment)
        if assign.ndim == 1 and assign.size != comm.n:
            raise ValueError(
                f"assignment covers {assign.size} machines; G has {comm.n}"
            )
        # bools are not np.integer, so they fail here too
        if assign.ndim != 1 or not np.issubdtype(assign.dtype, np.integer):
            raise ValueError(
                f"cluster ids must be a 1-D integer sequence, got dtype "
                f"{assign.dtype} with shape {assign.shape}"
            )
        assign = assign.astype(np.int64, copy=True)
        assign.flags.writeable = False
        if assign.min() < 0:
            raise ValueError("cluster ids must be non-negative")
        n_vertices = int(assign.max()) + 1
        if n_vertices > comm.n:
            # checked before bincount, which would allocate max() + 1 slots
            raise ValueError(
                f"cluster id {n_vertices - 1} with only {comm.n} machines "
                "leaves an id unused (ids must be dense)"
            )
        sizes = np.bincount(assign, minlength=n_vertices)
        if (sizes == 0).any():
            vertex = int(np.flatnonzero(sizes == 0)[0])
            raise ValueError(f"cluster id {vertex} is unused (ids must be dense)")

        forest = build_forest(comm, assign)

        # H-adjacency: the cluster pairs of the inter-cluster links, deduped
        # and laid out as CSR; the full-length temporaries are dropped first
        mu, mv = comm.link_arrays()
        lo, hi = assign[mu], assign[mv]
        inter = lo != hi
        lo, hi = lo[inter], hi[inter]
        del inter
        csr = CSRAdjacency.from_edge_arrays(lo, hi, n_vertices, dedupe=True)
        return cls(comm=comm, assignment=assign, forest=forest, csr=csr)

    @classmethod
    def identity(cls, comm: CommGraph) -> "ClusterGraph":
        """The CONGEST special case: every machine is its own cluster."""
        return cls.from_assignment(comm, np.arange(comm.n, dtype=np.int64))

    # ---- structure -----------------------------------------------------------

    def realizing_links(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every G-link joining two clusters as int64 arrays ``(u, v, gu,
        gv)``: link ``gu``--``gv`` realizes H-edge ``{u, v}``, ``u < v``,
        with ``gu`` in ``V(u)``.  Sorted by ``(u, v)``; the links of one
        H-edge keep their :meth:`CommGraph.link_arrays` order."""
        mu, mv = self.comm.link_arrays()
        cu, cv = self.assignment[mu], self.assignment[mv]
        inter = cu != cv
        mu, mv, cu, cv = mu[inter], mv[inter], cu[inter], cv[inter]
        forward = cu < cv
        a, b = np.where(forward, cu, cv), np.where(forward, cv, cu)
        x, y = np.where(forward, mu, mv), np.where(forward, mv, mu)
        order = np.argsort(a * self.n_vertices + b, kind="stable")
        return a[order], b[order], x[order], y[order]

    @property
    def n_machines(self) -> int:
        """Number of machines in ``G`` (the ``n`` of the theorems)."""
        return self.comm.n

    @cached_property
    def dilation(self) -> int:
        """``d``: the maximum support-tree *height* over all clusters, at
        least 1 (each tree's height is already clamped to 1).  Computed
        once per graph: the forest is read-only, and a
        ``dataclasses.replace`` copy is a new instance with its own cache."""
        return int(self.forest.height.max(initial=1))

    def cluster_size(self, v: int) -> int:
        """Number of machines in cluster ``v``."""
        offsets = self.forest.offsets
        return int(offsets[v + 1] - offsets[v])

    def members(self, v: int) -> np.ndarray:
        """Machines of cluster ``v``, ascending (a read-only int64 slice of
        the forest, no copy)."""
        offsets = self.forest.offsets
        return self.forest.members[offsets[v] : offsets[v + 1]]

    def leader(self, v: int) -> int:
        """Leader machine of cluster ``v`` (support-tree root)."""
        return int(self.forest.root[v])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterGraph(vertices={self.n_vertices}, machines={self.n_machines}, "
            f"Delta={self.max_degree}, dilation={self.dilation})"
        )

