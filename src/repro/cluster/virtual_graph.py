"""Virtual graphs (Appendix A): clusters that may overlap.

A virtual graph maps every H-vertex to a *support* -- a connected set of
machines -- with supports allowed to intersect.  Everything in the paper
translates to virtual graphs with an extra factor equal to the *edge
congestion* ``c`` (number of support trees sharing a link); dilation ``d``
keeps its meaning.

The flagship instance is **distance-2 coloring** (Corollary 1.3): on a
CONGEST network ``G``, vertex ``v``'s support is its closed neighborhood
``N_G[v]``; two vertices conflict iff they are within distance 2.  With the
natural star support trees the embedding has congestion 2 and dilation 2,
and Theorem 1.2 yields a ``Delta^2 + 1``-coloring of ``G^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.graphcore.csr import CSRAdjacency
from repro.network.commgraph import CommGraph


@dataclass
class VirtualGraph:
    """A conflict graph whose vertices are (possibly overlapping) supports.

    Exposes the same read interface as
    :class:`repro.cluster.cluster_graph.ClusterGraph` so the coloring
    pipeline can run on either; the extra :attr:`congestion` multiplies round
    costs in the ledger.
    """

    comm: CommGraph
    supports: list[list[int]]
    adj: list[list[int]]
    congestion: int
    dilation: int
    _neighbor_sets: list[frozenset[int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self._neighbor_sets:
            self._neighbor_sets = [frozenset(a) for a in self.adj]
        # CSR backbone for the batched kernels; rebuilt on replace/unpickle
        # rather than lazily cached (see ClusterGraph.csr).
        self.csr = CSRAdjacency.from_adj_lists(self.adj)

    # -- ClusterGraph-compatible interface ------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of virtual nodes."""
        return len(self.supports)

    @property
    def n_machines(self) -> int:
        """Number of machines of ``G`` (the ``n`` of w.h.p. bounds)."""
        return self.comm.n

    def neighbors(self, v: int) -> list[int]:
        """Conflict-graph neighbors of ``v``."""
        return self.adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Conflict-graph neighbors of ``v`` as a frozenset."""
        return self._neighbor_sets[v]

    def degree(self, v: int) -> int:
        """Degree of ``v`` in the conflict graph."""
        return len(self.adj[v])

    @cached_property
    def max_degree(self) -> int:
        """Maximum conflict-graph degree, computed once per graph (nothing
        mutates ``adj`` after ``__post_init__``)."""
        degrees = self.csr.degrees
        return int(degrees.max()) if degrees.size else 0

    def are_adjacent(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` conflict."""
        return v in self._neighbor_sets[u]

    def anti_neighbors_within(self, v: int, vertex_set) -> list[int]:
        """Non-neighbors of ``v`` within ``vertex_set``."""
        nbrs = self._neighbor_sets[v]
        return [u for u in vertex_set if u != v and u not in nbrs]

    def cluster_size(self, v: int) -> int:
        """Support size of ``v``."""
        return len(self.supports[v])

    def iter_h_edges(self):
        """All conflict edges ``(u, v)`` with ``u < v``."""
        for u in range(self.n_vertices):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def neighbor_array(self, v: int) -> np.ndarray:
        """Conflict-graph neighbors of ``v`` as an int64 array -- a
        zero-copy slice of the CSR backbone."""
        return self.csr.neighbors(v)

    def h_edge_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """All conflict edges as ``(u, v)`` int64 arrays with ``u < v``."""
        return self.csr.edge_arrays()


def distance2_virtual_graph(comm: CommGraph) -> VirtualGraph:
    """The distance-2 virtual graph of Corollary 1.3.

    Vertex ``v``'s support is ``N_G[v]`` (a star, dilation 2); ``u`` and
    ``v`` conflict iff ``dist_G(u, v) <= 2``.  Each link ``{u, w}`` belongs
    to exactly the support trees of ``u`` and ``w``, so congestion is 2.
    """
    n = comm.n
    supports = [[v, *comm.neighbors(v)] for v in range(n)]
    adj_sets: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for u in comm.neighbors(v):
            adj_sets[v].add(u)
            for w in comm.neighbors(u):
                if w != v:
                    adj_sets[v].add(w)
    adj = [sorted(s) for s in adj_sets]
    return VirtualGraph(
        comm=comm,
        supports=supports,
        adj=adj,
        congestion=2,
        dilation=2,
        _neighbor_sets=[frozenset(s) for s in adj_sets],
    )


def power_graph_degree_bound(comm: CommGraph) -> int:
    """``Delta_2 = max_v |N^2_G(v)|`` -- the color budget of Corollary 1.3
    is ``Delta_2 + 1``.
    """
    return distance2_virtual_graph(comm).max_degree
