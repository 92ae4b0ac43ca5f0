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

import numpy as np

from repro.graphcore import CSRAdjacency, CSRConflictGraph, gather_neighborhoods
from repro.network.commgraph import CommGraph


@dataclass
class VirtualGraph(CSRConflictGraph):
    """A conflict graph whose vertices are (possibly overlapping) supports.

    Shares the read interface of
    :class:`repro.cluster.cluster_graph.ClusterGraph`
    (:class:`~repro.graphcore.csr.CSRConflictGraph`) so the coloring
    pipeline can run on either; the extra :attr:`congestion` multiplies
    round costs in the ledger.
    """

    comm: CommGraph
    supports: list[list[int]]
    csr: CSRAdjacency = field(repr=False, compare=False)
    congestion: int
    dilation: int

    @property
    def n_machines(self) -> int:
        """Number of machines of ``G`` (the ``n`` of w.h.p. bounds)."""
        return self.comm.n

    def cluster_size(self, v: int) -> int:
        """Support size of ``v``."""
        return len(self.supports[v])


def distance2_virtual_graph(comm: CommGraph) -> VirtualGraph:
    """The distance-2 virtual graph of Corollary 1.3.

    Vertex ``v``'s support is ``N_G[v]`` (a star, dilation 2); ``u`` and
    ``v`` conflict iff ``dist_G(u, v) <= 2``.  Each link ``{u, w}`` belongs
    to exactly the support trees of ``u`` and ``w``, so congestion is 2.
    """
    n = comm.n
    supports = [[v, *comm.neighbors(v)] for v in range(n)]
    # every directed link v -> u, then every two-hop walk v -> u -> w
    src = np.repeat(np.arange(n, dtype=np.int64), comm.csr.degrees)
    hop, far = gather_neighborhoods(comm.csr, comm.csr.indices)
    far_src = src[hop]
    keep = far_src != far
    csr = CSRAdjacency.from_edge_arrays(
        np.concatenate([src, far_src[keep]]),
        np.concatenate([comm.csr.indices, far[keep]]),
        n,
        dedupe=True,
    )
    return VirtualGraph(
        comm=comm, supports=supports, csr=csr, congestion=2, dilation=2
    )


def power_graph_degree_bound(comm: CommGraph) -> int:
    """``Delta_2 = max_v |N^2_G(v)|`` -- the color budget of Corollary 1.3
    is ``Delta_2 + 1``.
    """
    return distance2_virtual_graph(comm).max_degree
