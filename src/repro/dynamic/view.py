"""Static conflict-graph views over the dynamic engine's state.

The streaming engine maintains adjacency in a :class:`~repro.dynamic.delta.DeltaCSR`
plus per-cluster metadata (machine counts, support-tree height estimates).
When the full one-shot pipeline must run -- the recolor-from-scratch baseline
and the engine's own escalation path -- it needs a conflict graph.
:class:`FrozenConflictGraph` is that snapshot: a plain CSR plus cluster
sizes, reading its adjacency through the same
:class:`~repro.graphcore.csr.CSRConflictGraph` interface as
:class:`~repro.cluster.cluster_graph.ClusterGraph` and
:class:`~repro.cluster.virtual_graph.VirtualGraph`.

Removed vertices appear as isolated (edge-free) ids so the stable-id
contract of the stream survives the snapshot; isolated vertices cannot
constrain anything and cost the pipeline nothing interesting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphcore.csr import CSRAdjacency, CSRConflictGraph


@dataclass
class FrozenConflictGraph(CSRConflictGraph):
    """An immutable conflict graph defined directly by a CSR backbone.

    Attributes
    ----------
    csr:
        Adjacency over all allocated ids (dead ids have empty slices).
    cluster_sizes:
        Machines per cluster (0 for dead ids).
    dilation:
        Support-tree height bound carried over from the live engine.
    """

    csr: CSRAdjacency
    cluster_sizes: np.ndarray
    dilation: int

    @property
    def n_machines(self) -> int:
        """Total machines across live clusters (the ``n`` of w.h.p. bounds)."""
        return int(self.cluster_sizes.sum())

    def cluster_size(self, v: int) -> int:
        """Machines in cluster ``v`` at snapshot time (0 for dead ids)."""
        return int(self.cluster_sizes[v])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrozenConflictGraph(vertices={self.n_vertices}, "
            f"machines={self.n_machines}, Delta={self.max_degree}, "
            f"dilation={self.dilation})"
        )
