"""Vectorized CSR graph core.

Every conflict graph (:class:`~repro.cluster.cluster_graph.ClusterGraph`,
:class:`~repro.cluster.virtual_graph.VirtualGraph`,
:class:`~repro.dynamic.view.FrozenConflictGraph`) holds a compressed sparse
row (CSR) adjacency and reads it through :class:`CSRConflictGraph`; the
batched numpy kernels
here run the coloring layer's hot paths -- conflict checks, used-color
discovery, properness checking -- over whole vertex sets at once instead of
per-vertex Python loops.

Kernels are pure functions of ``(csr, colors, vertices)`` and charge no
ledger costs; the one kernel that draws randomness,
:func:`draw_free_colors`, consumes the generator exactly as the per-vertex
loop it replaces.  Swapping them in for the legacy per-vertex loops
therefore preserves RNG draw order, ledger accounting, and the exact
colorings of pinned seeds (property-tested in ``tests/test_graphcore.py``).
"""

from repro.graphcore.csr import CSRAdjacency, CSRConflictGraph
from repro.graphcore.kernels import (
    adjacency_mask,
    batch_conflict_mask,
    batch_label_mismatch_counts,
    batch_neighbor_colors,
    batch_used_color_masks,
    bfs_depth,
    conflict_mask_from_flat,
    draw_free_colors,
    gather_neighborhoods,
    in_sorted,
    is_proper_edges,
    label_components,
    neighbor_counts_within,
    row_blocks,
    used_color_masks_from_flat,
    violations_edges,
)

__all__ = [
    "CSRAdjacency",
    "CSRConflictGraph",
    "adjacency_mask",
    "batch_conflict_mask",
    "batch_label_mismatch_counts",
    "batch_neighbor_colors",
    "batch_used_color_masks",
    "bfs_depth",
    "conflict_mask_from_flat",
    "draw_free_colors",
    "gather_neighborhoods",
    "in_sorted",
    "is_proper_edges",
    "label_components",
    "neighbor_counts_within",
    "row_blocks",
    "used_color_masks_from_flat",
    "violations_edges",
]
