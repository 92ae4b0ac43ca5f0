"""Clique-palette queries (Lemma 4.8).

A vertex of a cluster graph cannot learn its own palette (Figure 2), but the
clique palette ``L_φ(K) = [Δ+1] \\ φ(K)`` is queryable as a distributed data
structure: counting colors in a range, or fetching the ``i``-th color of the
range, each take ``O(1)`` rounds (binary search over prefix sums maintained
on a BFS tree of ``K``).

This module wraps :class:`repro.coloring.types.CliquePaletteView` with the
round charges of the lemma.
"""

from __future__ import annotations

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import CliquePaletteView, PartialColoring


def palette_view(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    members: list[int],
    *,
    op: str = "clique_palette",
) -> CliquePaletteView:
    """Snapshot ``L_φ(K)`` (one convergecast+broadcast pair over the clique's
    BFS tree; all cliques may do this in parallel since they are disjoint).
    """
    runtime.h_rounds(op, count=2)
    return CliquePaletteView.build(coloring, members)
