"""Low-degree cluster graphs (Section 9 / Theorem 1.1).

When ``Δ ≤ poly(log n)``, clusters can exchange whole palettes as
``O(Δ)``-bit bitmaps (pipelined), and the algorithm is the classic
shattering framework:

1. **Shattering** -- ``O(log log n)`` rounds of trying a uniform color from
   the *exact* current palette ([BEPS16]); the uncolored remainder shatters
   into ``poly log n``-sized components w.h.p.
2. **SmallInstanceColoring** -- each component finishes independently.
   Substitution (docs/ARCHITECTURE.md, D4): instead of the Ghaffari-Kuhn rounding of
   Lemma 9.1 we run local-minima greedy -- every round, each uncolored
   vertex that holds the smallest ID among its uncolored neighbors takes
   its smallest free color.  This is a *bona fide* distributed algorithm in
   the same model (one palette bitmap per round) whose measured round count
   on the shattered components is reported by Experiment E2 in place of the
   paper's ``O(log N log^6 log n)``.

The paper's poly-logarithmic regime (Algorithms 13-15) interpolates by
running the dense machinery first; our pipeline handles that by regime
dispatch in :mod:`repro.coloring.pipeline`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.coloring.try_color import palette_sampler, try_color_round
from repro.graphcore import batch_used_color_masks, gather_neighborhoods, row_blocks


def shattering(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    *,
    rounds: int | None = None,
    op: str = "shattering",
) -> list[int]:
    """Phase 1: ``O(log log n)`` exact-palette random trials.

    Each round costs one palette-bitmap exchange (``Δ+1`` bits, pipelined)
    plus the TryColor resolution; returns the uncolored remainder.
    """
    if rounds is None:
        loglog = math.log2(max(2.0, math.log2(max(runtime.n, 4))))
        rounds = max(4, int(math.ceil(2 * loglog)) + 2)
    sampler = palette_sampler(runtime, coloring)
    remaining = np.asarray(vertices, dtype=np.int64)
    remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    for _ in range(rounds):
        if remaining.size == 0:
            break
        runtime.wide_message(op + "_palette", coloring.num_colors)
        try_color_round(runtime, coloring, remaining, sampler, op=op)
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    return remaining.tolist()


def uncolored_components(graph, coloring: PartialColoring, vertices: list[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by uncolored vertices --
    the shattered pieces whose size Experiment E2 reports."""
    pending = set(v for v in vertices if not coloring.is_colored(v))
    components: list[list[int]] = []
    while pending:
        start = next(iter(pending))
        comp = [start]
        pending.discard(start)
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in graph.neighbors(u):
                    if w in pending:
                        pending.discard(w)
                        comp.append(w)
                        nxt.append(w)
            frontier = nxt
        components.append(sorted(comp))
    return components


def small_instance_coloring(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    components: list[list[int]],
    *,
    op: str = "small_instances",
    max_rounds: int | None = None,
) -> list[int]:
    """Phase 2: finish each shattered component (Lemma 9.1 stand-in).

    Local-minima greedy: a vertex whose ID is smallest among its uncolored
    neighbors takes its smallest free color.  Components proceed in
    parallel; each round is one palette-bitmap exchange.  Terminates in at
    most ``max component size`` rounds (every round colors all local
    minima, of which each component has at least one).
    """
    graph = runtime.graph
    csr = graph.csr
    pending = np.asarray([v for comp in components for v in comp], dtype=np.int64)
    pending = pending[coloring.colors[pending] == UNCOLORED]
    if max_rounds is None:
        max_rounds = max((len(c) for c in components), default=0) + 1
    for _ in range(max_rounds):
        if pending.size == 0:
            break
        pending_mask = np.zeros(graph.n_vertices, dtype=bool)
        pending_mask[pending] = True
        # local minima: no smaller-ID uncolored neighbor (blocked CSR
        # gathers)
        has_smaller = np.zeros(pending.size, dtype=bool)
        for start, stop in row_blocks(csr, pending):
            part = pending[start:stop]
            seg_ids, flat = gather_neighborhoods(csr, part)
            smaller_active = pending_mask[flat] & (flat < part[seg_ids])
            has_smaller[start:stop] = (
                np.bincount(seg_ids[smaller_active], minlength=part.size) > 0
            )
        minima = pending[~has_smaller]
        # each minimum takes its smallest free color (round-start state,
        # exactly the deferred-assignment semantics of the loop this
        # replaces: minima are pairwise non-adjacent)
        free_masks = ~batch_used_color_masks(
            csr, coloring.colors, minima, coloring.num_colors
        )
        has_free = free_masks.any(axis=1)
        first_free = np.argmax(free_masks, axis=1)
        coloring.assign_many(minima[has_free], first_free[has_free])
        runtime.wide_message(op + "_palette", coloring.num_colors)
        runtime.h_rounds(op, count=1, bits=runtime.color_bits)
        pending = pending[coloring.colors[pending] == UNCOLORED]
    return pending.tolist()


def color_low_degree(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int] | None = None,
    *,
    op: str = "low_degree",
) -> dict:
    """The full Section 9 path; returns shattering statistics
    (component count/sizes) for Experiment E2.
    """
    graph = runtime.graph
    if vertices is None:
        vertices = list(range(graph.n_vertices))
    remaining = shattering(runtime, coloring, vertices, op=op + "_shatter")
    components = uncolored_components(graph, coloring, remaining)
    stuck = small_instance_coloring(runtime, coloring, components, op=op + "_finish")
    return {
        "post_shattering_uncolored": len(remaining),
        "num_components": len(components),
        "max_component": max((len(c) for c in components), default=0),
        "stuck": stuck,
    }
