"""LOCAL-model information-gathering baseline.

In LOCAL, a vertex can collect its entire neighborhood's state each round
for free; the natural baseline is priority greedy: every round, vertices
that are local minima (by one-shot random priority) among uncolored
neighbors pick their smallest free color.  Rounds are ``O(log n)`` w.h.p.
on bounded-degree graphs.

On a cluster graph the same algorithm must ship palette bitmaps, charged
pipelined -- making visible, in Experiment E13, the gap between "free
locality" and ``O(log n)``-bit reality that motivates the paper.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.baselines.luby import BaselineResult
from repro.coloring.types import PartialColoring, UNCOLORED
from repro.params import AlgorithmParameters, scaled


def local_gather_coloring(
    graph,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    charge_palettes: bool = True,
    max_rounds: int | None = None,
) -> BaselineResult:
    """Random-priority local-minima greedy, to completion."""
    params = params or scaled()
    rng = np.random.default_rng(seed)
    runtime = ClusterRuntime(graph=graph, params=params, rng=rng)
    num_colors = graph.max_degree + 1
    coloring = PartialColoring.empty(graph.n_vertices, num_colors)
    priority = rng.permutation(graph.n_vertices)
    if max_rounds is None:
        max_rounds = graph.n_vertices + 1

    pending = set(range(graph.n_vertices))
    rounds = 0
    while pending and rounds < max_rounds:
        rounds += 1
        chosen: list[tuple[int, int]] = []
        for v in pending:
            if any(
                u in pending and priority[u] < priority[v]
                for u in graph.neighbors(v)
            ):
                continue
            used = set(
                int(c)
                for c in coloring.neighbor_colors(graph, v)
                if c != UNCOLORED
            )
            free = next((c for c in range(num_colors) if c not in used), None)
            if free is not None:
                chosen.append((v, free))
        for v, c in chosen:
            coloring.assign(v, c)
            pending.discard(v)
        if charge_palettes:
            runtime.wide_message("local_gather_palette", num_colors)
        runtime.h_rounds("local_gather", count=1, bits=runtime.color_bits)
    return BaselineResult.of("local_gather", graph, runtime, coloring)
