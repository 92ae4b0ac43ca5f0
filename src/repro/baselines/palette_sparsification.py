"""Palette-sparsification baseline in the style of [FGH+24].

The prior state of the art for coloring cluster graphs: a Distributed
Palette Sparsification Theorem lets every vertex sample ``O(log^2 n)``
colors up front and find a proper coloring inside the sampled lists, in
``O(log^2 n)`` rounds with ``O(log n)``-bit messages (to ``O(log^4 n)``
neighbors per round).  [FGH+24] also proves algorithms of this type cannot
beat ``Ω(log n / loglog n)`` rounds -- the barrier Theorem 1.2's
aggregation-based approach bypasses.

Shape reproduced here: sampled lists of ``list_coeff * log^2 n`` colors,
random trials restricted to the list (list membership is local, so no
palette bitmaps cross links; each round costs ``O(1)`` H-rounds of
``O(log n)``-bit messages).  Vertices whose list is exhausted fall back and
are counted -- the theorem says w.h.p. none do.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.baselines.luby import BaselineResult
from repro.coloring.try_color import BatchSampler, greedy_finish, try_color_round
from repro.coloring.types import PartialColoring, UNCOLORED
from repro.graphcore import batch_used_color_masks, draw_free_colors
from repro.params import AlgorithmParameters, scaled


def sparsified_lists(
    rng: np.random.Generator, n_vertices: int, num_colors: int, list_size: int
) -> np.ndarray:
    """Sample each vertex's ``O(log^2 n)`` color list (the theorem's only
    random object): row ``v`` of the returned ``(n_vertices, size)`` array."""
    size = min(list_size, num_colors)
    lists = np.empty((n_vertices, size), dtype=np.int64)
    for v in range(n_vertices):
        lists[v] = rng.choice(num_colors, size=size, replace=False)
    return lists


def palette_sparsification_coloring(
    graph,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    list_coeff: float = 4.0,
    max_rounds: int | None = None,
) -> BaselineResult:
    """Run the [FGH+24]-shape baseline to completion."""
    params = params or scaled()
    rng = np.random.default_rng(seed)
    runtime = ClusterRuntime(graph=graph, params=params, rng=rng)
    num_colors = graph.max_degree + 1
    coloring = PartialColoring.empty(graph.n_vertices, num_colors)

    log_n = max(2.0, np.log2(max(runtime.n, 4)))
    list_size = max(8, int(np.ceil(list_coeff * log_n * log_n)))
    lists = sparsified_lists(rng, graph.n_vertices, num_colors, list_size)
    runtime.h_rounds("ps_list_announce", count=2, bits=runtime.id_bits)

    if max_rounds is None:
        max_rounds = int(np.ceil(log_n * log_n)) + 16

    def draw(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # sample within each list, skipping colors known-taken by neighbors;
        # a vertex whose list is all taken proposes nothing
        used = batch_used_color_masks(
            graph.csr, coloring.colors, vertices, num_colors
        )
        rows = lists[vertices]
        can, picks = draw_free_colors(np.take_along_axis(used, rows, axis=1), rng)
        return vertices[can], rows[can][np.arange(picks.size), picks]

    sampler = BatchSampler(draw)

    remaining = np.arange(graph.n_vertices, dtype=np.int64)
    for _ in range(max_rounds):
        if remaining.size == 0:
            break
        try_color_round(runtime, coloring, remaining, sampler, op="ps_trial")
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    fallback = int(remaining.size)
    if fallback:
        greedy_finish(runtime, coloring, remaining.tolist(), op="ps_greedy")
    return BaselineResult.of(
        "palette_sparsification", graph, runtime, coloring, fallback
    )
