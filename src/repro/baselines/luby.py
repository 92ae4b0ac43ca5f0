"""Johansson/Luby-style random color trials -- the classic ``O(log n)``
baseline ([Joh99, Lub86], the complexity the Ω(log n / loglog n) lower
bound of [FGH+24] nearly matches for palette-limited algorithms).

Each round, every uncolored vertex tries a uniform color from its current
palette; conflicts resolve by smaller-ID priority.  On a *cluster graph*
the palette is not free information: each round must move a ``Δ+1``-bit
palette bitmap through the support trees, charged pipelined.  The
``congest_free_palettes`` flag removes that charge, modeling classic
CONGEST where ``H = G`` and palettes are maintained locally -- the two
variants bracket the baseline fairly in Experiment E13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.try_color import greedy_finish, palette_sampler, try_color_round
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.params import AlgorithmParameters, scaled
from repro.verify.checker import invariant_problem, is_proper


@dataclass
class BaselineResult:
    """Outcome of one baseline run (mirrors the pipeline's headline
    counters so Experiment E13 can tabulate them side by side)."""

    name: str
    colors: np.ndarray
    rounds_h: int
    rounds_g: int
    total_message_bits: int
    proper: bool
    fallback_vertices: int = 0

    @classmethod
    def of(
        cls,
        name: str,
        graph,
        runtime: ClusterRuntime,
        coloring: PartialColoring,
        fallback_vertices: int = 0,
    ) -> "BaselineResult":
        """The result of a finished run, checked like the pipeline's:
        ``proper`` holds when no edge is monochromatic, every vertex has a
        color of the palette and no message exceeded the link budget."""
        ledger = runtime.ledger
        return cls(
            name=name,
            colors=coloring.colors,
            rounds_h=ledger.rounds_h,
            rounds_g=ledger.rounds_g,
            total_message_bits=ledger.total_message_bits,
            proper=is_proper(graph, coloring.colors)
            and invariant_problem(coloring.colors, coloring.num_colors, ledger)
            is None,
            fallback_vertices=fallback_vertices,
        )


def luby_coloring(
    graph,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    congest_free_palettes: bool = False,
    max_rounds: int | None = None,
) -> BaselineResult:
    """Run the random-trials baseline to completion."""
    params = params or scaled()
    rng = np.random.default_rng(seed)
    runtime = ClusterRuntime(graph=graph, params=params, rng=rng)
    coloring = PartialColoring.empty(graph.n_vertices, graph.max_degree + 1)
    if max_rounds is None:
        max_rounds = 8 * int(np.ceil(np.log2(max(runtime.n, 4)))) + 16
    sampler = palette_sampler(runtime, coloring)
    remaining = np.arange(graph.n_vertices, dtype=np.int64)
    for _ in range(max_rounds):
        if remaining.size == 0:
            break
        if not congest_free_palettes:
            runtime.wide_message("luby_palette", coloring.num_colors)
        try_color_round(runtime, coloring, remaining, sampler, op="luby")
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    fallback = int(remaining.size)
    if fallback:
        greedy_finish(runtime, coloring, remaining.tolist(), op="luby_greedy")
    name = "luby_congest" if congest_free_palettes else "luby_cluster"
    return BaselineResult.of(name, graph, runtime, coloring, fallback)
