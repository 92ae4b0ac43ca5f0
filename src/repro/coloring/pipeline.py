"""The end-to-end (Δ+1)-coloring pipeline (Algorithm 3, Theorems 1.1/1.2).

Regime dispatch mirrors the paper: when ``Δ ≥ Δ_low`` the high-degree
``O(log* n)``-round machinery of Section 4 runs; otherwise the shattering
path of Section 9.  Every stage checks its postcondition; a miss triggers
the fallback ladder (retry, then per-component random-trial completion,
then sequential greedy), all recorded in the returned stats so degradation
is visible, never silent (docs/ARCHITECTURE.md, D3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.cabal import color_cabals
from repro.coloring.errors import StageFailure
from repro.coloring.low_degree import color_low_degree
from repro.coloring.multicolor_trial import multicolor_trial
from repro.coloring.noncabal import color_noncabals
from repro.coloring.slack import slack_generation
from repro.coloring.stats import ColoringResult, ColoringStats
from repro.coloring.try_color import (
    greedy_finish,
    palette_sampler,
    try_color_round,
    try_color_until,
    uniform_range_sampler,
)
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.decomposition.acd import compute_acd
from repro.decomposition.cabals import annotate_with_cabals
from repro.params import AlgorithmParameters, scaled
from repro.verify.checker import invariant_problem, is_proper


def fallback_color(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    stats: ColoringStats,
    stage: str,
) -> None:
    """The always-correct completion ladder for ``vertices``.

    Palette discovery on a cluster graph is *not* free (Figure 2): each
    round charges a pipelined ``Δ+1``-bit palette bitmap before sampling
    from the exact palette.  Ends with sequential greedy, which cannot fail
    with a ``Δ+1`` palette.
    """
    remaining = np.asarray(vertices, dtype=np.int64)
    remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    if remaining.size == 0:
        return
    stats.record_fallback(stage, remaining.size)
    sampler = palette_sampler(runtime, coloring)
    budget = 2 * int(math.ceil(math.log2(max(runtime.n, 4)))) + 8
    for _ in range(budget):
        if remaining.size == 0:
            break
        runtime.wide_message(stage + "_fallback_palette", coloring.num_colors)
        try_color_round(runtime, coloring, remaining, sampler, op=stage + "_fallback")
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    if remaining.size:
        greedy_finish(runtime, coloring, remaining.tolist(), op=stage + "_greedy")


def _color_sparse(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    sparse: list[int],
    stats: ColoringStats,
) -> None:
    """ColoringSparse: ``O(1)`` TryColor rounds then MultiColorTrial with
    the full color space (sparse vertices have ``Ω(Δ)`` slack from slack
    generation and/or degree slack)."""
    if not sparse:
        return
    sampler = uniform_range_sampler(runtime, coloring.num_colors, 0)
    leftover = try_color_until(
        runtime, coloring, sparse, sampler, max_rounds=8, op="sparse_trycolor"
    )
    if leftover:
        space = list(range(coloring.num_colors))
        try:
            multicolor_trial(
                runtime, coloring, leftover, lambda _v, s=space: s, op="sparse_mct"
            )
        except StageFailure as failure:
            fallback_color(runtime, coloring, failure.affected, stats, "sparse")


def color_cluster_graph(
    graph,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    regime: str = "auto",
    verify: bool = True,
    tracer=None,
    netmodel=None,
) -> ColoringResult:
    """(Δ+1)-color a cluster (or virtual) graph.

    Parameters
    ----------
    graph:
        A :class:`~repro.cluster.cluster_graph.ClusterGraph` or
        :class:`~repro.cluster.virtual_graph.VirtualGraph`.
    params:
        Constants preset (default: :func:`repro.params.scaled`).
    seed / rng:
        Randomness (``rng`` wins if both given).
    regime:
        ``"auto"`` (threshold on ``Δ_low``), ``"high_degree"``, or
        ``"low_degree"``.
    verify:
        Check the result before returning (ground-truth validation):
        ``proper`` holds when no edge is monochromatic, every vertex has a
        color of the ``Δ+1`` palette and no message exceeded the link
        budget.  A miss is reported as ``proper=False``, not raised.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer`.  Each pipeline
        stage runs inside a top-level span (named exactly like its
        ``stats.stage_rounds`` key), so the spans partition the run: their
        wall/round/bit sums reproduce the ledger totals.  Tracing never
        touches the RNG or the ledger -- traced runs are bitwise-identical
        to untraced ones.
    netmodel:
        Optional :class:`~repro.network.hetnet.HetNetModel`: converts the
        ledger's round charges into a simulated-clock makespan
        (``ledger_summary["makespan_ms"]``).  Bitwise-invisible to the
        coloring, counters, and RNG stream -- same contract as ``tracer``.

    Returns a :class:`~repro.coloring.stats.ColoringResult`.
    """
    params = params or scaled()
    rng = rng if rng is not None else np.random.default_rng(seed)
    runtime = ClusterRuntime(
        graph=graph, params=params, rng=rng, tracer=tracer, netmodel=netmodel
    )
    ledger = runtime.ledger
    stats = ColoringStats()
    num_colors = graph.max_degree + 1
    coloring = PartialColoring.empty(graph.n_vertices, num_colors)

    if regime == "auto":
        delta = graph.max_degree
        if delta >= params.delta_low(runtime.n):
            regime = "high_degree"
        elif delta > 3 * math.log2(max(runtime.n, 4)):
            regime = "polylog"
        else:
            regime = "low_degree"
    stats.regime = regime

    if regime == "polylog":
        from repro.coloring.polylog import color_polylog

        with stats.stage(runtime, "polylog"):
            color_polylog(runtime, coloring, stats)
    elif regime == "low_degree":
        with stats.stage(runtime, "low_degree") as span:
            shatter_info = color_low_degree(runtime, coloring)
            span.counter(
                "post_shattering_uncolored",
                shatter_info["post_shattering_uncolored"],
            )
            span.counter("components", shatter_info["num_components"])
            if shatter_info["stuck"]:
                fallback_color(
                    runtime, coloring, shatter_info["stuck"], stats, "low_degree"
                )
        stats.notes.append(
            f"shattering left {shatter_info['post_shattering_uncolored']} vertices "
            f"in {shatter_info['num_components']} components "
            f"(max {shatter_info['max_component']})"
        )
    else:
        # ---- Algorithm 3 ----------------------------------------------------
        with stats.stage(runtime, "acd") as span:
            acd = annotate_with_cabals(runtime, compute_acd(runtime))
            span.counter("cliques", acd.num_cliques)
            span.counter("sparse_vertices", len(acd.sparse))
            span.counter("repaired_components", acd.repaired_components)
        if acd.repaired_components:
            stats.notes.append(f"ACD repaired {acd.repaired_components} components")

        non_cabal_vertices = [
            v
            for v in range(graph.n_vertices)
            if not acd.is_cabal_vertex(v)
        ]
        with stats.stage(runtime, "slack_generation") as span:
            span.counter("vertices", len(non_cabal_vertices))
            slack_generation(runtime, coloring, non_cabal_vertices)

        with stats.stage(runtime, "sparse") as span:
            span.counter("vertices", len(acd.sparse))
            _color_sparse(runtime, coloring, acd.sparse, stats)

        with stats.stage(runtime, "noncabals"):
            try:
                color_noncabals(runtime, coloring, acd)
            except StageFailure as failure:
                fallback_color(runtime, coloring, failure.affected, stats, "noncabals")

        with stats.stage(runtime, "cabals"):
            try:
                color_cabals(runtime, coloring, acd, stats=stats)
            except StageFailure as failure:
                fallback_color(runtime, coloring, failure.affected, stats, "cabals")

    # ---- safety net: nothing may remain uncolored -----------------------------
    leftover = coloring.uncolored_vertices()
    if leftover:
        with stats.stage(runtime, "pipeline_fallback") as span:
            span.counter("vertices", len(leftover))
            fallback_color(runtime, coloring, leftover, stats, "pipeline")

    proper = not verify or (
        is_proper(graph, coloring.colors)
        and invariant_problem(coloring.colors, num_colors, ledger) is None
    )
    return ColoringResult(
        colors=coloring.colors,
        num_colors=num_colors,
        stats=stats,
        ledger_summary=ledger.summary(),
        proper=proper,
        seed=seed,
        params_name=params.name,
    )
