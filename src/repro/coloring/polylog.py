"""The poly-logarithmic regime (Section 9.2, Algorithms 13-15).

When ``log n ≲ Δ ≤ Δ_low`` the high-degree machinery is overkill (its
w.h.p. events need more headroom than Δ offers) but the structure of
Algorithm 3 still pays: compute the ACD, generate slack outside cabals,
then color **sparse → non-cabal dense → cabal dense**, each group by the
same three-step template (Algorithm 15):

1. *degree reduction* -- ``O(log log n)`` random color trials, sampling
   from the group's natural color space (full palette for sparse/outliers,
   the clique palette for inliers -- queried, never learned);
2. *shattering* -- exact-palette trials (palette bitmaps are affordable,
   ``Δ = poly log n``), leaving polylog-sized components;
3. *small-instance finishing* (the Lemma 9.1 stand-in).

Differences from the ``Δ ≥ Δ_low`` pipeline, as the paper prescribes:
cabals use the ``ℓ = Θ(log n)`` threshold, there are **no put-aside sets**
(slack comes from learning the small clique palette instead), and no
reserved colors.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.clique_palette import palette_view
from repro.coloring.colorful_matching import colorful_matching
from repro.coloring.low_degree import small_instance_coloring, uncolored_components
from repro.coloring.outliers import inliers_cabal, inliers_noncabal
from repro.coloring.slack import slack_generation
from repro.coloring.stats import ColoringStats
from repro.coloring.try_color import (
    BatchSampler,
    palette_sampler,
    try_color_round,
    uniform_range_sampler,
)
from repro.coloring.types import PartialColoring, UNCOLORED
from repro.decomposition.acd import AlmostCliqueDecomposition, compute_acd
from repro.decomposition.cabals import annotate_with_cabals


def _degree_reduction_rounds(runtime: ClusterRuntime) -> int:
    """``O(log log n)`` trial rounds (Algorithm 15 step 1)."""
    import math

    loglog = math.log2(max(2.0, math.log2(max(runtime.n, 4))))
    return max(3, int(math.ceil(2 * loglog)))


def _finish_group(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    sampler,
    *,
    op: str,
) -> None:
    """The Algorithm 15 template applied to one vertex group."""
    rounds = _degree_reduction_rounds(runtime)
    remaining = np.asarray(vertices, dtype=np.int64)
    remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    # Step 1: degree reduction with the group's color space.
    for _ in range(rounds):
        if remaining.size == 0:
            return
        try_color_round(runtime, coloring, remaining, sampler, op=op + "_reduce")
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    # Step 2: shattering with exact palettes (bitmaps are cheap here).
    exact = palette_sampler(runtime, coloring)
    for _ in range(rounds):
        if remaining.size == 0:
            return
        runtime.wide_message(op + "_palette", coloring.num_colors)
        try_color_round(runtime, coloring, remaining, exact, op=op + "_shatter")
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    # Step 3: finish the shattered components.
    components = uncolored_components(runtime.graph, coloring, remaining.tolist())
    small_instance_coloring(runtime, coloring, components, op=op + "_finish")


def _clique_palette_sampler(runtime, coloring, members) -> BatchSampler:
    """Sample uniformly from ``L_φ(K)`` via Lemma 4.8 queries -- the inlier
    color space of Algorithm 14 (never the full per-vertex palette).

    The distributed structure refreshes at most once per trial round (all
    samples of a round see the same snapshot); the cache keys on the
    colored count, which only moves between rounds.  A round then draws
    every sample with one ``rng.integers(0, |L_φ(K)|, size=k)`` call.
    """
    cache: dict = {"count": -1, "view": None}

    def draw(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if vertices.size == 0:
            return vertices, vertices
        count = coloring.colored_count()
        if count != cache["count"]:
            cache["count"] = count
            cache["view"] = palette_view(
                runtime, coloring, members, op="polylog_palette"
            )
        view = cache["view"]
        if view.size == 0:
            return vertices[:0], vertices[:0]
        return vertices, view.free[
            runtime.rng.integers(0, view.size, size=vertices.size)
        ]

    return BatchSampler(draw)


def color_polylog(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    stats: ColoringStats,
    *,
    op: str = "polylog",
) -> AlmostCliqueDecomposition:
    """Algorithm 13: the full poly-logarithmic-regime pipeline.

    Returns the decomposition (for stats/tests).  Any vertex left uncolored
    is the caller's fallback problem, as in the other regimes.
    """
    graph = runtime.graph

    with stats.stage(runtime, op + "_acd"):
        acd = annotate_with_cabals(runtime, compute_acd(runtime))

    with stats.stage(runtime, op + "_slack"):
        non_cabal = [v for v in range(graph.n_vertices) if not acd.is_cabal_vertex(v)]
        slack_generation(runtime, coloring, non_cabal, op=op + "_slack")

    # --- sparse vertices -----------------------------------------------------
    full = uniform_range_sampler(runtime, coloring.num_colors, 0)
    with stats.stage(runtime, op + "_sparse"):
        _finish_group(runtime, coloring, acd.sparse, full, op=op + "_sparse")

    # --- dense vertices: non-cabals first, then cabals (Algorithm 13) --------
    gamma = runtime.params.mct_slack_coeff
    for cabal_pass in (False, True):
        label = "_cabals" if cabal_pass else "_noncabals"
        with stats.stage(runtime, op + label):
            indices = acd.cabal_indices() if cabal_pass else acd.non_cabal_indices()
            if not indices:
                continue
            matching = colorful_matching(
                runtime,
                coloring,
                {idx: acd.cliques[idx] for idx in indices},
                reserved_floor=0,  # no reserved colors in this regime
                rounds=max(4, int(round(1.0 / runtime.params.eps))),
                op=op + label + "_matching",
            )
            for idx in indices:
                members = acd.cliques[idx]
                if cabal_pass:
                    inliers, outliers = inliers_cabal(acd, idx)
                else:
                    inliers, outliers = inliers_noncabal(
                        acd, graph, idx, matching[idx], gamma
                    )
                _finish_group(
                    runtime, coloring, outliers, full, op=op + label + "_outliers"
                )
                sampler = _clique_palette_sampler(runtime, coloring, members)
                _finish_group(
                    runtime, coloring, inliers, sampler, op=op + label + "_inliers"
                )
    return acd
