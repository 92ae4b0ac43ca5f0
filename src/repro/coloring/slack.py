"""SlackGeneration (Algorithm 18 / Proposition 4.5).

One synchronized random color trial outside the cabals: each vertex of
``V \\ V_cabal`` activates with probability ``p_g`` and tries a uniform
color from ``[Δ+1] \\ [reserved-zone]``; a vertex keeps its color iff no
neighbor tried the same one (the symmetric rule -- slack generation wants
same-colored *pairs* in neighborhoods, so it never breaks ties).

Effects (Proposition 4.5): sparse vertices get ``Ω(Δ)`` slack; dense
vertices get ``Ω(e_v)`` *reuse* slack; only a small fraction of each clique
is colored.  Slack generation is brittle -- it must run before anything else
colors vertices -- which is why the pipeline calls it exactly once, right
after the ACD.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import PartialColoring
from repro.coloring.try_color import resolve_proposals


def reserved_zone(params, delta: int) -> int:
    """Size of the globally excluded color prefix ``[300 eps Δ]`` (the
    union of every possible reserved set; Equation (2)'s cap).
    """
    return int(params.reserved_cap_mult * params.eps * delta)


def slack_generation(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    eligible: list[int],
    *,
    op: str = "slack_generation",
) -> np.ndarray:
    """Run Algorithm 18 over ``eligible`` (callers pass ``V \\ V_cabal``).

    Returns the vertices it colored (int64 array).  Postconditions
    (Proposition 4.5) are statistical; the per-clique "at most 1/100
    colored" property holds in expectation with the paper's ``p_g`` and
    proportionally with the scaled preset's (documented in
    :mod:`repro.params`).
    """
    params = runtime.params
    graph = runtime.graph
    floor = reserved_zone(params, graph.max_degree)
    num_colors = coloring.num_colors
    if floor >= num_colors:
        floor = max(0, num_colors - 1)
    # the activation coin and the color draw interleave per vertex, so
    # this loop stays scalar to keep the RNG stream
    proposers: list[int] = []
    proposed: list[int] = []
    for v in eligible:
        if coloring.is_colored(v):
            continue
        if runtime.rng.random() < params.slack_activation:
            proposers.append(v)
            proposed.append(int(runtime.rng.integers(floor, num_colors)))
    return resolve_proposals(
        runtime,
        coloring,
        np.asarray(proposers, dtype=np.int64),
        np.asarray(proposed, dtype=np.int64),
        op=op,
        symmetric=True,
    )
