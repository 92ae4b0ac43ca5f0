"""Finishing non-cabals: Preparing MultiColorTrial (Section 8, Algorithm 11).

After the synchronized color trial, uncolored inliers must be funneled into
MultiColorTrial on the *reserved* colors ``[r_K]``.  The obstruction: a
vertex cannot tell whether it has slack among reserved colors.  Section 8's
device is the computable proxy ``z_v`` (Equation (14)),

    z_v = (Δ+1-r_v) - #(K colored > r_v) - #(E_v colored > r_v)
          + γ e_K + 40 a_K + x_v,

which *lower-bounds* the non-reserved palette (Lemma 8.1) while ``-z_v``
bounds the reserved palette from below (Lemma 8.2).  Vertices with large
``z̃_v`` keep trying non-reserved clique-palette colors (Phase I); everyone
left finishes with MCT on the untouched reserved prefix (Phase II).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.clique_palette import palette_view
from repro.coloring.errors import StageFailure
from repro.coloring.multicolor_trial import multicolor_trial
from repro.coloring.try_color import resolve_proposals
from repro.coloring.types import PartialColoring, UNCOLORED
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.sketch.fingerprint import direct_count_fingerprint

PHASE_ONE_ITERATIONS = 3


@dataclass
class CliqueFinishPlan:
    """One non-cabal's inputs to Algorithm 11."""

    clique_index: int
    inliers: list[int]
    matching_size: int


def z_proxy(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    acd: AlmostCliqueDecomposition,
    plan: CliqueFinishPlan,
    v: int,
    gamma: float,
    in_clique: int | None = None,
) -> float:
    """Compute ``z̃_v`` (Equation (14) with ``40 a_K`` replaced by its
    algorithm-visible surrogate ``M_K/2``, exactly as the Phase I gate uses
    it).  The in-clique count is exact (one tree aggregation shared by the
    whole clique; pass it via ``in_clique`` to avoid recomputation) while
    the external count carries fingerprint noise (Claim 8.3).
    """
    graph = runtime.graph
    idx = plan.clique_index
    members = acd.cliques[idx]
    member_set = set(members)
    r_v = acd.reserved[idx]
    delta = graph.max_degree
    if in_clique is None:
        in_clique = sum(
            1
            for u in members
            if coloring.get(u) != UNCOLORED and coloring.get(u) >= r_v
        )
    true_external = sum(
        1
        for u in graph.neighbors(v)
        if u not in member_set
        and coloring.get(u) != UNCOLORED
        and coloring.get(u) >= r_v
    )
    trials = runtime.params.fingerprint_trials(runtime.n, 0.25)
    est_external = direct_count_fingerprint(
        runtime.rng, true_external, trials
    ).estimate()
    e_avg = acd.e_tilde_clique[idx]
    x_v = len(members) - (delta + 1) + acd.e_tilde[v]
    return (
        (delta + 1 - r_v)
        - in_clique
        - est_external
        + gamma * e_avg
        + plan.matching_size / 2.0
        + x_v
    )


def complete_noncabals(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    acd: AlmostCliqueDecomposition,
    plans: list[CliqueFinishPlan],
    *,
    gamma: float | None = None,
    op: str = "complete",
) -> None:
    """Algorithm 11 over all planned cliques.

    Raises :class:`StageFailure` (with the affected vertices) if Phase II's
    MultiColorTrial cannot finish -- the caller falls back.
    """
    params = runtime.params
    if gamma is None:
        gamma = params.mct_slack_coeff
    graph = runtime.graph

    # ---- Phase I: non-reserved clique-palette trials, gated by z~_v -------
    for _ in range(PHASE_ONE_ITERATIONS):
        views = {
            plan.clique_index: palette_view(
                runtime, coloring, acd.cliques[plan.clique_index], op=op + "_palette"
            )
            for plan in plans
        }
        proposers: list[int] = []
        proposed: list[int] = []
        for plan in plans:
            idx = plan.clique_index
            r_v = acd.reserved[idx]
            free = views[idx].free_above(r_v)
            if free.size == 0:
                continue
            e_avg = acd.e_tilde_clique[idx]
            threshold = 0.25 * gamma * max(e_avg, 1.0)
            members = acd.cliques[idx]
            in_clique = sum(
                1
                for u in members
                if coloring.get(u) != UNCOLORED and coloring.get(u) >= r_v
            )
            # z_proxy draws a count fingerprint for each vertex between the
            # palette draws, so this loop stays scalar to keep the RNG stream
            for v in plan.inliers:
                if coloring.is_colored(v):
                    continue
                z = z_proxy(runtime, coloring, acd, plan, v, gamma, in_clique)
                if z >= threshold:
                    proposers.append(v)
                    rank = int(runtime.rng.integers(0, free.size))
                    proposed.append(int(free[rank]))
        runtime.wide_message(
            op + "_z", 2 * params.fingerprint_trials(runtime.n, 0.25) + 16
        )
        if proposers:
            resolve_proposals(
                runtime,
                coloring,
                np.asarray(proposers, dtype=np.int64),
                np.asarray(proposed, dtype=np.int64),
                op=op + "_phase1",
            )

    # ---- Phase II: MultiColorTrial on the untouched reserved prefix -------
    leftover_all: list[int] = []
    for plan in plans:
        idx = plan.clique_index
        r_v = acd.reserved[idx]
        remaining = coloring.uncolored_vertices(plan.inliers)
        if not remaining:
            continue
        reserved_list = list(range(r_v))
        leftover = multicolor_trial(
            runtime,
            coloring,
            remaining,
            lambda _v, colors=reserved_list: colors,
            gamma=gamma,
            op=op + "_mct_reserved",
            raise_on_leftover=False,
        )
        leftover_all.extend(leftover)
    if leftover_all:
        raise StageFailure(
            op, f"{len(leftover_all)} inliers uncolored after Phase II", leftover_all
        )
