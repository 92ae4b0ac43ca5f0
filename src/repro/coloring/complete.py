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
from typing import Iterator

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.clique_palette import palette_view
from repro.coloring.errors import StageFailure
from repro.coloring.multicolor_trial import multicolor_trial
from repro.coloring.try_color import resolve_proposals
from repro.coloring.types import PartialColoring, UNCOLORED
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphcore import gather_neighborhoods, row_blocks
from repro.sketch.fingerprint import count_estimate, direct_count_fingerprint

PHASE_ONE_ITERATIONS = 3


@dataclass
class CliqueFinishPlan:
    """One non-cabal's inputs to Algorithm 11."""

    clique_index: int
    inliers: list[int]
    matching_size: int


def _z_tilde(
    delta: int,
    r_v: int,
    clique_size: int,
    in_clique: int,
    est_external: float,
    gamma: float,
    e_avg: float,
    matching_size: int,
    e_tilde_v: float,
) -> float:
    """Equation (14)'s ``z̃_v`` from its parts, in the one float association
    (left to right) both :func:`z_proxy` and Phase I evaluate."""
    x_v = clique_size - (delta + 1) + e_tilde_v
    return (
        (delta + 1 - r_v)
        - in_clique
        - est_external
        + gamma * e_avg
        + matching_size / 2.0
        + x_v
    )


def z_proxy(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    acd: AlmostCliqueDecomposition,
    plan: CliqueFinishPlan,
    v: int,
    gamma: float,
) -> float:
    """Compute ``z̃_v`` (Equation (14) with ``40 a_K`` replaced by its
    algorithm-visible surrogate ``M_K/2``, exactly as the Phase I gate uses
    it).  The in-clique count is exact (one tree aggregation shared by the
    whole clique) while the external count carries fingerprint noise
    (Claim 8.3).

    The per-vertex scalar reference: Phase I computes the same value, with
    the same draws, from blocked CSR gathers per iteration.
    """
    graph = runtime.graph
    idx = plan.clique_index
    members = acd.cliques[idx]
    member_set = set(members)
    r_v = acd.reserved[idx]
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
    return _z_tilde(
        graph.max_degree,
        r_v,
        len(members),
        in_clique,
        est_external,
        gamma,
        acd.e_tilde_clique[idx],
        plan.matching_size,
        acd.e_tilde[v],
    )


def _phase_one_z(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    acd: AlmostCliqueDecomposition,
    plans: list[CliqueFinishPlan],
    gamma: float,
) -> Iterator[tuple[CliqueFinishPlan, int, float]]:
    """Yield ``(plan, v, z̃_v)`` for every uncolored inlier of ``plans``, in
    plan and inlier order: :func:`z_proxy`'s values and draws, bit for bit.

    The coloring must stay frozen while the generator runs, as it does in
    a Phase I iteration (adoption waits for ``resolve_proposals``).  So the
    in-clique counts and every inlier's external count (neighbors outside
    its clique colored ``>= r_v``) come from blocked CSR gathers up front.
    Only the fingerprint draw stays per vertex, and it happens when the
    generator advances to that vertex: a consumer that draws between items
    (Phase I's palette rank) keeps the scalar loop's RNG stream.
    """
    graph = runtime.graph
    colors = coloring.colors
    delta = graph.max_degree
    trials = runtime.params.fingerprint_trials(runtime.n, 0.25)
    waiting = []
    for plan in plans:
        inliers = np.asarray(plan.inliers, dtype=np.int64)
        waiting.append(inliers[colors[inliers] == UNCOLORED])
    sizes = [vertices.size for vertices in waiting]
    owner = np.repeat(
        np.array([plan.clique_index for plan in plans], dtype=np.int64), sizes
    )
    floor = np.repeat(
        np.array([acd.reserved[plan.clique_index] for plan in plans], dtype=np.int64),
        sizes,
    )
    pending = np.concatenate([np.zeros(0, dtype=np.int64), *waiting])
    counts = np.zeros(pending.size, dtype=np.int64)
    for start, stop in row_blocks(graph.csr, pending):
        seg_ids, flat = gather_neighborhoods(graph.csr, pending[start:stop])
        outside = (acd.clique_of[flat] != owner[start:stop][seg_ids]) & (
            colors[flat] >= floor[start:stop][seg_ids]
        )
        counts[start:stop] = np.bincount(seg_ids[outside], minlength=stop - start)
    external = iter(counts.tolist())
    for plan, vertices in zip(plans, waiting):
        idx = plan.clique_index
        members = acd.cliques[idx]
        r_v = acd.reserved[idx]
        in_clique = int((colors[members] >= r_v).sum())
        for v in vertices.tolist():
            est_external = count_estimate(runtime.rng, next(external), trials)
            yield plan, v, _z_tilde(
                delta,
                r_v,
                len(members),
                in_clique,
                est_external,
                gamma,
                acd.e_tilde_clique[idx],
                plan.matching_size,
                acd.e_tilde[v],
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

    # ---- Phase I: non-reserved clique-palette trials, gated by z~_v -------
    for _ in range(PHASE_ONE_ITERATIONS):
        views = {
            plan.clique_index: palette_view(
                runtime, coloring, acd.cliques[plan.clique_index], op=op + "_palette"
            )
            for plan in plans
        }
        free = {
            idx: view.free_above(acd.reserved[idx]) for idx, view in views.items()
        }
        gated = [plan for plan in plans if free[plan.clique_index].size]
        proposers: list[int] = []
        proposed: list[int] = []
        for plan, v, z in _phase_one_z(runtime, coloring, acd, gated, gamma):
            idx = plan.clique_index
            if z >= 0.25 * gamma * max(acd.e_tilde_clique[idx], 1.0):
                proposers.append(v)
                rank = int(runtime.rng.integers(0, free[idx].size))
                proposed.append(int(free[idx][rank]))
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
