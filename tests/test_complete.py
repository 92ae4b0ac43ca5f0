"""Section 8: the z_v proxy (Eq. 14) and the Complete stage (Algorithm 11)."""

import numpy as np
import pytest

from repro.coloring.complete import (
    CliqueFinishPlan,
    _phase_one_z,
    complete_noncabals,
    z_proxy,
)
from repro.coloring.noncabal import color_noncabals
from repro.coloring.slack import reserved_zone, slack_generation
from repro.coloring.types import PartialColoring
from repro.decomposition import annotate_with_cabals, compute_acd
from repro.verify import is_proper
from repro.workloads import planted_acd_instance
from tests.conftest import anti_degree, external_degree, make_runtime


def _noncabal_setup(seed=0):
    # high external degree => cliques are NOT cabals
    w = planted_acd_instance(
        np.random.default_rng(seed), external_degree=12, n_sparse=120
    )
    runtime = make_runtime(w.graph, seed + 30)
    acd = annotate_with_cabals(runtime, compute_acd(runtime))
    assert acd.num_cliques > 0 and not any(acd.cabal_flags)
    coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
    return w, runtime, acd, coloring


class TestZProxy:
    def test_tracks_palette_lower_bound(self):
        """Lemma 8.1's direction: z_v should not exceed the true number of
        available non-reserved clique-palette colors by more than the slack
        terms it bakes in (gamma*e_K + M/2 + estimation noise)."""
        w, runtime, acd, coloring = _noncabal_setup(seed=1)
        # color some of the graph so counts are non-trivial
        slack_generation(runtime, coloring, list(range(coloring.n_vertices)))
        gamma = runtime.params.mct_slack_coeff
        g = w.graph
        for idx in range(acd.num_cliques):
            members = acd.cliques[idx]
            plan = CliqueFinishPlan(
                clique_index=idx, inliers=members, matching_size=0
            )
            r_v = acd.reserved[idx]
            member_set = set(members)
            for v in members[:8]:
                z = z_proxy(runtime, coloring, acd, plan, v, gamma)
                palette = coloring.palette_array(g, v).tolist()
                used_in_k = {
                    coloring.get(u) for u in members if coloring.is_colored(u)
                }
                avail = len(
                    [c for c in palette if c >= r_v and c not in used_in_k]
                )
                slack_terms = (
                    gamma * acd.e_tilde_clique[idx]
                    + abs(
                        acd.e_tilde[v]
                        - external_degree(acd, g, v)
                    )
                    + 0.3 * max(external_degree(acd, g, v), 4)  # sketch noise
                    + anti_degree(acd, g, v)
                    + (g.max_degree - g.degree(v))
                )
                assert z <= avail + slack_terms + 2

    def test_decreases_as_palette_shrinks(self):
        w, runtime, acd, coloring = _noncabal_setup(seed=2)
        idx = 0
        members = acd.cliques[idx]
        plan = CliqueFinishPlan(clique_index=idx, inliers=members, matching_size=0)
        gamma = runtime.params.mct_slack_coeff
        v = members[0]
        z_before = z_proxy(runtime, coloring, acd, plan, v, gamma)
        # color half the clique with distinct non-reserved colors
        r_v = acd.reserved[idx]
        for i, u in enumerate(members[1 : len(members) // 2]):
            coloring.assign(u, r_v + i)
        z_after = z_proxy(runtime, coloring, acd, plan, v, gamma)
        assert z_after < z_before


class TestPhaseOneBatch:
    """Phase I's batched z̃ (one CSR gather per iteration, per-vertex draws)
    against the scalar :func:`z_proxy` reference."""

    def test_batched_z_equals_z_proxy_on_a_frozen_coloring(self):
        w, runtime, acd, coloring = _noncabal_setup(seed=5)
        g = w.graph
        slack_generation(runtime, coloring, list(range(coloring.n_vertices)))
        # an inlier none of whose outside neighbors is colored: it has
        # true_external = 0, so its fingerprint draws nothing
        v0 = acd.cliques[0][0]
        quiet = {v0} | {u for u in g.neighbors(v0) if acd.clique_of[u] != 0}
        for u in quiet:
            coloring.uncolor(u)
        # reserved colors held inside and outside the cliques, which z~
        # must not count (except where r_v = 0)
        for u in range(0, coloring.n_vertices, 4):
            if u not in quiet:
                coloring.uncolor(u)
                coloring.assign(u, 0)
        acd.reserved[-1] = 0  # a clique whose every color counts
        plans = [
            CliqueFinishPlan(clique_index=i, inliers=m, matching_size=i)
            for i, m in enumerate(acd.cliques)
        ]
        gamma = runtime.params.mct_slack_coeff
        external = {
            v: sum(
                1
                for u in g.neighbors(v)
                if acd.clique_of[u] != plan.clique_index
                and coloring.get(u) >= acd.reserved[plan.clique_index]
            )
            for plan in plans
            for v in plan.inliers
        }
        assert external[v0] == 0 and max(external.values()) > 0
        rng = runtime.rng
        start = rng.bit_generator.state

        batched, states = [], []
        for plan, v, z in _phase_one_z(runtime, coloring, acd, plans, gamma):
            batched.append((plan.clique_index, v, z))
            states.append(rng.bit_generator.state)
        assert batched[0][1] == v0 and states[0] == start  # d = 0 drew nothing
        batched_end = rng.bit_generator.state

        rng.bit_generator.state = start
        scalar = [
            (plan.clique_index, v, z_proxy(runtime, coloring, acd, plan, v, gamma))
            for plan in plans
            for v in plan.inliers
            if not coloring.is_colored(v)
        ]
        assert len(scalar) > len(plans)
        assert batched == scalar  # z compared with ==: bit for bit
        assert rng.bit_generator.state == batched_end


class TestCompleteStage:
    def test_finishes_inliers(self):
        w, runtime, acd, coloring = _noncabal_setup(seed=3)
        slack_generation(runtime, coloring, list(range(coloring.n_vertices)))
        plans = [
            CliqueFinishPlan(clique_index=i, inliers=m, matching_size=0)
            for i, m in enumerate(acd.cliques)
        ]
        complete_noncabals(runtime, coloring, acd, plans)
        for members in acd.cliques:
            assert all(coloring.is_colored(v) for v in members)
        assert is_proper(w.graph, coloring.colors, allow_partial=True)


class TestNonCabalStage:
    def test_algorithm_4_end_to_end(self):
        w, runtime, acd, coloring = _noncabal_setup(seed=4)
        slack_generation(runtime, coloring, list(range(coloring.n_vertices)))
        color_noncabals(runtime, coloring, acd)
        for members in acd.cliques:
            assert all(coloring.is_colored(v) for v in members)
        assert is_proper(w.graph, coloring.colors, allow_partial=True)

    def test_reserved_zone_arithmetic(self):
        params = make_runtime(
            planted_acd_instance(np.random.default_rng(0)).graph
        ).params
        assert reserved_zone(params, 100) == int(
            params.reserved_cap_mult * params.eps * 100
        )
