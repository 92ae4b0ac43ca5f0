"""Put-aside sets (Lemma 4.18) and Section 7's donor machinery."""

import numpy as np
import pytest

from repro.coloring.cabal import color_cabals
from repro.coloring.donors import (
    CabalPlan,
    color_put_aside_sets,
    find_candidate_donors,
    try_free_colors,
)
from repro.coloring.errors import StageFailure
from repro.coloring.clique_palette import palette_view
from repro.coloring.put_aside import compute_put_aside
from repro.coloring.types import PartialColoring
from repro.decomposition import annotate_with_cabals, compute_acd
from repro.verify import check_put_aside, is_proper
from repro.workloads import cabal_instance
from tests.conftest import is_total, make_runtime


def _setup(seed=0, **kw):
    w = cabal_instance(np.random.default_rng(seed), **kw)
    runtime = make_runtime(w.graph, seed + 60)
    acd = annotate_with_cabals(runtime, compute_acd(runtime))
    coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
    return w, runtime, acd, coloring


class TestComputePutAside:
    def test_properties_1_and_2(self):
        w, runtime, acd, coloring = _setup(seed=1)
        eligible = {i: list(m) for i, m in enumerate(acd.cliques)}
        r = 6
        result = compute_put_aside(runtime, coloring, eligible, r)
        assert check_put_aside(w.graph, result, r) == []

    def test_members_come_from_eligible_pool(self):
        w, runtime, acd, coloring = _setup(seed=2)
        eligible = {i: list(m[:30]) for i, m in enumerate(acd.cliques)}
        result = compute_put_aside(runtime, coloring, eligible, 4)
        for idx, chosen in result.items():
            assert set(chosen) <= set(eligible[idx])

    def test_colored_vertices_excluded(self):
        w, runtime, acd, coloring = _setup(seed=3)
        members = acd.cliques[0]
        coloring.assign(members[0], 0)
        result = compute_put_aside(
            runtime, coloring, {0: list(members)}, 4
        )
        assert members[0] not in result[0]

    def test_impossible_request_raises(self):
        w, runtime, acd, coloring = _setup(seed=4)
        with pytest.raises(StageFailure):
            compute_put_aside(
                runtime, coloring, {0: acd.cliques[0][:3]}, r=10
            )


def _color_all_but_put_aside(runtime, coloring, acd, r=5):
    """Drive each cabal to the Section 7 precondition: everything colored
    except a put-aside set of size r per cabal (using ground truth; this is
    test scaffolding, not the distributed path)."""
    graph = runtime.graph
    eligible = {i: list(m) for i, m in enumerate(acd.cliques)}
    put = compute_put_aside(runtime, coloring, eligible, r)
    from repro.coloring.try_color import greedy_finish

    keep = {v for vs in put.values() for v in vs}
    order = [v for v in range(graph.n_vertices) if v not in keep]
    greedy_finish(runtime, coloring, order)
    return put


class TestTryFreeColors:
    def test_rich_palette_path(self):
        w, runtime, acd, coloring = _setup(seed=5, clique_size=40)
        put = _color_all_but_put_aside(runtime, coloring, acd, r=4)
        for idx, members in enumerate(acd.cliques):
            view = palette_view(runtime, coloring, members)
            plan = CabalPlan(
                clique_index=idx,
                members=members,
                put_aside=put[idx],
                inliers=members,
            )
            # greedy packs colors low, so high colors are free: rich palette
            leftover = try_free_colors(
                runtime, coloring, plan, view, ell_s=view.size
            )
            assert leftover == []
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)


class TestCandidateDonors:
    def test_unique_colors_and_no_foreign_conflicts(self):
        w, runtime, acd, coloring = _setup(seed=6)
        put = _color_all_but_put_aside(runtime, coloring, acd, r=5)
        plans = [
            CabalPlan(
                clique_index=i,
                members=m,
                put_aside=put[i],
                inliers=m,
            )
            for i, m in enumerate(acd.cliques)
        ]
        donors = find_candidate_donors(runtime, coloring, plans)
        owner = {}
        for i, q in donors.items():
            for v in q:
                owner[v] = i
        for i, m in enumerate(acd.cliques):
            colors_in_k = {}
            for v in m:
                if coloring.is_colored(v):
                    colors_in_k[coloring.get(v)] = colors_in_k.get(coloring.get(v), 0) + 1
            for v in donors.get(i, []):
                # Lemma 7.2 property 1: unique color
                assert colors_in_k[coloring.get(v)] == 1
                # property 2: no neighbor in foreign Q or foreign P
                for u in w.graph.neighbors(v):
                    assert owner.get(u, i) == i
                    for j, p in put.items():
                        if j != i:
                            assert u not in p


class TestFullDonation:
    def test_colors_all_put_aside_vertices(self):
        w, runtime, acd, coloring = _setup(seed=7, clique_size=60, anti_degree=2)
        put = _color_all_but_put_aside(runtime, coloring, acd, r=4)
        plans = [
            CabalPlan(clique_index=i, members=m, put_aside=put[i], inliers=m)
            for i, m in enumerate(acd.cliques)
        ]
        leftover = color_put_aside_sets(runtime, coloring, plans)
        # retry once as the pipeline does before judging
        if leftover:
            leftover = color_put_aside_sets(runtime, coloring, plans)
        assert leftover == []
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)

    def test_recoloring_stays_proper_throughout(self):
        """The donation's double recoloring (donor -> replacement,
        put-aside -> donated) must never pass through an improper state
        visible at commit."""
        w, runtime, acd, coloring = _setup(seed=8, clique_size=50)
        put = _color_all_but_put_aside(runtime, coloring, acd, r=3)
        plans = [
            CabalPlan(clique_index=i, members=m, put_aside=put[i], inliers=m)
            for i, m in enumerate(acd.cliques)
        ]
        color_put_aside_sets(runtime, coloring, plans)
        assert is_proper(w.graph, coloring.colors, allow_partial=True)


class TestCabalStage:
    def test_color_cabals_end_to_end(self):
        w, runtime, acd, coloring = _setup(seed=9, clique_size=60)
        color_cabals(runtime, coloring, acd)
        for members in acd.cliques:
            assert all(coloring.is_colored(v) for v in members)
        assert is_proper(w.graph, coloring.colors, allow_partial=True)
