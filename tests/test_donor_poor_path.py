"""The Section 7 donor machinery on its *intended* terrain: a big cabal
whose clique palette is nearly exhausted (|L(K)| < ell_s), where put-aside
vertices genuinely cannot find free colors and must receive donations.

The generic pipeline tests exercise the rich-palette path; these tests
construct the poor-palette state explicitly and drive Algorithms 9/10 and
the donation step through their success path.
"""

import numpy as np
import pytest

from repro.coloring.clique_palette import palette_view
from repro.coloring.donors import (
    CabalPlan,
    color_put_aside_sets,
    donate_colors,
    find_candidate_donors,
    find_safe_donors,
)
from repro.coloring.types import PartialColoring
from repro.decomposition import annotate_with_cabals, compute_acd
from repro.params import scaled
from repro.verify import is_proper
from repro.workloads import cabal_instance
from tests.conftest import is_total, make_runtime


@pytest.fixture(scope="module")
def poor_palette_state():
    """One 400-vertex cabal, colored so that |L(K)| < ell_s: every color
    0..|K|-r-1 used exactly once inside K (unique colors everywhere), the
    last r inliers uncolored as the put-aside set."""
    w = cabal_instance(
        np.random.default_rng(404), n_cabals=1, clique_size=400,
        anti_degree=1, cluster_size=1,
    )
    runtime = make_runtime(w.graph, 11)
    acd = annotate_with_cabals(runtime, compute_acd(runtime))
    assert acd.num_cliques == 1
    members = acd.cliques[0]
    coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
    r = 8
    put_aside = members[-r:]
    # color everyone else with a distinct color; skip colors conflicting
    # with the (rare) external edges
    next_color = 0
    for v in members[:-r]:
        while not coloring.is_free_for(w.graph, v, next_color):
            next_color += 1
        coloring.assign(v, next_color)
        next_color += 1
    # color any vertex outside the cabal greedily
    from repro.coloring.try_color import greedy_finish

    others = [v for v in range(w.graph.n_vertices) if v not in set(members)]
    greedy_finish(runtime, coloring, others)
    view = palette_view(runtime, coloring, members)
    assert view.size < scaled().ell_s(runtime.n), "state must be palette-poor"
    plan = CabalPlan(
        clique_index=0, members=members, put_aside=put_aside, inliers=members
    )
    return w, runtime, acd, coloring, plan, view


class TestPoorPath:
    def test_candidate_donors_plentiful(self, poor_palette_state):
        w, runtime, acd, coloring, plan, view = poor_palette_state
        donors = find_candidate_donors(runtime, coloring.copy(), [plan])
        # activation 0.5 over ~390 unique-colored inliers
        assert len(donors[0]) > 100

    def test_safe_donors_satisfy_lemma_7_3(self, poor_palette_state):
        w, runtime, acd, coloring, plan, view = poor_palette_state
        work = coloring.copy()
        donors = find_candidate_donors(runtime, work, [plan])
        assignments = find_safe_donors(runtime, work, plan, donors[0], view)
        assert len(assignments) == len(plan.put_aside)
        seen_colors = set()
        seen_donors: set[int] = set()
        block = scaled().donor_block_size(runtime.n, w.graph.max_degree)
        for a in assignments:
            # property 1: distinct replacement colors, disjoint donor sets
            assert a.replacement_color not in seen_colors
            seen_colors.add(a.replacement_color)
            assert not (set(a.donors) & seen_donors)
            seen_donors.update(a.donors)
            # replacement comes from the clique palette
            assert a.replacement_color in set(view.free.tolist())
            for v in a.donors:
                # property 2: replacement is in the donor's own palette
                assert work.is_free_for(w.graph, v, a.replacement_color)
                # property 3: donors hold colors from the assigned block
                assert work.get(v) // block == a.block_index

    def test_donation_completes_and_stays_proper(self, poor_palette_state):
        w, runtime, acd, coloring, plan, view = poor_palette_state
        work = coloring.copy()
        donors = find_candidate_donors(runtime, work, [plan])
        assignments = find_safe_donors(runtime, work, plan, donors[0], view)
        leftover = donate_colors(runtime, work, plan, assignments)
        assert leftover == []
        assert is_total(work)
        assert is_proper(w.graph, work.colors)

    def test_donation_actually_recolors_donors(self, poor_palette_state):
        """The three-way matching is real: some donor must have moved to a
        replacement color (i.e. this was not the free-colors path)."""
        w, runtime, acd, coloring, plan, view = poor_palette_state
        work = coloring.copy()
        donors = find_candidate_donors(runtime, work, [plan])
        assignments = find_safe_donors(runtime, work, plan, donors[0], view)
        before = {v: work.get(v) for a in assignments for v in a.donors}
        donate_colors(runtime, work, plan, assignments)
        moved = [v for v, c in before.items() if work.get(v) != c]
        assert len(moved) == len(plan.put_aside)
        # each put-aside vertex now wears a donated (previously-used) color
        for u in plan.put_aside:
            assert work.is_colored(u)

    def test_full_entry_point_uses_poor_path(self, poor_palette_state):
        w, runtime, acd, coloring, plan, view = poor_palette_state
        work = coloring.copy()
        leftover = color_put_aside_sets(runtime, work, [plan])
        assert leftover == []
        assert is_total(work)
        assert is_proper(w.graph, work.colors)
