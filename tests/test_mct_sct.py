"""MultiColorTrial (Lemma D.1) and SynchronizedColorTrial (Lemma 4.13)."""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import blowup
from repro.coloring.clique_palette import palette_view
from repro.coloring.errors import StageFailure
from repro.coloring.multicolor_trial import _trial_schedule, multicolor_trial
from repro.coloring.synchronized_trial import SctPlan, synchronized_color_trial
from repro.coloring.types import PartialColoring
from repro.verify import is_proper
from tests.conftest import is_total, make_runtime


class TestTrialSchedule:
    def test_grows_doubly_fast_then_caps(self):
        sizes = _trial_schedule(gamma=0.25, n=10**6, max_iters=10)
        assert sizes[0] == 1
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        # reaches the cap in O(log*) steps
        assert sizes[5] == sizes[-1]


class TestMultiColorTrial:
    def _setup(self, n=60, p=0.25, seed=2):
        g = blowup(
            nx.gnp_random_graph(n, p, seed=seed), np.random.default_rng(0),
            cluster_size=1,
        )
        runtime = make_runtime(g, seed)
        coloring = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        return runtime, coloring

    def test_colors_everything_with_full_space(self):
        runtime, coloring = self._setup()
        space = list(range(coloring.num_colors))
        leftover = multicolor_trial(
            runtime, coloring, list(range(coloring.n_vertices)),
            lambda v: space,
        )
        assert leftover == []
        assert is_total(coloring)
        assert is_proper(runtime.graph, coloring.colors)

    def test_raises_on_impossible_space(self):
        runtime, coloring = self._setup()
        # two adjacent vertices, one usable color: someone must fail
        with pytest.raises(StageFailure) as info:
            multicolor_trial(
                runtime, coloring, list(range(coloring.n_vertices)),
                lambda v: [0], max_iters=4,
            )
        assert info.value.affected  # leftover reported for fallback

    def test_leftover_return_mode(self):
        runtime, coloring = self._setup()
        leftover = multicolor_trial(
            runtime, coloring, list(range(coloring.n_vertices)),
            lambda v: [0], max_iters=4, raise_on_leftover=False,
        )
        assert len(leftover) > 0
        assert is_proper(runtime.graph, coloring.colors, allow_partial=True)

    def test_respects_color_space(self):
        runtime, coloring = self._setup(n=20, p=0.05)
        space = list(range(5, coloring.num_colors))
        multicolor_trial(
            runtime, coloring, list(range(coloring.n_vertices)),
            lambda v: space, raise_on_leftover=False,
        )
        for v in range(coloring.n_vertices):
            if coloring.is_colored(v):
                assert coloring.get(v) >= 5

    def test_log_star_round_shape(self):
        """The round count must stay near-constant as n grows (the
        O(log* n) claim, measured in MCT iterations via ledger rounds)."""
        costs = {}
        for n in (40, 160):
            runtime, coloring = self._setup(n=n, p=0.2)
            before = runtime.ledger.rounds_h
            space = list(range(coloring.num_colors))
            multicolor_trial(
                runtime, coloring, list(range(coloring.n_vertices)),
                lambda v: space,
            )
            costs[n] = runtime.ledger.rounds_h - before
        assert costs[160] <= costs[40] + 8


class TestSynchronizedColorTrial:
    def _clique_setup(self, size=40, seed=4):
        g = blowup(
            nx.complete_graph(size), np.random.default_rng(1), cluster_size=1
        )
        runtime = make_runtime(g, seed)
        coloring = PartialColoring.empty(size, g.max_degree + 1)
        return runtime, coloring

    def test_isolated_clique_fully_colored(self):
        """With no external neighbors, the SCT colors every participant
        (trials are conflict-free inside a clique by construction)."""
        runtime, coloring = self._clique_setup()
        members = list(range(40))
        view = palette_view(runtime, coloring, members)
        plan = SctPlan(participants=members, palette=view, reserved_floor=0)
        leftover = synchronized_color_trial(runtime, coloring, [plan])
        assert leftover == []
        assert is_proper(runtime.graph, coloring.colors, allow_partial=True)

    def test_reserved_floor_respected(self):
        runtime, coloring = self._clique_setup()
        members = list(range(40))
        view = palette_view(runtime, coloring, members)
        floor = 3
        plan = SctPlan(participants=members[:30], palette=view, reserved_floor=floor)
        synchronized_color_trial(runtime, coloring, [plan])
        for v in members[:30]:
            if coloring.is_colored(v):
                assert coloring.get(v) >= floor

    def test_two_joined_cliques_external_conflicts_bounded(self):
        """Lemma 4.13's content: only external neighbors can knock a
        participant out, so leftovers are O(e_K), not O(|K|)."""
        h = nx.Graph()
        a = list(range(30))
        b = list(range(30, 60))
        for group in (a, b):
            h.add_edges_from(
                (group[i], group[j])
                for i in range(30)
                for j in range(i + 1, 30)
            )
        # e_K = 3 cross edges
        h.add_edges_from([(0, 30), (1, 31), (2, 32)])
        g = blowup(h, np.random.default_rng(2), cluster_size=1)
        runtime = make_runtime(g, 7)
        coloring = PartialColoring.empty(60, g.max_degree + 1)
        plans = []
        for group in (a, b):
            view = palette_view(runtime, coloring, group)
            plans.append(
                SctPlan(participants=list(group), palette=view, reserved_floor=0)
            )
        leftover = synchronized_color_trial(runtime, coloring, plans)
        assert len(leftover) <= 6  # at most both endpoints of each cross edge
        assert is_proper(runtime.graph, coloring.colors, allow_partial=True)

    def test_participants_capped_by_palette(self):
        runtime, coloring = self._clique_setup(size=10)
        members = list(range(10))
        # pre-color 8 members' worth of colors from outside the clique? --
        # instead shrink the palette by coloring 6 members first
        for v, c in zip(range(6), range(6)):
            coloring.assign(v, c)
        view = palette_view(runtime, coloring, members)
        plan = SctPlan(
            participants=[v for v in members if not coloring.is_colored(v)],
            palette=view,
            reserved_floor=0,
        )
        leftover = synchronized_color_trial(runtime, coloring, [plan])
        assert leftover == []
        assert is_proper(runtime.graph, coloring.colors, allow_partial=True)
