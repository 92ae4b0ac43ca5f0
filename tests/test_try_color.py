"""TryColor (Algorithm 17 / Lemma D.3) and SlackGeneration (Algorithm 18)."""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import blowup
from repro.coloring.slack import reserved_zone, slack_generation
from repro.coloring.try_color import (
    BatchSampler,
    greedy_finish,
    resolve_proposals,
    try_color_round,
    try_color_until,
    uniform_range_sampler,
)
from repro.coloring.types import PartialColoring
from repro.verify import is_proper
from tests.conftest import is_total, make_runtime


def _runtime_and_coloring(graph_seed=0, n=30, p=0.3, seed=5):
    g = blowup(
        nx.gnp_random_graph(n, p, seed=graph_seed), np.random.default_rng(0),
        cluster_size=2,
    )
    runtime = make_runtime(g, seed)
    coloring = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
    return runtime, coloring


class TestResolveProposals:
    def test_smaller_id_wins(self):
        g = blowup(nx.path_graph(2), np.random.default_rng(0), cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(2, 2)
        adopted = resolve_proposals(runtime, coloring, [0, 1], [1, 1])
        assert adopted.tolist() == [0]
        assert coloring.get(0) == 1 and not coloring.is_colored(1)

    def test_symmetric_rule_drops_both(self):
        g = blowup(nx.path_graph(2), np.random.default_rng(0), cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(2, 2)
        adopted = resolve_proposals(
            runtime, coloring, [0, 1], [1, 1], symmetric=True
        )
        assert adopted.tolist() == []

    def test_colored_neighbor_blocks(self):
        g = blowup(nx.path_graph(2), np.random.default_rng(0), cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(2, 2)
        coloring.assign(0, 1)
        assert resolve_proposals(runtime, coloring, [1], [1]).tolist() == []
        assert resolve_proposals(runtime, coloring, [1], [0]).tolist() == [1]

    def test_non_conflicting_proposals_all_adopted(self):
        g = blowup(nx.path_graph(3), np.random.default_rng(0), cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(3, 3)
        adopted = resolve_proposals(runtime, coloring, [0, 1, 2], [0, 1, 2])
        assert sorted(adopted.tolist()) == [0, 1, 2]

    def test_charges_rounds(self):
        runtime, coloring = _runtime_and_coloring()
        before = runtime.ledger.rounds_h
        resolve_proposals(runtime, coloring, [0], [0])
        assert runtime.ledger.rounds_h == before + 2

    def test_empty_proposals_charge_and_adopt_nothing(self):
        runtime, coloring = _runtime_and_coloring()
        before = runtime.ledger.rounds_h
        empty = np.empty(0, dtype=np.int64)
        adopted = resolve_proposals(runtime, coloring, empty, empty)
        assert adopted.size == 0
        assert coloring.colored_count() == 0
        assert runtime.ledger.rounds_h == before + 2


class TestTryColorLoop:
    def test_always_proper(self):
        runtime, coloring = _runtime_and_coloring()
        sampler = uniform_range_sampler(runtime, coloring.num_colors)
        for _ in range(15):
            try_color_round(
                runtime, coloring, range(coloring.n_vertices), sampler
            )
            assert is_proper(runtime.graph, coloring.colors, allow_partial=True)

    def test_degree_reduction(self):
        """Lemma D.3's qualitative content: uncolored count drops fast."""
        runtime, coloring = _runtime_and_coloring(n=80, p=0.1)
        sampler = uniform_range_sampler(runtime, coloring.num_colors)
        total = coloring.n_vertices
        leftover = try_color_until(
            runtime, coloring, list(range(total)), sampler, max_rounds=6
        )
        assert len(leftover) < total / 3

    def test_until_returns_only_uncolored(self):
        runtime, coloring = _runtime_and_coloring()
        sampler = uniform_range_sampler(runtime, coloring.num_colors)
        leftover = try_color_until(
            runtime, coloring, list(range(coloring.n_vertices)), sampler,
            max_rounds=40,
        )
        for v in leftover:
            assert not coloring.is_colored(v)
        for v in range(coloring.n_vertices):
            if v not in leftover:
                assert coloring.is_colored(v)

    def test_sampler_none_skips(self):
        runtime, coloring = _runtime_and_coloring()
        nothing = BatchSampler(lambda vertices: (vertices[:0], vertices[:0]))
        adopted = try_color_round(
            runtime, coloring, range(coloring.n_vertices), nothing
        )
        assert adopted.tolist() == []
        assert coloring.colored_count() == 0


class TestGreedyFinish:
    def test_completes_any_residue(self):
        runtime, coloring = _runtime_and_coloring()
        stuck = greedy_finish(
            runtime, coloring, list(range(coloring.n_vertices))
        )
        assert stuck == []
        assert is_total(coloring)
        assert is_proper(runtime.graph, coloring.colors)

    def test_respects_existing_colors(self):
        runtime, coloring = _runtime_and_coloring()
        coloring.assign(0, 0)
        greedy_finish(runtime, coloring, list(range(coloring.n_vertices)))
        assert coloring.get(0) == 0
        assert is_proper(runtime.graph, coloring.colors)


class TestSlackGeneration:
    def _dense_runtime(self):
        g = blowup(
            nx.gnp_random_graph(80, 0.5, seed=3), np.random.default_rng(1),
            cluster_size=2,
        )
        runtime = make_runtime(g)
        return runtime, PartialColoring.empty(g.n_vertices, g.max_degree + 1)

    def test_no_reserved_colors_used(self):
        runtime, coloring = self._dense_runtime()
        colored = slack_generation(
            runtime, coloring, list(range(coloring.n_vertices))
        )
        floor = reserved_zone(runtime.params, runtime.graph.max_degree)
        for v in colored:
            assert coloring.get(v) >= floor

    def test_result_proper(self):
        runtime, coloring = self._dense_runtime()
        slack_generation(runtime, coloring, list(range(coloring.n_vertices)))
        assert is_proper(runtime.graph, coloring.colors, allow_partial=True)

    def test_excluded_vertices_untouched(self):
        runtime, coloring = self._dense_runtime()
        eligible = list(range(0, coloring.n_vertices, 2))
        slack_generation(runtime, coloring, eligible)
        for v in range(1, coloring.n_vertices, 2):
            assert not coloring.is_colored(v)

    def test_generates_reuse_slack_in_dense_graph(self):
        """Proposition 4.5's effect: same-colored pairs appear across the
        graph (statistically -- dense random graph, many trials)."""
        reuse_total = 0
        for seed in range(5):
            g = blowup(
                nx.gnp_random_graph(80, 0.5, seed=seed),
                np.random.default_rng(1),
                cluster_size=1,
            )
            runtime = make_runtime(g, seed)
            coloring = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
            colored = slack_generation(
                runtime, coloring, list(range(g.n_vertices))
            )
            distinct = len({coloring.get(v) for v in colored})
            reuse_total += len(colored) - distinct
        assert reuse_total > 0
