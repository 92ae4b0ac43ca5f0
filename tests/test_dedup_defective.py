"""Neighbor-dedup primitives (Section 1.1) and weighted defective coloring
(Definition 9.5)."""

import networkx as nx
import numpy as np
import pytest

from repro.aggregation.dedup import (
    binary_search_round_budget,
    dedup_elected_links,
    exact_degree,
    find_free_color_binary_search,
)
from repro.cluster import blowup
from repro.coloring.defective import (
    max_relative_defect,
    weighted_defective_coloring,
)
from repro.coloring.types import PartialColoring
from repro.workloads import figure1_example
from tests.conftest import make_runtime


class TestDedup:
    def test_elected_links_one_per_neighbor(self, figure1_workload):
        g = figure1_workload.graph
        # cluster 1 (B) has a doubled link to cluster 2 (C)
        elected = dedup_elected_links(g, 1)
        assert set(elected) == set(g.neighbors(1))
        for u, (mu, mv) in elected.items():
            assert g.assignment[mu] == u
            assert g.assignment[mv] == 1

    def test_exact_degree_beats_link_count(self, figure1_workload):
        g = figure1_workload.graph
        runtime = make_runtime(g)
        assert exact_degree(runtime, 1) == 2
        assert g.link_count(1) == 3  # the naive aggregate is wrong

    def test_exact_degree_matches_truth_on_random_graphs(self, rng):
        g = blowup(
            nx.gnp_random_graph(25, 0.3, seed=5), rng, cluster_size=3,
            link_multiplicity=3,
        )
        runtime = make_runtime(g)
        for v in range(g.n_vertices):
            assert exact_degree(runtime, v) == g.degree(v)


class TestBinarySearchFreeColor:
    def test_finds_a_free_color(self, rng):
        g = blowup(nx.complete_graph(10), rng, cluster_size=2)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(10, 10)
        for v in range(9):
            coloring.assign(v, v)
        free = find_free_color_binary_search(runtime, coloring, 9)
        assert free == 9  # the only color unused by the 9 colored neighbors

    def test_returns_smallest_free(self, rng):
        g = blowup(nx.star_graph(4), rng, cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(5, 5)
        coloring.assign(1, 0)
        coloring.assign(2, 1)
        assert find_free_color_binary_search(runtime, coloring, 0) == 2

    def test_none_when_palette_exhausted(self, rng):
        g = blowup(nx.complete_graph(3), rng, cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(3, 2)
        coloring.assign(0, 0)
        coloring.assign(1, 1)
        assert find_free_color_binary_search(runtime, coloring, 2) is None

    def test_round_cost_logarithmic(self, rng):
        g = blowup(nx.complete_graph(60), rng, cluster_size=1)
        runtime = make_runtime(g)
        coloring = PartialColoring.empty(60, 60)
        for v in range(59):
            coloring.assign(v, v)
        before = runtime.ledger.rounds_h
        find_free_color_binary_search(runtime, coloring, 59)
        probes = runtime.ledger.rounds_h - before
        assert probes <= 2 * binary_search_round_budget(60)


class TestAudit:
    def test_defects_reported(self, rng):
        """A sabotaged pipeline run is caught by the end-of-run checker."""
        from repro import color_cluster_graph
        from repro.verify import is_proper, violations

        w = figure1_example()
        result = color_cluster_graph(w.graph, seed=1)
        assert is_proper(w.graph, result.colors)
        result.colors[0] = result.colors[1] = 0  # sabotage
        assert not is_proper(w.graph, result.colors)
        assert (0, 1) in violations(w.graph, result.colors)


class TestDefectiveColoring:
    def test_meets_relative_defect(self, rng):
        g = blowup(nx.random_regular_graph(8, 40, seed=3), rng, cluster_size=1)
        runtime = make_runtime(g)
        colors = weighted_defective_coloring(runtime, q=6, delta_rel=0.5)
        assert max_relative_defect(g, colors) <= 0.5
        assert set(np.unique(colors)) <= set(range(6))

    def test_weighted_edges_respected(self, rng):
        g = blowup(nx.complete_graph(12), rng, cluster_size=1)
        runtime = make_runtime(g)
        weights = {
            (u, v): (10.0 if (u + v) % 3 == 0 else 1.0)
            for u, v in g.iter_h_edges()
        }
        colors = weighted_defective_coloring(
            runtime, q=8, delta_rel=0.4, weights=weights
        )
        assert max_relative_defect(g, colors, weights) <= 0.4

    def test_infeasible_parameters_rejected(self, rng):
        g = blowup(nx.path_graph(4), rng, cluster_size=1)
        runtime = make_runtime(g)
        with pytest.raises(ValueError, match="cannot achieve"):
            weighted_defective_coloring(runtime, q=2, delta_rel=0.1)
        with pytest.raises(ValueError, match="at least 2"):
            weighted_defective_coloring(runtime, q=1, delta_rel=1.0)

    def test_zero_defect_needs_proper_coloring_worth_of_colors(self, rng):
        """delta_rel ~ 1/q boundary: on a clique with q = n colors, local
        search reaches a proper (defect-0) coloring."""
        g = blowup(nx.complete_graph(8), rng, cluster_size=1)
        runtime = make_runtime(g)
        colors = weighted_defective_coloring(runtime, q=8, delta_rel=1.0 / 8)
        # relative defect <= 1/8 of 7 incident edges means 0 edges
        assert max_relative_defect(g, colors) == 0.0
