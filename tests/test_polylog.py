"""The poly-logarithmic regime (Section 9.2, Algorithms 13-15)."""

import math

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.coloring.polylog import color_polylog, _degree_reduction_rounds
from repro.coloring.stats import ColoringStats
from repro.coloring.types import PartialColoring
from repro.params import scaled
from repro.verify import is_proper
from repro.workloads import (
    cabal_instance,
    congest_instance,
    planted_acd_instance,
)
from tests.conftest import is_total, make_runtime


class TestRegimeDispatch:
    def test_auto_picks_polylog_between_thresholds(self):
        # the polylog window at n = 400 is Delta in (3 log n, Delta_low)
        # ~ (26, 38); p = 0.05 lands max degree ~34
        w = congest_instance(np.random.default_rng(1), n=400, p=0.05)
        n = w.graph.n_machines
        assert 3 * math.log2(n) < w.graph.max_degree < scaled().delta_low(n)
        result = color_cluster_graph(w.graph, seed=2)
        assert result.stats.regime == "polylog"
        assert result.proper

    def test_explicit_polylog_regime(self):
        w = planted_acd_instance(np.random.default_rng(2))
        result = color_cluster_graph(w.graph, seed=3, regime="polylog")
        assert result.stats.regime == "polylog"
        assert result.proper

    def test_all_three_regimes_color_same_graph(self):
        """The regimes are different cost profiles for the same problem:
        each must deliver a proper total coloring."""
        w = planted_acd_instance(np.random.default_rng(3))
        for regime in ("low_degree", "polylog", "high_degree"):
            result = color_cluster_graph(w.graph, seed=4, regime=regime)
            assert result.proper, regime
            assert result.stats.regime == regime


class TestColorPolylog:
    def test_colors_everything_on_dense_structure(self):
        w = planted_acd_instance(np.random.default_rng(4))
        runtime = make_runtime(w.graph)
        coloring = PartialColoring.empty(
            w.graph.n_vertices, w.graph.max_degree + 1
        )
        stats = ColoringStats()
        acd = color_polylog(runtime, coloring, stats)
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)
        assert acd.num_cliques > 0

    def test_stage_breakdown_recorded(self):
        w = cabal_instance(np.random.default_rng(5))
        runtime = make_runtime(w.graph)
        coloring = PartialColoring.empty(
            w.graph.n_vertices, w.graph.max_degree + 1
        )
        stats = ColoringStats()
        color_polylog(runtime, coloring, stats)
        for stage in ("polylog_acd", "polylog_slack", "polylog_sparse"):
            assert stage in stats.stage_rounds
        # cabal instance: the cabal pass must have run
        assert "polylog_cabals" in stats.stage_rounds

    def test_no_reserved_colors_regime(self):
        """Section 9.2 drops reserved colors; the whole palette is usable,
        so even color 0 appears."""
        w = planted_acd_instance(np.random.default_rng(6))
        result = color_cluster_graph(w.graph, seed=5, regime="polylog")
        assert 0 in set(result.colors.tolist())

    def test_degree_reduction_rounds_loglog(self):
        w = planted_acd_instance(np.random.default_rng(7))
        runtime = make_runtime(w.graph)
        rounds = _degree_reduction_rounds(runtime)
        n = runtime.n
        assert rounds <= 2 * math.log2(math.log2(n)) + 3

    @pytest.mark.parametrize("seed", range(3))
    def test_many_seeds(self, seed):
        w = cabal_instance(np.random.default_rng(seed + 30))
        result = color_cluster_graph(w.graph, seed=seed, regime="polylog")
        assert result.proper
