"""End-to-end integration: the pipeline on every workload family."""

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.cluster import distance2_virtual_graph, power_graph_degree_bound
from repro.network import CommGraph
from repro.params import scaled
from repro.verify import is_proper
from repro.workloads import (
    bridge_pathology,
    cabal_instance,
    congest_instance,
    contraction_instance,
    figure1_example,
    high_degree_instance,
    low_degree_instance,
    planted_acd_instance,
    voronoi_instance,
)

FAMILIES = [
    ("planted_acd", planted_acd_instance, {}),
    ("planted_noncabal", planted_acd_instance, {"external_degree": 12, "n_sparse": 120}),
    ("cabal", cabal_instance, {}),
    ("congest", congest_instance, {}),
    ("contraction", contraction_instance, {"n": 300}),
    ("voronoi", voronoi_instance, {"n": 300, "n_clusters": 80}),
    ("bridge", bridge_pathology, {}),
    ("low_degree", low_degree_instance, {"n_vertices": 200}),
]


class TestAllFamilies:
    @pytest.mark.parametrize("name,maker,kw", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_proper_total_coloring(self, name, maker, kw):
        w = maker(np.random.default_rng(99), **kw)
        result = color_cluster_graph(w.graph, seed=1)
        assert result.proper, f"{name}: improper coloring"
        assert (result.colors >= 0).all()
        assert result.colors.max() < result.num_colors

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds_planted(self, seed):
        w = planted_acd_instance(np.random.default_rng(seed + 200))
        result = color_cluster_graph(w.graph, seed=seed)
        assert result.proper

    def test_deterministic_given_seed(self):
        w = planted_acd_instance(np.random.default_rng(7))
        a = color_cluster_graph(w.graph, seed=13)
        b = color_cluster_graph(w.graph, seed=13)
        assert (a.colors == b.colors).all()
        assert a.rounds_h == b.rounds_h

    def test_different_seeds_differ(self):
        w = planted_acd_instance(np.random.default_rng(7))
        a = color_cluster_graph(w.graph, seed=1)
        b = color_cluster_graph(w.graph, seed=2)
        assert (a.colors != b.colors).any()


class TestRegimeDispatch:
    def test_auto_picks_high_degree(self):
        w = high_degree_instance(np.random.default_rng(3), n_vertices=250)
        result = color_cluster_graph(w.graph, seed=0)
        assert result.stats.regime == "high_degree"
        assert result.proper

    def test_auto_picks_low_degree(self):
        w = low_degree_instance(np.random.default_rng(3))
        result = color_cluster_graph(w.graph, seed=0)
        assert result.stats.regime == "low_degree"
        assert result.proper

    def test_forced_regime(self):
        w = planted_acd_instance(np.random.default_rng(3))
        result = color_cluster_graph(w.graph, seed=0, regime="low_degree")
        assert result.stats.regime == "low_degree"
        assert result.proper


class TestStatsAndLedger:
    def test_stage_breakdown_present(self):
        w = planted_acd_instance(np.random.default_rng(4))
        result = color_cluster_graph(w.graph, seed=2)
        stages = result.stats.stage_rounds
        assert result.stats.regime == "high_degree"
        for expected in ("acd", "slack_generation", "sparse", "noncabals", "cabals"):
            assert expected in stages

    def test_ledger_counts_consistent(self):
        w = cabal_instance(np.random.default_rng(5))
        result = color_cluster_graph(w.graph, seed=3)
        summary = result.ledger_summary
        assert summary["rounds_g"] >= summary["rounds_h"]
        assert summary["max_message_bits"] <= scaled().bandwidth_bits(
            w.graph.n_machines
        )

    def test_dilation_multiplies_g_rounds(self):
        """Theorem 1.1/1.2's d-factor: same conflict graph, deeper clusters
        => more G-rounds for comparable H-rounds."""
        import networkx as nx
        from repro.cluster import blowup

        target = nx.gnp_random_graph(120, 0.25, seed=6)
        flat = blowup(target, np.random.default_rng(0), cluster_size=2, topology="star")
        deep = blowup(target, np.random.default_rng(0), cluster_size=12, topology="path")
        r_flat = color_cluster_graph(flat, seed=4)
        r_deep = color_cluster_graph(deep, seed=4)
        assert r_deep.rounds_g / max(1, r_deep.rounds_h) > r_flat.rounds_g / max(
            1, r_flat.rounds_h
        )


class TestVirtualGraphs:
    def test_distance2_coloring_corollary_1_3(self):
        """Corollary 1.3: Δ₂+1 coloring of G² via the virtual-graph view."""
        w = low_degree_instance(np.random.default_rng(8), n_vertices=150, target_degree=4)
        comm = w.graph.comm
        vg = distance2_virtual_graph(comm)
        result = color_cluster_graph(vg, seed=5)
        assert result.proper
        assert result.num_colors == power_graph_degree_bound(comm) + 1
        # distance-2 semantics on G: any two machines at distance <= 2 differ
        colors = result.colors
        for u in range(comm.n):
            for v in comm.neighbors(u):
                assert colors[u] != colors[v]
                for x in comm.neighbors(v):
                    if x != u:
                        assert colors[u] != colors[x]


class TestEdgeCases:
    def test_single_edge(self):
        comm = CommGraph(2, [(0, 1)])
        from repro.cluster import ClusterGraph

        result = color_cluster_graph(ClusterGraph.identity(comm), seed=0)
        assert result.proper

    def test_figure1(self):
        w = figure1_example()
        result = color_cluster_graph(w.graph, seed=0)
        assert result.proper

    def test_star_conflict_graph(self):
        import networkx as nx
        from repro.cluster import blowup

        g = blowup(nx.star_graph(30), np.random.default_rng(0), cluster_size=2)
        result = color_cluster_graph(g, seed=0)
        assert result.proper
