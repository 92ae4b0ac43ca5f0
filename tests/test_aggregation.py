"""Aggregation primitives: BFS (Lemma 3.2), random groups (Lemma 4.4),
runtime charging."""

import networkx as nx
import numpy as np
import pytest

from repro.aggregation import bfs_forest, random_groups
from repro.cluster import ClusterGraph, blowup
from repro.network import CommGraph
from tests.conftest import make_runtime


def _cycle_runtime(n=12, seed=3):
    comm = CommGraph(n, [(i, (i + 1) % n) for i in range(n)])
    return make_runtime(ClusterGraph.identity(comm), seed)


class TestBfsForest:
    def test_depths_match_networkx(self):
        g = nx.connected_watts_strogatz_graph(30, 4, 0.3, seed=5)
        h = ClusterGraph.identity(CommGraph.from_networkx(g))
        runtime = make_runtime(h)
        (tree,) = bfs_forest(runtime, [(0, range(30))])
        expected = nx.single_source_shortest_path_length(g, 0)
        assert tree.depth_of == expected

    def test_vertex_disjointness_enforced(self):
        runtime = _cycle_runtime()
        with pytest.raises(ValueError, match="disjoint"):
            bfs_forest(runtime, [(0, [0, 1, 2]), (2, [2, 3])])

    def test_source_must_belong(self):
        runtime = _cycle_runtime()
        with pytest.raises(ValueError, match="not in its component"):
            bfs_forest(runtime, [(5, [0, 1])])

    def test_hop_bound(self):
        runtime = _cycle_runtime(n=10)
        (tree,) = bfs_forest(runtime, [(0, range(10))], max_hops=2)
        assert max(tree.depth_of.values()) == 2
        assert len(tree.vertices) == 5  # 0 plus two per direction

    def test_restricted_to_component_set(self):
        runtime = _cycle_runtime(n=10)
        (tree,) = bfs_forest(runtime, [(0, [0, 1, 2, 7, 8, 9])])
        # vertex 5 excluded; reachable set is the arc through the set only
        assert set(tree.vertices) == {0, 1, 2, 7, 8, 9}

    def test_parallel_components_cost_max_depth(self):
        runtime = _cycle_runtime(n=20)
        before = runtime.ledger.rounds_h
        bfs_forest(runtime, [(0, range(0, 10)), (10, range(10, 20))])
        cost = runtime.ledger.rounds_h - before
        assert cost <= 10  # max depth, not sum of depths

    def test_order_total_and_ancestor_first(self):
        runtime = _cycle_runtime(n=8)
        (tree,) = bfs_forest(runtime, [(0, range(8))])
        order = tree.order()
        assert sorted(order) == sorted(tree.vertices)
        pos = {v: i for i, v in enumerate(order)}
        for v, p in tree.parent.items():
            if p is not None:
                assert pos[p] < pos[v]


class TestRandomGroups:
    def test_partition(self, rng):
        h = blowup(nx.complete_graph(60), rng, cluster_size=2)
        runtime = make_runtime(h)
        groups = random_groups(runtime, list(range(60)), 5)
        members = [v for g in groups.groups for v in g]
        assert sorted(members) == list(range(60))
        assert all(groups.group_of[v] == i for i, g in enumerate(groups.groups) for v in g)

    def test_clique_well_connected(self, rng):
        """Lemma 4.4: in a true clique every vertex is adjacent to more than
        half of every group (deterministically here)."""
        h = blowup(nx.complete_graph(60), rng, cluster_size=2)
        runtime = make_runtime(h)
        groups = random_groups(runtime, list(range(60)), 4)
        assert groups.well_connected

    def test_sparse_graph_flagged(self, rng):
        h = blowup(nx.cycle_graph(30), rng, cluster_size=1)
        runtime = make_runtime(h)
        groups = random_groups(runtime, list(range(30)), 3)
        assert not groups.well_connected  # cycle vertices see 2 neighbors

    def test_invalid_group_count(self, rng):
        h = blowup(nx.complete_graph(10), rng, cluster_size=1)
        runtime = make_runtime(h)
        with pytest.raises(ValueError):
            random_groups(runtime, list(range(10)), 0)


class TestRuntimeCharging:
    def test_virtual_graph_congestion_multiplies_g_rounds(self, rng):
        from repro.cluster import distance2_virtual_graph

        comm = CommGraph(6, [(i, i + 1) for i in range(5)])
        vg = distance2_virtual_graph(comm)
        runtime = make_runtime(vg)
        runtime.h_rounds("x", count=1)
        # dilation 2 * congestion 2 = 4 G-rounds per H-round
        assert runtime.ledger.rounds_g == 4

    def test_wide_message_pipelines(self):
        runtime = _cycle_runtime()
        cap = runtime.ledger.bandwidth_bits
        before = runtime.ledger.rounds_h
        runtime.wide_message("wide", 3 * cap + 1)
        assert runtime.ledger.rounds_h - before == 4
