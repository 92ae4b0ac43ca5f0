"""Cluster graphs (Definition 3.1), support trees, builders, virtual graphs."""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import (
    ClusterGraph,
    SupportTree,
    blowup,
    contraction_clusters,
    distance2_virtual_graph,
    power_graph_degree_bound,
    voronoi_clusters,
)
from repro.network import CommGraph
from repro.workloads import figure1_example


class TestSupportTree:
    def test_bfs_tree_spans_cluster(self):
        g = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        tree = SupportTree.build_bfs(g, [1, 2, 3], cluster_id=0)
        assert tree.root == 1
        assert set(tree.machines) == {1, 2, 3}
        assert tree.height == 2
        assert tree.parent[1] is None
        assert tree.parent[3] == 2

    def test_disconnected_cluster_rejected(self):
        g = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            SupportTree.build_bfs(g, [0, 1, 2], cluster_id=0)

    def test_singleton_height_one(self):
        g = CommGraph(2, [(0, 1)])
        tree = SupportTree.build_bfs(g, [0], cluster_id=0)
        assert tree.height == 1  # even singletons cost a round

    def test_custom_root(self):
        g = CommGraph(3, [(0, 1), (1, 2)])
        tree = SupportTree.build_bfs(g, [0, 1, 2], cluster_id=0, root=2)
        assert tree.root == 2
        assert tree.depth_of[0] == 2

    def test_dfs_order_is_preorder(self):
        g = CommGraph(4, [(0, 1), (0, 2), (2, 3)])
        tree = SupportTree.build_bfs(g, [0, 1, 2, 3], cluster_id=0)
        order = tree.dfs_order()
        assert order[0] == 0
        assert order.index(2) < order.index(3)  # ancestors first
        assert sorted(order) == [0, 1, 2, 3]


class TestClusterGraph:
    def test_figure1_semantics(self):
        """Figure 1's key feature: two clusters joined by several links form
        ONE H-edge; link counting overestimates the true degree."""
        w = figure1_example()
        g = w.graph
        assert g.n_vertices == 4
        # clusters B (1) and C (2) are joined by two links
        assert len(g.links[(1, 2)]) == 2
        assert g.degree(1) == g.degree(2) == 2
        # the cheap aggregate (incident links) overcounts the true degree
        assert g.link_count(1) == 3 > g.degree(1)
        assert g.link_count(2) == 3 > g.degree(2)

    def test_identity_is_congest(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h = ClusterGraph.identity(comm)
        assert h.n_vertices == comm.n
        assert h.dilation == 1
        assert sorted(h.iter_h_edges()) == sorted(comm.iter_links())

    def test_dilation_is_computed_once_per_graph(self, rng):
        import dataclasses
        import pickle

        h = blowup(nx.cycle_graph(6), rng, cluster_size=9, topology="path")
        assert h.dilation == max(t.height for t in h.trees) == 8
        assert "dilation" in vars(h)  # cached on the instance
        star = blowup(nx.cycle_graph(6), rng, cluster_size=9, topology="star")
        copy = dataclasses.replace(h, trees=star.trees)
        assert copy.dilation == 1 and h.dilation == 8
        restored = pickle.loads(pickle.dumps(h))
        assert vars(restored)["dilation"] == restored.dilation == 8

    def test_assignment_validation(self):
        comm = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            ClusterGraph.from_assignment(comm, [0, 1, 0, 1])
        with pytest.raises(ValueError, match="dense"):
            ClusterGraph.from_assignment(CommGraph(2, [(0, 1)]), [0, 2])
        with pytest.raises(ValueError, match="covers"):
            ClusterGraph.from_assignment(CommGraph(2, [(0, 1)]), [0])

    @pytest.mark.parametrize(
        "assignment, match",
        [
            ([0, 0.9, 1, 1.5], "integer"),
            (["0", "0", "1", "1"], "integer"),
            ([False, False, True, True], "integer"),
            ([0, 0, 1, 2**40], "dense"),
        ],
        ids=["float", "string", "bool", "out_of_range"],
    )
    def test_malformed_assignment_rejected(self, assignment, match):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=match):
            ClusterGraph.from_assignment(comm, assignment)

    def test_intra_cluster_links_not_h_edges(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = ClusterGraph.from_assignment(comm, [0, 0, 1, 1])
        assert h.n_h_edges == 1
        assert h.are_adjacent(0, 1)

    def test_anti_neighbors(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = ClusterGraph.identity(comm)
        assert h.anti_neighbors_within(0, [0, 1, 2, 3]) == [2, 3]

    def test_neighbor_array_is_csr_view(self):
        comm = CommGraph(3, [(0, 1), (1, 2)])
        h = ClusterGraph.identity(comm)
        a1 = h.neighbor_array(1)
        assert list(a1) == [0, 2]
        # zero-copy: slices share the CSR indices buffer, no per-call allocs
        assert a1.base is h.csr.indices or a1 is h.csr.indices

    def test_csr_survives_replace_and_pickle(self):
        """The lazy ``_adj_arrays`` cache of the pre-CSR design silently
        vanished under dataclasses.replace and never reached pool workers;
        the CSR backbone is a real init field, so both paths carry it (the
        immutable structure is shared, not rebuilt)."""
        import dataclasses
        import pickle

        comm = CommGraph(3, [(0, 1), (1, 2)])
        h = ClusterGraph.identity(comm)
        replaced = dataclasses.replace(h)
        assert list(replaced.neighbor_array(1)) == [0, 2]
        assert replaced.csr is h.csr
        revived = pickle.loads(pickle.dumps(h))
        assert list(revived.neighbor_array(1)) == [0, 2]
        assert list(revived.csr.indptr) == list(h.csr.indptr)

    def test_adj_view_is_lazy_and_consistent(self):
        """``adj`` materializes from the CSR on first access only; until
        then construction boxes no per-edge Python ints."""
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h = ClusterGraph.identity(comm)
        assert h._adj is None  # nothing materialized at construction
        assert h.degree(1) == 2  # degree served straight from the CSR
        assert h.neighbors(1) == [0, 2]  # per-call CSR slice
        assert h._adj is None
        view = h.adj
        assert view[1] == [0, 2]
        assert h._adj is view  # cached after first access
        assert h.neighbors(1) is view[1]  # served from the cache now


class TestBuilders:
    def test_voronoi_partition_valid(self, rng):
        g = CommGraph.from_networkx(nx.connected_watts_strogatz_graph(60, 4, 0.2, seed=1))
        h = voronoi_clusters(g, 12, rng)
        assert h.n_vertices == 12
        assert sum(h.cluster_size(v) for v in range(12)) == 60

    def test_contraction_partition_valid(self, rng):
        g = CommGraph.from_networkx(nx.connected_watts_strogatz_graph(60, 4, 0.2, seed=2))
        h = contraction_clusters(g, 0.5, rng)
        assert sum(h.cluster_size(v) for v in range(h.n_vertices)) == 60
        assert h.n_vertices < 60  # something actually contracted

    def test_contraction_zero_fraction_is_identity(self, rng):
        g = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        h = contraction_clusters(g, 0.0, rng)
        assert h.n_vertices == 5

    def test_blowup_realizes_conflict_graph(self, rng):
        target = nx.petersen_graph()
        h = blowup(target, rng, cluster_size=3, topology="path", link_multiplicity=2)
        assert h.n_vertices == 10
        got = nx.Graph(list(h.iter_h_edges()))
        assert nx.is_isomorphic(got, target)

    def test_blowup_topology_controls_dilation(self, rng):
        target = nx.cycle_graph(6)
        star = blowup(target, rng, cluster_size=9, topology="star")
        path = blowup(target, rng, cluster_size=9, topology="path")
        assert star.dilation == 1
        assert path.dilation == 8

    def test_blowup_bridge_topology(self, rng):
        target = nx.path_graph(3)
        h = blowup(target, rng, cluster_size=6, topology="bridge")
        assert h.n_vertices == 3
        # bridge topology: two stars + 1 link -> height <= 3
        assert h.dilation <= 3

    def test_blowup_invalid_args(self, rng):
        with pytest.raises(ValueError):
            blowup(nx.path_graph(2), rng, cluster_size=0)
        with pytest.raises(ValueError):
            blowup(nx.path_graph(2), rng, link_multiplicity=0)
        with pytest.raises(ValueError, match="unknown topology"):
            blowup(nx.path_graph(2), rng, cluster_size=2, topology="ring")

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "conflict_graph,message",
        [
            (nx.Graph([(0, 1), (1, 2), (2, 3), (1, 1)]), "self-loop on H vertex 1"),
            ((4, np.array([[0, 1], [2, 2]])), "self-loop on H vertex 2"),
            ((4, np.array([[0, 1], [1, 2], [2, 1]])), r"duplicate conflict edge \(1, 2\) at H vertex 1"),
            ((4, np.array([[0, 1], [1, 2], [0, 1]])), r"duplicate conflict edge \(0, 1\) at H vertex 0"),
            ((4, np.array([[0, 1], [3, 4]])), r"\(3, 4\) names an H vertex outside 0..3"),
            ((4, np.array([[-1, 2]])), r"\(-1, 2\) names an H vertex outside 0..3"),
        ],
        ids=["nx-self-loop", "array-self-loop", "reversed-duplicate",
             "duplicate", "too-large", "negative"],
    )
    def test_blowup_rejects_unrealizable_h_before_drawing(self, conflict_graph, message, seed):
        # the H self-loop used to be rejected or silently turned into an
        # intra-cluster link depending on which machines the seed picked
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            blowup(conflict_graph, rng, cluster_size=3)
        assert rng.bit_generator.state == state

    def test_blowup_takes_an_edge_array(self, rng):
        target = nx.petersen_graph()
        edges = np.array(list(target.edges()), dtype=np.int64)
        for topology in ("path", "star", "clique", "tree", "bridge"):
            from_nx = blowup(target, np.random.default_rng(3), cluster_size=4, topology=topology)
            from_arr = blowup((10, edges), np.random.default_rng(3), cluster_size=4, topology=topology)
            assert np.array_equal(from_nx.csr.indices, from_arr.csr.indices)
            assert np.array_equal(from_nx.comm._link_u, from_arr.comm._link_u)
            assert np.array_equal(from_nx.comm._link_v, from_arr.comm._link_v)


class TestNetworkxEdgeArray:
    """The one networkx adapter equals relabel-then-``edges()``."""

    @staticmethod
    def _random_graph(seed: int) -> nx.Graph:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = nx.gnp_random_graph(n, float(rng.uniform(0.05, 0.5)), seed=seed)
        edges = list(g.edges())
        for k in rng.permutation(len(edges))[: len(edges) // 3].tolist():
            g.remove_edge(*edges[k])
        if seed % 3 == 1:  # nodes no longer 0..n-1 in iteration order
            labels = rng.permutation(n) * 3 + 5
            g = nx.relabel_nodes(g, dict(zip(range(n), labels.tolist())))
        elif seed % 3 == 2:  # insertion order differs from label order
            h = nx.Graph()
            h.add_nodes_from(rng.permutation(n).tolist())
            h.add_edges_from(g.edges())
            g = h
        return g

    @pytest.mark.parametrize("ordering", ["default", "sorted"])
    def test_matches_convert_node_labels_to_integers(self, ordering):
        from repro.network.commgraph import networkx_edge_array

        for seed in range(200):
            g = self._random_graph(seed)
            ref = nx.convert_node_labels_to_integers(g, ordering=ordering)
            n, edges = networkx_edge_array(g, ordering=ordering)
            assert n == ref.number_of_nodes()
            assert edges.tolist() == [list(e) for e in ref.edges()], seed


class TestVirtualGraph:
    def test_distance2_matches_networkx_square(self):
        g = nx.random_regular_graph(3, 14, seed=3)
        comm = CommGraph.from_networkx(g)
        vg = distance2_virtual_graph(comm)
        square = nx.power(nx.convert_node_labels_to_integers(g), 2)
        for u, v in square.edges():
            assert vg.are_adjacent(u, v)
        assert vg.max_degree == max(dict(square.degree()).values())

    def test_distance2_congestion_dilation(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        vg = distance2_virtual_graph(comm)
        assert vg.congestion == 2
        assert vg.dilation == 2

    def test_supports_are_closed_neighborhoods(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        vg = distance2_virtual_graph(comm)
        assert sorted(vg.supports[1]) == [0, 1, 2]

    def test_power_degree_bound(self):
        comm = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert power_graph_degree_bound(comm) == 4  # middle vertex sees all


class TestBuildForest:
    """The vectorized all-clusters BFS must reproduce the per-cluster
    sequential build exactly: roots, parents, depths, heights, and even
    the dict insertion (discovery) order."""

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_sequential_build(self, trial):
        from repro.cluster import build_forest

        rng = np.random.default_rng(trial)
        n = int(rng.integers(5, 150))
        edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
        extra = rng.integers(0, n, size=(2 * n, 2))
        edges += [(int(a), int(b)) for a, b in extra if a != b]
        comm = CommGraph(n, edges)
        k = int(rng.integers(1, n + 1))
        cg = voronoi_clusters(comm, k, np.random.default_rng(trial + 100))
        assign = np.asarray(cg.assignment, dtype=np.int64)
        forest = build_forest(comm, assign, cg.clusters)
        for cid, members in enumerate(cg.clusters):
            ref = SupportTree.build_bfs(comm, members, cluster_id=cid)
            got = forest[cid]
            assert got.root == ref.root
            assert got.parent == ref.parent
            assert list(got.parent) == list(ref.parent)  # discovery order
            assert got.depth_of == ref.depth_of
            assert got.height == ref.height

    def test_disconnected_cluster_reported_like_sequential(self):
        from repro.cluster import build_forest

        comm = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="cluster 0 is not connected"):
            build_forest(
                comm,
                np.array([0, 0, 0, 1], dtype=np.int64),
                [[0, 1, 2], [3]],
            )
