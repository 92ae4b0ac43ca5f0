"""Cluster graphs (Definition 3.1), support trees, builders, virtual graphs."""

import dataclasses
import pickle

import networkx as nx
import numpy as np
import pytest

from repro.cluster import (
    ClusterGraph,
    SupportTree,
    VirtualGraph,
    blowup,
    contraction_clusters,
    distance2_virtual_graph,
    power_graph_degree_bound,
    voronoi_clusters,
)
from repro.dynamic.view import FrozenConflictGraph
from repro.graphcore import CSRAdjacency
from repro.network import CommGraph
from repro.workloads import figure1_example
from tests.conftest import csr_from_adj_lists, h_edges


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


class TestClusterGraph:
    def test_figure1_semantics(self):
        """Figure 1's key feature: two clusters joined by several links form
        ONE H-edge."""
        w = figure1_example()
        g = w.graph
        assert g.n_vertices == 4
        # clusters B (1) and C (2) are joined by two links
        u, v, _, _ = g.realizing_links()
        assert int(((u == 1) & (v == 2)).sum()) == 2
        assert g.degree(1) == g.degree(2) == 2

    def test_identity_is_congest(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h = ClusterGraph.identity(comm)
        assert h.n_vertices == comm.n
        assert h.dilation == 1
        assert sorted(h_edges(h)) == sorted(
            zip(*(a.tolist() for a in comm.link_arrays()))
        )

    def test_dilation_is_computed_once_per_graph(self, rng):
        import dataclasses
        import pickle

        h = blowup(nx.cycle_graph(6), rng, cluster_size=9, topology="path")
        assert h.dilation == int(h.forest.height.max()) == 8
        assert "dilation" in vars(h)  # cached on the instance
        star = blowup(nx.cycle_graph(6), rng, cluster_size=9, topology="star")
        copy = dataclasses.replace(h, forest=star.forest)
        assert copy.dilation == 1 and h.dilation == 8
        restored = pickle.loads(pickle.dumps(h))
        assert vars(restored)["dilation"] == restored.dilation == 8

    def test_max_degree_is_computed_once_per_graph(self):
        import dataclasses

        h = ClusterGraph.identity(CommGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert h.max_degree == 2
        assert vars(h)["max_degree"] == 2  # cached on the instance
        star = dataclasses.replace(
            h, csr=csr_from_adj_lists([[1, 2, 3], [0], [0], [0]])
        )
        assert star.max_degree == 3 and h.max_degree == 2

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

    @pytest.mark.parametrize(
        "assignment, match",
        [
            ([False, True, True, True], "integer"),
            ([[0, 0], [1, 1]], "1-D"),
            ([0, 0, -1, 1], "non-negative"),
            ([0, 0, 2, 2], "cluster id 1 is unused"),
            ([0, 0, 1], "covers 3 machines"),
            ([0, 1, 0, 1], "cluster 0 is not connected"),
        ],
        ids=["bool", "2d", "negative", "unused_id", "wrong_length", "disconnected"],
    )
    def test_invalid_input_rejected_alike_as_list_and_array(self, assignment, match):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        messages = []
        for given in (assignment, np.asarray(assignment)):
            with pytest.raises(ValueError, match=match) as info:
                ClusterGraph.from_assignment(comm, given)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_list_and_array_build_identical_arrays(self, rng):
        h = blowup(nx.cycle_graph(12), rng, cluster_size=5, topology="tree",
                   link_multiplicity=2, size_jitter=0.6)
        as_array = np.array(h.assignment, dtype=np.int64)
        from_list = ClusterGraph.from_assignment(h.comm, h.assignment.tolist())
        from_array = ClusterGraph.from_assignment(h.comm, as_array)
        for g in (from_list, from_array):
            got = [g.csr.indptr, g.csr.indices, g.assignment]
            got += [getattr(g.forest, f.name) for f in dataclasses.fields(g.forest)]
            want = [h.csr.indptr, h.csr.indices, h.assignment]
            want += [getattr(h.forest, f.name) for f in dataclasses.fields(h.forest)]
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64
                assert a.tobytes() == b.tobytes()
        # the graph keeps its own read-only copy of the caller's array
        as_array[:] = 0
        assert from_array.assignment.tobytes() == h.assignment.tobytes()
        assert not from_array.assignment.flags.writeable
        assert not from_array.forest.parent.flags.writeable

    def test_intra_cluster_links_not_h_edges(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = ClusterGraph.from_assignment(comm, [0, 0, 1, 1])
        assert h.n_h_edges == 1
        assert h.are_adjacent(0, 1)

    def test_anti_neighbors(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = ClusterGraph.identity(comm)
        nbrs = set(h.neighbors(0))
        assert [u for u in [0, 1, 2, 3] if u != 0 and u not in nbrs] == [2, 3]

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
        assert "adj" not in vars(h)  # nothing materialized at construction
        assert h.degree(1) == 2  # degree served straight from the CSR
        assert h.neighbors(1) == [0, 2]  # per-call CSR slice
        assert "adj" not in vars(h)
        view = h.adj
        assert view[1] == [0, 2]
        assert vars(h)["adj"] is view  # cached after first access
        assert h.neighbors(1) == view[1]


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
        got = nx.Graph(list(h_edges(h)))
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
            for a, b in zip(from_nx.comm.link_arrays(), from_arr.comm.link_arrays()):
                assert np.array_equal(a, b)


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
        for v in square:
            assert vg.neighbors(v) == sorted(square[v])
            assert all(type(u) is int for u in set(vg.neighbors(v)))
        assert vg.max_degree == max(dict(square.degree()).values())

    def test_max_degree_is_computed_once_per_graph(self):
        import dataclasses

        vg = distance2_virtual_graph(CommGraph(4, [(0, 1), (1, 2), (2, 3)]))
        assert vg.max_degree == 3
        assert vars(vg)["max_degree"] == 3  # cached on the instance
        path = dataclasses.replace(
            vg, csr=csr_from_adj_lists([[1], [0, 2], [1, 3], [2]])
        )
        assert path.max_degree == 2 and vg.max_degree == 3

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


def _random_voronoi(trial: int) -> ClusterGraph:
    """A random connected network cut into a random number of Voronoi
    regions."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(5, 150))
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(2 * n, 2))
    edges += [(int(a), int(b)) for a, b in extra if a != b]
    k = int(rng.integers(1, n + 1))
    return voronoi_clusters(CommGraph(n, edges), k, np.random.default_rng(trial + 100))


def _forest_instances() -> dict:
    """Builders of cluster graphs whose forests are checked against the
    sequential oracle besides the random Voronoi partitions: every
    generator at its small default size, and ``blowup`` over the cluster
    shapes and knobs."""
    from repro.fuzz.loop import DEFAULT_BASES
    from repro.workloads import GENERATORS

    cases = {
        name: lambda name=name: GENERATORS[name](
            np.random.default_rng(1), **DEFAULT_BASES.get(name, {})
        ).graph
        for name in sorted(GENERATORS)
    }
    target = nx.gnp_random_graph(25, 0.2, seed=2)
    for topology in ("star", "path", "bridge"):
        cases[f"blowup_{topology}"] = lambda topology=topology: blowup(
            target, np.random.default_rng(3), cluster_size=7, topology=topology
        )
    cases["blowup_jitter"] = lambda: blowup(
        target, np.random.default_rng(4), cluster_size=6, topology="tree",
        size_jitter=0.8,
    )
    cases["blowup_multiplicity"] = lambda: blowup(
        target, np.random.default_rng(5), cluster_size=4, topology="path",
        link_multiplicity=3,
    )
    return cases


FOREST_INSTANCES = _forest_instances()


class TestBuildForest:
    """The vectorized all-clusters BFS must reproduce the per-cluster
    sequential build exactly: roots, parents, depths, heights, and the
    discovery order."""

    @staticmethod
    def _assert_matches_sequential(graph):
        forest = graph.forest
        assert forest.offsets.size - 1 == forest.root.size == graph.n_vertices
        assert forest.members.size == forest.order.size == graph.n_machines
        heights = []
        for cid in range(graph.n_vertices):
            members = graph.members(cid).tolist()
            ref = SupportTree.build_bfs(graph.comm, members, cluster_id=cid)
            order = forest.order[forest.offsets[cid] : forest.offsets[cid + 1]]
            assert members == sorted(ref.parent)
            assert graph.leader(cid) == forest.root[cid] == ref.root
            assert order.tolist() == list(ref.parent)  # discovery order
            parents = [p if p >= 0 else None for p in forest.parent[order].tolist()]
            assert dict(zip(order.tolist(), parents)) == ref.parent
            assert dict(zip(order.tolist(), forest.depth[order].tolist())) == ref.depth_of
            assert forest.height[cid] == ref.height
            heights.append(ref.height)
            assert graph.cluster_size(cid) == len(members)
        assert graph.dilation == max(heights)

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_sequential_build(self, trial):
        self._assert_matches_sequential(_random_voronoi(trial))

    @pytest.mark.parametrize("case", sorted(FOREST_INSTANCES))
    def test_generated_instances_match_sequential_build(self, case):
        self._assert_matches_sequential(FOREST_INSTANCES[case]())

    def test_disconnected_cluster_reported_like_sequential(self):
        from repro.cluster import build_forest

        comm = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(
            ValueError,
            match=r"^cluster 0 is not connected in G; unreachable machines include \[2\]$",
        ):
            build_forest(comm, np.array([0, 0, 0, 1], dtype=np.int64))

    def test_disconnected_message_names_smallest_cluster_and_five_machines(self):
        from repro.cluster import build_forest

        # cluster 0 is whole; clusters 1 and 2 are both split, and the
        # strays of cluster 2 have the smaller machine ids
        comm = CommGraph(20, [(0, 1), (2, 3), (11, 12), (15, 16)])
        assign = np.array([0, 0] + [2] * 9 + [1] * 9, dtype=np.int64)
        with pytest.raises(ValueError) as info:
            build_forest(comm, assign)
        sequential = []
        for cid in range(3):
            members = np.flatnonzero(assign == cid).tolist()
            try:
                SupportTree.build_bfs(comm, members, cluster_id=cid)
            except ValueError as exc:
                sequential.append(str(exc))
        assert str(info.value) == sequential[0] == (
            "cluster 1 is not connected in G; "
            "unreachable machines include [13, 14, 15, 16, 17]"
        )


CYCLE = [(0, 1), (1, 2), (2, 3), (3, 0)]
STAR = [(0, 1), (0, 2), (0, 3)]


def _csr(edges):
    u, v = np.array(edges, dtype=np.int64).T
    return CSRAdjacency.from_edge_arrays(u, v, 4)


def _cluster_graph(csr):
    return dataclasses.replace(ClusterGraph.identity(CommGraph(4, CYCLE)), csr=csr)


def _virtual_graph(csr):
    comm = CommGraph(4, CYCLE)
    supports = [[v, *comm.neighbors(v).tolist()] for v in range(4)]
    return VirtualGraph(comm=comm, supports=supports, csr=csr, congestion=2, dilation=2)


def _frozen_graph(csr):
    return FrozenConflictGraph(csr=csr, cluster_sizes=np.ones(4, dtype=np.int64), dilation=1)


BUILDERS = [_cluster_graph, _virtual_graph, _frozen_graph]
BUILDER_IDS = ["ClusterGraph", "VirtualGraph", "FrozenConflictGraph"]


class TestConflictGraphInterface:
    """The three conflict-graph classes read adjacency only through
    ``csr``; nothing derived from it may outlive a ``dataclasses.replace``
    onto a new CSR or a pickle round trip."""

    @staticmethod
    def oracle(edges):
        nbrs = {v: set() for v in range(4)}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return nbrs

    def assert_reads_match(self, graph, edges):
        nbrs = self.oracle(edges)
        for v in range(4):
            assert graph.neighbors(v) == sorted(nbrs[v])
            got = set(graph.neighbors(v))
            assert got == nbrs[v]
            for u in range(4):
                assert graph.are_adjacent(v, u) == (u in nbrs[v])
            expected_anti = [u for u in range(4) if u != v and u not in nbrs[v]]
            assert [u for u in range(4) if u != v and u not in got] == expected_anti
        assert graph.max_degree == max(len(s) for s in nbrs.values())

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_replace_and_pickle_drop_derived_views(self, build):
        graph = build(_csr(CYCLE))
        self.assert_reads_match(graph, CYCLE)  # fills every cache
        star = dataclasses.replace(graph, csr=_csr(STAR))
        self.assert_reads_match(star, STAR)
        self.assert_reads_match(graph, CYCLE)
        self.assert_reads_match(pickle.loads(pickle.dumps(star)), STAR)
        self.assert_reads_match(pickle.loads(pickle.dumps(graph)), CYCLE)

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_whole_interface_matches_oracle(self, build):
        for edges in (CYCLE, STAR):
            graph = build(_csr(edges))
            nbrs = self.oracle(edges)
            lex = sorted((min(a, b), max(a, b)) for a, b in edges)
            for v in range(4):
                assert graph.degree(v) == len(nbrs[v])
                assert graph.neighbor_array(v).tolist() == sorted(nbrs[v])
                assert graph.adj[v] == sorted(nbrs[v])
            assert graph.n_vertices == 4
            assert [a.tolist() for a in graph.h_edge_arrays()] == [list(e) for e in zip(*lex)]
            assert graph.n_h_edges == len(lex)

    def test_csr_edge_arrays_follow_replace(self):
        csr = _csr(CYCLE)
        assert [a.tolist() for a in csr.edge_arrays()] == [[0, 0, 1, 2], [1, 3, 2, 3]]
        star = _csr(STAR)
        replaced = dataclasses.replace(csr, indptr=star.indptr, indices=star.indices)
        assert [a.tolist() for a in replaced.edge_arrays()] == [[0, 0, 0], [1, 2, 3]]
        revived = pickle.loads(pickle.dumps(replaced))
        assert [a.tolist() for a in revived.edge_arrays()] == [[0, 0, 0], [1, 2, 3]]

    def test_no_private_init_fields(self):
        """A cache held as an init field is carried over by
        ``dataclasses.replace`` and answers for the old adjacency."""
        for cls in (ClusterGraph, VirtualGraph, FrozenConflictGraph, CSRAdjacency):
            private = [
                f.name for f in dataclasses.fields(cls)
                if f.init and f.name.startswith("_")
            ]
            assert private == [], (cls.__name__, private)

    @staticmethod
    def brute_force_links(graph):
        links = {}
        for gu, gv in zip(*(a.tolist() for a in graph.comm.link_arrays())):
            cu, cv = graph.assignment[gu], graph.assignment[gv]
            if cu == cv:
                continue
            key = (min(cu, cv), max(cu, cv))
            links.setdefault(key, []).append((gu, gv) if cu < cv else (gv, gu))
        return sorted(links.items())

    def test_links_match_brute_force(self):
        graphs = [figure1_example().graph]
        for seed, topology in enumerate(("path", "star", "clique", "tree")):
            graphs.append(
                blowup(nx.petersen_graph(), np.random.default_rng(seed),
                       cluster_size=4, topology=topology, link_multiplicity=3)
            )
        for graph in graphs:
            expected = self.brute_force_links(graph)
            assert any(len(realizers) > 1 for _, realizers in expected)
            links = {}
            for u, v, x, y in zip(*(a.tolist() for a in graph.realizing_links())):
                links.setdefault((u, v), []).append((x, y))
            assert list(links.items()) == expected
            for key, realizers in expected:
                for x, y in realizers:
                    assert graph.assignment[x] == key[0]
                    assert graph.assignment[y] == key[1]
