"""Sparsity, buddy predicate, ACD (Prop. 4.3), cabal classification."""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import blowup
from repro.decomposition import (
    AlmostCliqueDecomposition,
    annotate_with_cabals,
    anti_degree_proxy,
    buddy_predicate,
    compute_acd,
    exact_acd_reference,
    friendly_edges,
    is_valid_almost_clique,
    all_sparsities,
    sparsity,
)
from repro.params import scaled
from repro.verify import check_acd
from repro.workloads import cabal_instance, planted_acd_instance
from tests.conftest import anti_degree, external_degree, h_edges, make_runtime


class TestSparsity:
    def test_clique_vertex_has_zero_sparsity(self, rng):
        h = blowup(nx.complete_graph(20), rng, cluster_size=1)
        # every neighbor pair is adjacent -> no missing edges
        assert sparsity(h, 0) == pytest.approx(0.0)

    def test_star_center_is_maximally_sparse(self, rng):
        h = blowup(nx.star_graph(20), rng, cluster_size=1)
        # center's neighborhood has no internal edges at all
        delta = h.max_degree
        assert sparsity(h, 0) == pytest.approx(delta * (delta - 1) / 2 / delta)

    def test_all_sparsities_matches_scalar(self, rng):
        h = blowup(nx.gnp_random_graph(30, 0.3, seed=4), rng, cluster_size=1)
        vec = all_sparsities(h)
        for v in range(h.n_vertices):
            assert vec[v] == pytest.approx(sparsity(h, v), abs=1e-6)

    @pytest.mark.parametrize("chunk", [1, 37, 1 << 20])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparsity_and_friendly_edges_match_set_oracle(
        self, rng, seed, chunk, monkeypatch
    ):
        import repro.graphcore.kernels as kernels

        # small chunks split the common-neighbor gather into many passes
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        h = blowup(nx.gnp_random_graph(40, 0.4, seed=seed), rng, cluster_size=1)
        delta = h.max_degree
        nbrs = [set(h.neighbors(v)) for v in range(h.n_vertices)]
        vec = all_sparsities(h)
        for v in range(h.n_vertices):
            common = sum(len(nbrs[u] & nbrs[v]) for u in nbrs[v])
            expected = (delta * (delta - 1) / 2.0 - common / 2.0) / delta
            assert sparsity(h, v) == expected
            assert vec[v] == expected
        xi = 0.7
        expected_friendly = {
            (u, v)
            for u, v in h_edges(h)
            if len(nbrs[u] & nbrs[v]) >= (1 - xi) * delta
        }
        assert 0 < len(expected_friendly) < h.n_h_edges
        assert friendly_edges(h, xi) == expected_friendly


class TestValidity:
    def test_planted_clique_is_valid(self, planted_workload):
        g = planted_workload.graph
        for members in planted_workload.planted_cliques:
            assert is_valid_almost_clique(g, members, scaled().eps)

    def test_fragment_can_be_invalid(self, planted_workload):
        g = planted_workload.graph
        clique = planted_workload.planted_cliques[0]
        oversized = clique + planted_workload.planted_sparse[:40]
        assert not is_valid_almost_clique(g, oversized, scaled().eps)

    def test_empty_invalid(self, planted_workload):
        assert not is_valid_almost_clique(planted_workload.graph, [], 0.1)


class TestBuddyPredicate:
    def test_separates_planted_structure(self, planted_workload):
        g = planted_workload.graph
        runtime = make_runtime(g)
        result = buddy_predicate(runtime, xi=0.25)
        planted = {
            frozenset((u, v))
            for members in planted_workload.planted_cliques
            for i, u in enumerate(members)
            for v in members[i + 1 :]
            if g.are_adjacent(u, v)
        }
        yes = {
            frozenset((int(u), int(v)))
            for u, v in zip(result.yes_u, result.yes_v)
        }
        # nearly all intra-clique edges detected, nearly nothing else
        recall = len(yes & planted) / len(planted)
        precision = len(yes & planted) / max(1, len(yes))
        assert recall > 0.95
        assert precision > 0.95

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_blocked_probes_equal_a_single_block(
        self, planted_workload, chunk, monkeypatch
    ):
        """Edge blocks, plane-packing blocks and the freed table leave the
        YES edges, the estimates, the ledger and the RNG end state as one
        block leaves them."""
        import repro.graphcore.kernels as kernels

        g = planted_workload.graph

        def run():
            runtime = make_runtime(g)
            result = buddy_predicate(runtime, xi=0.25)
            return result, runtime

        monkeypatch.setattr(kernels, "_GATHER_CHUNK", 1 << 40)
        whole, whole_runtime = run()
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        got, runtime = run()
        assert whole.yes_u.size > 0
        for name in ("yes_u", "yes_v", "degree_estimates"):
            a, b = getattr(got, name), getattr(whole, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert runtime.ledger.summary() == whole_runtime.ledger.summary()
        assert runtime.rng.bit_generator.state == whole_runtime.rng.bit_generator.state

    def test_exact_friendly_edges_reference(self, planted_workload):
        g = planted_workload.graph
        exact = friendly_edges(g, xi=0.25)
        for u, v in exact:
            common = len(set(g.neighbors(u)) & set(g.neighbors(v)))
            assert common >= (1 - 0.25) * g.max_degree


class TestComputeAcd:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_planted_cliques(self, seed):
        w = planted_acd_instance(np.random.default_rng(seed))
        runtime = make_runtime(w.graph, seed=seed + 100)
        acd = compute_acd(runtime)
        found = sorted(tuple(c) for c in acd.cliques)
        assert found == sorted(tuple(c) for c in w.planted_cliques)
        assert sorted(acd.sparse) == sorted(w.planted_sparse)

    def test_result_satisfies_definition_4_2(self, planted_workload):
        runtime = make_runtime(planted_workload.graph)
        acd = compute_acd(runtime)
        assert check_acd(planted_workload.graph, acd, scaled().eps) == []

    def test_sparse_only_graph(self, rng):
        h = blowup(nx.random_regular_graph(8, 50, seed=7), rng, cluster_size=1)
        runtime = make_runtime(h)
        acd = compute_acd(runtime)
        assert acd.cliques == []
        assert len(acd.sparse) == 50

    def test_matches_exact_reference(self, planted_workload):
        g = planted_workload.graph
        runtime = make_runtime(g)
        acd = compute_acd(runtime)
        _sparse_ref, cliques_ref = exact_acd_reference(g, scaled().eps, xi=0.25)
        assert sorted(tuple(c) for c in acd.cliques) == sorted(
            tuple(c) for c in cliques_ref
        )


class TestCabalClassification:
    def test_low_external_degree_cliques_are_cabals(self, cabal_workload):
        runtime = make_runtime(cabal_workload.graph)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        assert len(acd.cliques) == len(cabal_workload.planted_cliques)
        assert all(acd.cabal_flags)

    def test_high_external_degree_cliques_are_not(self):
        w = planted_acd_instance(
            np.random.default_rng(5), external_degree=25, n_sparse=120
        )
        runtime = make_runtime(w.graph)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        assert acd.num_cliques > 0
        assert not any(acd.cabal_flags)

    def test_external_degree_estimates_close(self, planted_workload):
        g = planted_workload.graph
        runtime = make_runtime(g)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        errors = []
        for members in acd.cliques:
            for v in members:
                true = external_degree(acd, g, v)
                errors.append(abs(acd.e_tilde[v] - true))
        assert np.mean(errors) < 2.0

    def test_reserved_colors_positive_and_capped(self, planted_workload):
        runtime = make_runtime(planted_workload.graph)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        delta = planted_workload.graph.max_degree
        params = scaled()
        for r in acd.reserved:
            assert 1 <= r <= params.reserved_cap_mult * params.eps * delta

    def test_anti_degree_proxy_error_bound(self, planted_workload):
        """Equation (3): x_v in a_v - (Delta - deg(v)) ± delta*e_v, modulo
        the e~_v estimation noise."""
        g = planted_workload.graph
        runtime = make_runtime(g)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        delta = g.max_degree
        for members in acd.cliques:
            for v in members[:10]:
                x_v = anti_degree_proxy(acd, g, v)
                a_v = anti_degree(acd, g, v)
                e_v = external_degree(acd, g, v)
                center = a_v - (delta - g.degree(v))
                noise = abs(acd.e_tilde[v] - e_v)
                assert abs(x_v - center) <= scaled().delta * e_v + noise + 1e-9

    def test_proxy_rejects_sparse_vertices(self, planted_workload):
        runtime = make_runtime(planted_workload.graph)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        with pytest.raises(ValueError):
            anti_degree_proxy(acd, planted_workload.graph, acd.sparse[0])


class TestLeaderBfsDepth:
    """ComputeACD charges its leader BFS from ``graphcore.bfs_depth``; the
    depth must be the tallest tree ``bfs_forest`` would build."""

    @pytest.mark.parametrize("seed", range(6))
    def test_depth_equals_tallest_bfs_forest_tree(self, seed):
        from repro.aggregation.bfs import bfs_forest
        from repro.graphcore import bfs_depth

        rng = np.random.default_rng(seed)
        w = planted_acd_instance(rng, n_cliques=2, clique_size=20, n_sparse=40)
        g = w.graph
        n = g.n_vertices
        order = rng.permutation(n)
        # disjoint parts of sizes 1..12 over most of the vertices
        cuts = np.cumsum(rng.integers(1, 13, size=n))
        cuts = cuts[cuts < n - 5]
        parts = [part.tolist() for part in np.split(order[: cuts[-1]], cuts[:-1])]
        # from the vertices left over: two non-adjacent ones, a part whose
        # H-induced subgraph cannot reach all of its members, and a singleton
        rest = order[cuts[-1] :].tolist()
        far = next(
            [a, b] for a in rest for b in rest if a < b and not g.are_adjacent(a, b)
        )
        parts += [far, [next(v for v in rest if v not in far)]]
        labels = np.full(n, -1, dtype=np.int64)
        for i, part in enumerate(parts):
            labels[part] = i
        sources = [int(rng.choice(part)) for part in parts]

        runtime = make_runtime(g)
        trees = bfs_forest(runtime, list(zip(sources, parts)))
        assert len(trees[-2].parent) == 1  # the far pair stays unreached
        depth = bfs_depth(g.csr, labels, sources)
        assert depth == max(tree.height for tree in trees)
        assert runtime.ledger.rounds_h == max(1, depth)

    def test_no_sources_has_depth_zero(self, planted_workload):
        from repro.graphcore import bfs_depth

        g = planted_workload.graph
        labels = np.full(g.n_vertices, -1, dtype=np.int64)
        assert bfs_depth(g.csr, labels, []) == 0


class TestPinnedBitwiseDecomposition:
    """The PR-4 vectorization (batched fingerprints, label-propagation
    components, gather-based external degrees) promised *bitwise* identical
    decompositions.  These digests were captured from the per-vertex
    implementation; any RNG-order or numeric drift changes them."""

    PINNED = {
        "planted_acd": "9aebc203a1a5e005289c4d95ac2ebd65",
        "cabal": "dc8965c02c38e588a730ee8beb2ad09e",
    }

    @pytest.mark.parametrize("family", sorted(PINNED))
    def test_decomposition_digest(self, family):
        import hashlib
        import json

        maker = {"planted_acd": planted_acd_instance, "cabal": cabal_instance}[
            family
        ]
        w = maker(np.random.default_rng(42))
        runtime = make_runtime(w.graph, seed=7)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(acd.clique_of).tobytes())
        digest.update(json.dumps(acd.cliques).encode())
        digest.update(json.dumps(sorted(acd.e_tilde.items())).encode())
        digest.update(json.dumps(acd.e_tilde_clique).encode())
        digest.update(json.dumps(acd.cabal_flags).encode())
        digest.update(json.dumps(acd.reserved).encode())
        # the post-decomposition RNG position is part of the contract: a
        # stage that draws a different number of variates shifts everything
        # downstream even if its own output matches
        digest.update(np.float64(runtime.rng.random()).tobytes())
        assert digest.hexdigest()[:32] == self.PINNED[family]
