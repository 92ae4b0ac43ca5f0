"""Workload generators: planted structure, determinism, connectivity."""

import numpy as np
import pytest

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
from tests.conftest import h_edges

ALL_GENERATORS = [
    planted_acd_instance,
    cabal_instance,
    congest_instance,
    contraction_instance,
    voronoi_instance,
    bridge_pathology,
    high_degree_instance,
    low_degree_instance,
]


class TestAllGenerators:
    @pytest.mark.parametrize("maker", ALL_GENERATORS)
    def test_valid_cluster_graph(self, maker):
        w = maker(np.random.default_rng(1))
        g = w.graph
        assert g.n_vertices > 0
        assert g.max_degree >= 1
        # partition covers all machines with connected clusters (validated
        # at construction); sanity-check the totals anyway
        assert sum(g.cluster_size(v) for v in range(g.n_vertices)) == g.n_machines

    @pytest.mark.parametrize("maker", ALL_GENERATORS)
    def test_deterministic_given_seed(self, maker):
        a = maker(np.random.default_rng(9))
        b = maker(np.random.default_rng(9))
        assert a.graph.n_vertices == b.graph.n_vertices
        assert sorted(h_edges(a.graph)) == sorted(h_edges(b.graph))


class TestPlantedAcd:
    def test_planted_cliques_are_cliques_minus_anti_edges(self, rng):
        w = planted_acd_instance(rng, anti_degree=1)
        g = w.graph
        for members in w.planted_cliques:
            for v in members:
                non_nbrs = [
                    u for u in members if u != v and not g.are_adjacent(u, v)
                ]
                assert len(non_nbrs) <= 1  # anti-degree budget respected

    def test_sparse_part_is_sparse(self, rng):
        w = planted_acd_instance(rng)
        g = w.graph
        clique_size = len(w.planted_cliques[0])
        degrees = [g.degree(v) for v in w.planted_sparse]
        # on average well below clique degree (individual outliers allowed)
        assert np.mean(degrees) < 0.8 * clique_size

    def test_external_degree_knob(self, rng):
        low = planted_acd_instance(np.random.default_rng(3), external_degree=1)
        high = planted_acd_instance(np.random.default_rng(3), external_degree=10)
        def avg_external(w):
            g = w.graph
            total = 0
            count = 0
            for members in w.planted_cliques:
                mset = set(members)
                for v in members:
                    total += len(set(g.neighbors(v)) - mset)
                    count += 1
            return total / count
        assert avg_external(high) > avg_external(low) + 5


class TestCabalInstance:
    def test_anti_degree_knob(self):
        w = cabal_instance(np.random.default_rng(4), anti_degree=3)
        g = w.graph
        anti = []
        for members in w.planted_cliques:
            for v in members:
                anti.append(
                    sum(1 for u in members if u != v and not g.are_adjacent(u, v))
                )
        assert 1.0 <= np.mean(anti) <= 3.0

    def test_tiny_external_degree(self):
        w = cabal_instance(np.random.default_rng(5))
        g = w.graph
        for members in w.planted_cliques:
            mset = set(members)
            externals = [len(set(g.neighbors(v)) - mset) for v in members]
            assert np.mean(externals) < 1.0

    def test_single_cabal(self):
        w = cabal_instance(np.random.default_rng(6), n_cabals=1)
        assert len(w.planted_cliques) == 1


class TestSpecials:
    def test_figure1_is_connected_4_vertex(self):
        w = figure1_example()
        assert w.graph.n_vertices == 4
        assert w.graph.n_machines == 9

    def test_bridge_has_bridge_dilation(self, rng):
        w = bridge_pathology(rng)
        assert w.graph.dilation >= 2  # two stars joined by a bridge

    def test_high_degree_clears_scaled_threshold(self):
        from repro.params import scaled

        w = high_degree_instance(np.random.default_rng(7), n_vertices=300)
        assert w.graph.max_degree >= scaled().delta_low(w.graph.n_machines)

    def test_low_degree_is_regular(self):
        w = low_degree_instance(np.random.default_rng(8), target_degree=6)
        degrees = {w.graph.degree(v) for v in range(w.graph.n_vertices)}
        assert degrees == {6}


class TestStreamGenerators:
    """Churn streams: registry exposure, determinism, and batch validity
    (validity is proven by driving the engine over every emitted batch)."""

    def test_streams_registered_uniformly(self):
        from repro.workloads import GENERATORS, STREAMS

        for name in STREAMS:
            assert name in GENERATORS
            assert GENERATORS[name] is STREAMS[name]

    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_stream_is_workload_with_batches(self, name):
        from repro.workloads import STREAMS, StreamWorkload, Workload

        w = STREAMS[name](np.random.default_rng(0))
        assert isinstance(w, StreamWorkload)
        assert isinstance(w, Workload)  # uniform listing/coloring surface
        assert w.graph.n_vertices > 0
        assert len(w.batches) > 0
        assert w.total_updates == sum(len(b) for b in w.batches)

    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_deterministic_given_seed(self, name):
        from repro.workloads import STREAMS

        a = STREAMS[name](np.random.default_rng(5))
        b = STREAMS[name](np.random.default_rng(5))
        assert sorted(h_edges(a.graph)) == sorted(h_edges(b.graph))
        assert len(a.batches) == len(b.batches)
        for ba, bb in zip(a.batches, b.batches):
            ca, cb = ba.columns(), bb.columns()
            for name in ca:
                assert ca[name].dtype == cb[name].dtype
                assert np.array_equal(ca[name], cb[name]), name

    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_every_batch_is_applicable(self, name):
        from repro.dynamic import DynamicColoring
        from repro.workloads import STREAMS

        w = STREAMS[name](np.random.default_rng(11))
        engine = DynamicColoring(w.graph, seed=2)
        result = engine.run(w.batches)  # engine raises on any invalid event
        assert result.batches == len(w.batches)
        assert result.all_proper

    def test_cluster_churn_needs_splittable_clusters(self):
        from repro.workloads import cluster_churn_stream

        with pytest.raises(ValueError, match="cluster_size"):
            cluster_churn_stream(np.random.default_rng(0), cluster_size=1)


class TestParamValidation:
    """Call-time validation through the PARAM_SPECS registry."""

    def test_every_generator_has_specs(self):
        from repro.workloads import GENERATORS, PARAM_SPECS

        assert set(PARAM_SPECS) == set(GENERATORS)

    def test_unknown_parameter_rejected_upfront(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="no parameter 'bogus'"):
            GENERATORS["planted_acd"](np.random.default_rng(0), bogus=1)

    def test_out_of_bounds_rejected_with_bound_in_message(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="must be >= 2"):
            GENERATORS["cabal"](np.random.default_rng(0), clique_size=1)
        with pytest.raises(ValueError, match="must be <= 1"):
            GENERATORS["congest"](np.random.default_rng(0), p=1.5)

    def test_wrong_type_rejected(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="must be an integer"):
            GENERATORS["congest"](np.random.default_rng(0), n=200.5)
        with pytest.raises(ValueError, match="must be an integer"):
            GENERATORS["congest"](np.random.default_rng(0), n=True)

    @pytest.mark.parametrize(
        "generator, param",
        [
            ("hotspot_churn", "hotspot_fraction"),
            ("congest", "net_fill"),
            ("congest", "net_skew"),
            ("congest", "p"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_rejected(self, generator, param, value):
        from repro.workloads import GENERATORS, STREAMS

        maker = {**GENERATORS, **STREAMS}[generator]
        with pytest.raises(ValueError, match=f"'{param}' must be a finite number"):
            maker(np.random.default_rng(0), **{param: value})

    def test_bad_choice_rejected(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="must be one of"):
            GENERATORS["high_degree"](
                np.random.default_rng(0), topology="moebius"
            )

    def test_none_only_where_allowed(self):
        from repro.workloads import GENERATORS

        # congest's p is generator-computed when None
        GENERATORS["congest"](np.random.default_rng(0), n=60, p=None)
        with pytest.raises(ValueError, match="does not accept None"):
            GENERATORS["congest"](np.random.default_rng(0), n=None)

    def test_spec_defaults_are_valid(self):
        from repro.workloads import PARAM_SPECS
        from repro.workloads.specs import validate_params

        for name, specs in PARAM_SPECS.items():
            defaults = {
                k: s.default for k, s in specs.items() if s.default is not None
            }
            validate_params(name, defaults)

    def test_fuzz_boxes_inside_hard_bounds(self):
        from repro.workloads import PARAM_SPECS

        for name, specs in PARAM_SPECS.items():
            for pname, spec in specs.items():
                if not spec.fuzz or spec.kind == "choice":
                    continue
                lo, hi = spec.box
                assert lo <= hi, f"{name}.{pname}"
                if spec.low is not None:
                    assert lo >= spec.low, f"{name}.{pname}"
                if spec.high is not None:
                    assert hi <= spec.high, f"{name}.{pname}"

    def test_low_degree_degree_not_below_n_rejected_before_any_draw(self):
        """``target_degree`` and ``n_vertices`` pass their bounds one by
        one; together (after the parity bump) they cannot make a regular
        graph, and the generator says so before touching the rng."""
        from repro.workloads import GENERATORS

        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="target_degree=8 and n_vertices=5"):
            GENERATORS["low_degree"](rng, n_vertices=5, target_degree=8)
        with pytest.raises(ValueError, match="target_degree=6 and n_vertices=6"):
            GENERATORS["low_degree"](rng, n_vertices=6, target_degree=6)
        assert rng.bit_generator.state == before

    def test_clamp_params_output_validates(self):
        from repro.workloads.specs import clamp_params, validate_params

        wild = {"n": 10**9, "p": 5.0, "n_clusters": 10**9}
        cleaned = clamp_params("voronoi", wild)
        validate_params("voronoi", cleaned)
        assert cleaned["n_clusters"] <= cleaned["n"]


def _instance_digest(workload, rng) -> str:
    """sha256 over everything a generator decides: the H CSR, the
    assignment, the communication links, the stream batches (if any) and
    one draw from the rng it left behind (its end state)."""
    import hashlib

    from repro.dynamic.updates import KINDS

    graph = workload.graph
    h = hashlib.sha256()
    for arr in (
        graph.csr.indptr,
        graph.csr.indices,
        np.asarray(graph.assignment, dtype=np.int64),
        *graph.comm.link_arrays(),
    ):
        a = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    for batch in getattr(workload, "batches", ()):
        cols = {name: col.tolist() for name, col in batch.columns().items()}
        offsets, edges = cols["offsets"], cols["edges"]
        h.update(repr([
            (KINDS[kind], u, v, tuple(edges[offsets[i]:offsets[i + 1]]), size)
            for i, (kind, u, v, size) in enumerate(
                zip(cols["kind"], cols["u"], cols["v"], cols["size"])
            )
        ]).encode())
    h.update(np.float64(rng.random()).tobytes())
    return h.hexdigest()


def _blowup_workload(rng, *, topology, size_jitter):
    import networkx as nx

    from repro.cluster.builders import blowup
    from repro.workloads import Workload

    h = nx.gnp_random_graph(40, 0.15, seed=3)
    return Workload(
        name="blowup",
        graph=blowup(
            h, rng, cluster_size=4, topology=topology,
            link_multiplicity=2, size_jitter=size_jitter,
        ),
    )


BLOWUP_DIGESTS = {
    ("path", 0.0): "e407ef4a6e7de15c141e6b0c9db7fca7ae615965283c8409400fc93ed319e10a",
    ("path", 0.5): "4ef7d5217435eb7e78b52cfa3e9e68b878a931aa814290c4aefc0fe764045208",
    ("star", 0.0): "15f350d794ca4fe64953f1491f147e5465c52ed990869b64be7e401b1d119e9a",
    ("star", 0.5): "51c96f3b118812cbb47aaaa2bfd83fe0c9ec80b2266f910ed3879847ad579e04",
    ("clique", 0.0): "035e53255d1857e1f7e14ff43f04e752c79fbb51aee4d4d99eba10b23bd34c54",
    ("clique", 0.5): "8b8032df2e7f7f47ee2188cd94f3d47f6f7aae2ed76fae1d4fdd326fdf137db4",
    ("tree", 0.0): "89df9a7143d3c65558dc711c202757ee94f9b86fad5eabe32f668943ed6ae682",
    ("tree", 0.5): "d5b42d0cb0546720a3f30d82f84a189735d3ad758c804fb7cda8889bc30b8768",
    ("bridge", 0.0): "bcaa102f1718bb9bfe81e40e2f5f070df14ad60078672873532d1a1262c4ab74",
    ("bridge", 0.5): "ad1edf2bf8d7d20efacac6329ae4f19fd60878f557d7291533885fc1bedc52b1",
}

#: (case id, generator name or callable, kwargs, sha256).  The digests were
#: captured before instance construction moved off networkx; every case
#: must keep building the bit-identical instance and rng end state.
PINNED_INSTANCES = [
    ("planted_acd", "planted_acd", {},
     "d6d479885b80eedb2c9b843d7a681106c907c4ebdf77b642eeecf9bca28dca97"),
    ("planted_acd-tree", "planted_acd",
     dict(n_cliques=2, clique_size=20, n_sparse=30, topology="tree"),
     "579f6cb55c9dc5daa7b6cbf43b85f13b73584816f7dfa57f17059b293f7da406"),
    ("cabal", "cabal", dict(clique_size=30),
     "044b93246355d617fde881647401ae77816e643387fa2cad32af91fb9b216bf4"),
    ("congest", "congest", dict(n=120),
     "34b8e0427edf102753352a5b40c1a9319eded20b0edc5aa13d1e30a100350ad5"),
    ("congest-sparse", "congest", dict(n=300, avg_degree=1.2),
     "30fd4be989baad566eef745de12bf5d50a0cb6c5944ca69c8474a67472bef20a"),
    ("contraction", "contraction", dict(n=200),
     "217c58077d055fa070eb14378d93cc1c19888ee9e46678e11ab2214789794752"),
    ("contraction-avg", "contraction", dict(n=300, avg_degree=6.0),
     "d6d60cd48dca111951eb1cec051290c9d1d3d48d72b2e27cc465eaec9be7bced"),
    ("voronoi", "voronoi", dict(n=200, n_clusters=40),
     "175ec6cb8bade12c329221d68aa527af355e664fc67957c0e83e8b96b4022511"),
    ("voronoi-avg", "voronoi", dict(n=300, avg_degree=3.0, n_clusters=50),
     "8f0aece79e78c885eb103df245f9c12c936b380a22df3a654508d0a9f1b6cc54"),
    ("bridge", "bridge", {},
     "6f11201b15ea738774a3cf37fbf957f6a809415d8153ac9f76d22fcb67181752"),
    ("high_degree-fraction", "high_degree", dict(n_vertices=120),
     "84522211c7ae7052c06ff44ca8f26d6fac3405bf6764d22ddaf1683230f7a53a"),
    ("high_degree-avg", "high_degree",
     dict(n_vertices=400, avg_degree=30, cluster_size=3, topology="path"),
     "a70ab81d094c90d46f5b0474df9d6be09bdfd5af33f0c9b09688774c3f40b2f5"),
    ("high_degree-clique", "high_degree",
     dict(n_vertices=80, cluster_size=4, topology="clique"),
     "6cbc10458aed088fbdf03d740fceee1d47e97e2768bd5606d4b71ca5b8e802cf"),
    ("high_degree-tree", "high_degree",
     dict(n_vertices=80, cluster_size=5, topology="tree"),
     "e10292c9df4017b780a41ed4299c9bb7ed7a9036f9e6a784fe8367ed25c4d01e"),
    ("high_degree-bridge", "high_degree",
     dict(n_vertices=80, cluster_size=5, topology="bridge"),
     "73ffb543e15d41d09f0bdc7c04fe058ba9241f7515f5fb3b606cd5e6e8586530"),
    ("low_degree", "low_degree", dict(n_vertices=200),
     "25ef7b808e93e05786cd7e4f400c056eef7fa125af4b285f46cd97e299d94d4f"),
    ("figure1", "figure1", {},
     "e3d7effb58ef1e66946a9bfed6d247524e3fe5bf677df6c58d68ea3a3a573cab"),
    ("sliding_window", "sliding_window", {},
     "853d78dc9b08f2201200cb95074e2c7f31ad3754e0c09bb6f8b196430c651810"),
    ("hotspot_churn", "hotspot_churn", {},
     "798f3c076cd95288884810cec4107dc88c9e92fe9222589d733049e830ddc540"),
    ("cluster_churn", "cluster_churn", dict(cluster_size=2),
     "63e404d5c15fab678348f137d6ee4d6ac8abb0230a45d4c90b6b39053e213097"),
] + [
    (f"blowup-{topology}-jitter{jitter}", _blowup_workload,
     dict(topology=topology, size_jitter=jitter),
     BLOWUP_DIGESTS[topology, jitter])
    for topology in ("path", "star", "clique", "tree", "bridge")
    for jitter in (0.0, 0.5)
]


class TestPinnedInstances:
    """Every generator builds the instance it built before construction
    moved to edge arrays: same H, assignment, links and rng end state."""

    def test_every_generator_is_pinned(self):
        from repro.workloads import GENERATORS

        covered = {maker for _, maker, _, _ in PINNED_INSTANCES}
        assert set(GENERATORS) <= covered

    @pytest.mark.parametrize(
        "maker,kwargs,expected",
        [case[1:] for case in PINNED_INSTANCES],
        ids=[case[0] for case in PINNED_INSTANCES],
    )
    def test_instance_digest(self, maker, kwargs, expected):
        from repro.workloads import GENERATORS

        rng = np.random.default_rng(7)
        make = GENERATORS[maker] if isinstance(maker, str) else maker
        assert _instance_digest(make(rng, **kwargs), rng) == expected


def _nx_array(graph) -> np.ndarray:
    flat = np.fromiter((x for e in graph.edges() for x in e), dtype=np.int64)
    return flat.reshape(-1, 2)


def _nx_edges(graph) -> list[list[int]]:
    return _nx_array(graph).tolist()


class TestGnpPorts:
    """The array samplers against networkx as oracle: same edges, same
    order, element by element."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.05, 0.5, 1.0])
    def test_samplers_match_networkx(self, n, p):
        import networkx as nx

        from repro.workloads.gnp import fast_gnp_edges, gnp_edges

        # a million-edge networkx oracle is slow: one seed there
        seeds = (0,) if n * p >= 1000 else (0, 1, 7, 2**31 - 1)
        for seed in seeds:
            assert np.array_equal(
                fast_gnp_edges(n, p, seed),
                _nx_array(nx.fast_gnp_random_graph(n, p, seed=seed)),
            )
            assert np.array_equal(
                gnp_edges(n, p, seed), _nx_array(nx.gnp_random_graph(n, p, seed=seed))
            )

    def test_dense_draw_crosses_blocks(self, monkeypatch):
        import networkx as nx

        from repro.workloads import gnp

        monkeypatch.setattr(gnp, "BLOCK_DRAWS", 97)
        for seed in range(3):
            assert gnp.gnp_edges(60, 0.3, seed).tolist() == _nx_edges(
                nx.gnp_random_graph(60, 0.3, seed=seed)
            )
            assert gnp.fast_gnp_edges(300, 0.02, seed).tolist() == _nx_edges(
                nx.fast_gnp_random_graph(300, 0.02, seed=seed)
            )

    @staticmethod
    def _nx_random_network(rng, n, p, avg_degree):
        """The networkx construction ``_random_network`` replaced: the
        oracle for its edges, their order and the connectivity patch."""
        import networkx as nx

        seed = int(rng.integers(0, 2**31))
        if avg_degree is not None:
            p = min(1.0, avg_degree / max(1, n - 1))
            g = nx.fast_gnp_random_graph(n, p, seed=seed)
        else:
            g = nx.erdos_renyi_graph(n, p, seed=seed)
        components = list(nx.connected_components(g))
        for a, b in zip(components, components[1:]):
            g.add_edge(next(iter(a)), next(iter(b)))
        return g

    @pytest.mark.parametrize(
        "n,avg_degree", [(300, 1.2), (2000, 1.0), (2000, 1.2), (5000, 0.6), (600, 4.0)]
    )
    def test_random_network_matches_networkx(self, n, avg_degree):
        """Disconnected draws with many multi-vertex components, on both
        samplers; the patch endpoints are the set-order representatives."""
        from repro.workloads.generators import _random_network

        for seed in range(4):
            cases = [(0.0, avg_degree)]
            if n <= 2000:
                cases.append((avg_degree / (n - 1), None))
            for p, avg in cases:
                size, edges = _random_network(np.random.default_rng(seed), n, p, avg)
                g = self._nx_random_network(np.random.default_rng(seed), n, p, avg)
                assert size == g.number_of_nodes()
                assert edges.dtype == np.int64
                assert edges.tolist() == _nx_edges(g)

    def test_truncation_guard_recomputes_near_integer_quotients(self):
        """Quotients a last-ulp log difference could push across an integer
        are recomputed with scalar math.log, whatever the vector log said."""
        import math

        from repro.workloads.gnp import truncate_skips

        p = 0.013
        lp = math.log(1.0 - p)
        # draws whose exact quotient lands on (or next to) an integer k
        draws = np.array([1.0 - math.exp(k * lp) for k in range(1, 400)] + [0.0, 0.5])
        exact = [min(int(math.log(1.0 - u) / lp), 10**6) for u in draws.tolist()]
        assert any(math.log(1.0 - u) / lp == int(math.log(1.0 - u) / lp)
                   for u in draws[:-2].tolist())
        quotients = np.log(1.0 - draws) / lp
        # nudge every quotient one ulp to the wrong side of its integer, as
        # a vector log differing in the last place would
        wrong = np.where(
            quotients >= np.rint(quotients),
            np.nextafter(np.rint(quotients), -np.inf),
            np.nextafter(np.rint(quotients), np.inf),
        )
        near = np.abs(quotients - np.rint(quotients)) < 1e-9
        nudged = np.where(near, wrong, quotients)
        assert (nudged.astype(np.int64) != np.array(exact)).any()
        assert truncate_skips(nudged, draws, lp, 10**6).tolist() == exact
        assert truncate_skips(quotients, draws, lp, 10**6).tolist() == exact
        assert truncate_skips(quotients, draws, lp, 5).max() == 5


def _nx_almost_clique(h, members, rng, anti_degree, hit_cap):
    """The networkx ``_planted_almost_clique`` the edge-array port
    replaced; appends to ``hit_cap`` whether the attempt cap was reached."""
    size = len(members)
    h.add_edges_from(
        (members[i], members[j]) for i in range(size) for j in range(i + 1, size)
    )
    if anti_degree <= 0:
        return
    target_anti_edges = (anti_degree * size) // 2
    removed = 0
    budget = {v: anti_degree for v in members}
    attempts = 0
    while removed < target_anti_edges and attempts < 20 * target_anti_edges:
        attempts += 1
        i, j = rng.integers(0, size, size=2)
        u, v = members[int(i)], members[int(j)]
        if u == v or not h.has_edge(u, v):
            continue
        if budget[u] <= 0 or budget[v] <= 0:
            continue
        h.remove_edge(u, v)
        budget[u] -= 1
        budget[v] -= 1
        removed += 1
    hit_cap.append(attempts == 20 * target_anti_edges)


def _nx_planted_acd(rng, hit_cap, *, n_cliques=4, clique_size=50, anti_degree=1,
                    external_degree=2, n_sparse=60, sparse_degree_fraction=0.5,
                    **_blowup):
    import networkx as nx

    h = nx.Graph()
    cliques = []
    next_id = 0
    for _ in range(n_cliques):
        members = list(range(next_id, next_id + clique_size))
        next_id += clique_size
        h.add_nodes_from(members)
        _nx_almost_clique(h, members, rng, anti_degree, hit_cap)
        cliques.append(members)
    sparse = list(range(next_id, next_id + n_sparse))
    h.add_nodes_from(sparse)
    if n_sparse > 1:
        p = min(1.0, sparse_degree_fraction * clique_size / max(1, n_sparse - 1))
        i, j = np.triu_indices(n_sparse, 1)
        keep = rng.random(i.size) < p
        h.add_edges_from(zip((next_id + i[keep]).tolist(), (next_id + j[keep]).tolist()))
    if sparse:
        for members in cliques:
            for v in members:
                targets = rng.choice(sparse, size=min(external_degree, n_sparse), replace=False)
                for t in targets:
                    h.add_edge(v, int(t))
    return h


def _nx_cabal(rng, hit_cap, *, n_cabals=3, clique_size=60, anti_degree=2,
              inter_cabal_links=2, **_blowup):
    import networkx as nx

    h = nx.Graph()
    cliques = []
    next_id = 0
    for _ in range(n_cabals):
        members = list(range(next_id, next_id + clique_size))
        next_id += clique_size
        h.add_nodes_from(members)
        _nx_almost_clique(h, members, rng, anti_degree, hit_cap)
        cliques.append(members)
    for i in range(n_cabals):
        a, b = cliques[i], cliques[(i + 1) % n_cabals]
        if n_cabals == 1:
            break
        for _ in range(inter_cabal_links):
            u = a[int(rng.integers(0, len(a)))]
            v = b[int(rng.integers(0, len(b)))]
            if u != v:
                h.add_edge(u, v)
    return h


def _nx_bridge(rng, hit_cap, *, half_size=20, external_per_side=10):
    import networkx as nx

    h = nx.Graph()
    center = 0
    externals = list(range(1, 2 * external_per_side + 1))
    h.add_nodes_from([center] + externals)
    for v in externals:
        h.add_edge(center, v)
    for i in range(len(externals)):
        h.add_edge(externals[i], externals[(i + 1) % len(externals)])
    return h


def _nx_low_degree(rng, hit_cap, *, n_vertices=500, target_degree=8, **_blowup):
    import networkx as nx

    d = max(2, target_degree)
    if (n_vertices * d) % 2 == 1:
        n_vertices += 1
    return nx.random_regular_graph(d, n_vertices, seed=int(rng.integers(0, 2**31)))


_NX_REFERENCES = {
    "planted_acd": _nx_planted_acd,
    "cabal": _nx_cabal,
    "bridge": _nx_bridge,
    "low_degree": _nx_low_degree,
}

#: ``(id, generator, kwargs, seeds)``; the ``hd_cliques`` and ``ld_regular``
#: rows are perfbench's workload shapes.
GENERATOR_PORT_CASES = [
    ("planted_acd", "planted_acd", {}, (0, 7)),
    ("planted_acd-no-sparse", "planted_acd", dict(n_sparse=0), (0, 7)),
    ("planted_acd-one-sparse", "planted_acd", dict(n_sparse=1), (0, 7)),
    ("planted_acd-no-anti", "planted_acd", dict(anti_degree=0), (0,)),
    ("planted_acd-anti40", "planted_acd", dict(clique_size=60, anti_degree=40), (0,)),
    ("planted_acd-pairs", "planted_acd", dict(clique_size=2, anti_degree=3), (0, 7)),
    ("planted_acd-tree", "planted_acd",
     dict(n_cliques=2, clique_size=20, n_sparse=30, topology="tree"), (0,)),
    ("hd_cliques", "planted_acd",
     dict(n_cliques=8, clique_size=250, anti_degree=5, external_degree=30,
          n_sparse=1000, sparse_degree_fraction=0.6, cluster_size=3, topology="path"),
     (1,)),
    ("cabal", "cabal", {}, (0, 7)),
    ("cabal-one", "cabal", dict(n_cabals=1), (0,)),
    ("cabal-two", "cabal", dict(n_cabals=2, clique_size=10, inter_cabal_links=20), (0, 7)),
    ("cabal-anti40", "cabal", dict(clique_size=50, anti_degree=40), (0,)),
    ("bridge", "bridge", {}, (0,)),
    ("bridge-one-per-side", "bridge", dict(external_per_side=1), (0,)),
    ("low_degree", "low_degree", {}, (0, 7)),
    ("low_degree-odd", "low_degree", dict(n_vertices=201, target_degree=5), (0, 7)),
    ("low_degree-bump", "low_degree", dict(n_vertices=5, target_degree=3), (0, 7)),
    ("ld_regular", "low_degree",
     dict(n_vertices=30000, target_degree=8, cluster_size=3, topology="path"), (1,)),
]


class TestGeneratorPorts:
    """The edge-array generators against the networkx constructions they
    replaced: the conflict edges handed to ``blowup`` equal the networkx
    graph's ``edges()`` element by element, and the rng is in the same
    state when ``blowup`` starts drawing."""

    @staticmethod
    def _handed_to_blowup(monkeypatch, name, kwargs, seed):
        from repro.workloads import GENERATORS, generators

        seen = {}
        original = generators.blowup

        def capture(conflict_graph, rng, **blowup_kwargs):
            n, edges = conflict_graph
            seen.update(n=n, edges=edges, state=rng.bit_generator.state)
            return original(conflict_graph, rng, **blowup_kwargs)

        monkeypatch.setattr(generators, "blowup", capture)
        GENERATORS[name](np.random.default_rng(seed), **kwargs)
        return seen

    @pytest.mark.parametrize(
        "name,kwargs,seeds",
        [case[1:] for case in GENERATOR_PORT_CASES],
        ids=[case[0] for case in GENERATOR_PORT_CASES],
    )
    def test_conflict_edges_match_networkx(self, monkeypatch, name, kwargs, seeds):
        for seed in seeds:
            seen = self._handed_to_blowup(monkeypatch, name, kwargs, seed)
            rng = np.random.default_rng(seed)
            h = _NX_REFERENCES[name](rng, [], **kwargs)
            assert seen["n"] == h.number_of_nodes()
            assert seen["edges"].dtype == np.int64
            assert seen["edges"].tolist() == _nx_edges(h)
            assert seen["state"] == rng.bit_generator.state

    def test_cases_cover_both_ends_of_the_attempt_loop(self):
        """The default case has a clique that stops on its removal target
        before the attempt cap (the rewound block draw); the anti-degree-40
        case runs every clique into the cap."""
        stopped, capped = [], []
        _nx_planted_acd(np.random.default_rng(0), stopped)
        _nx_planted_acd(np.random.default_rng(0), capped, clique_size=60, anti_degree=40)
        assert False in stopped
        assert all(capped)


#: One small build per ``GENERATORS`` / ``STREAMS`` entry.
NO_NETWORKX_CASES = [
    ("planted_acd", "planted_acd", dict(n_cliques=2, clique_size=20, n_sparse=20)),
    ("cabal", "cabal", dict(n_cabals=2, clique_size=20)),
    ("high_degree-fraction", "high_degree", dict(n_vertices=150)),
    ("high_degree-avg", "high_degree", dict(n_vertices=300, avg_degree=12)),
    ("congest", "congest", dict(n=200, avg_degree=1.5)),
    ("contraction", "contraction", dict(n=200)),
    ("voronoi", "voronoi", dict(n=200, n_clusters=30)),
    ("bridge", "bridge", dict(external_per_side=3)),
    ("low_degree", "low_degree", dict(n_vertices=60)),
    ("figure1", "figure1", {}),
    ("sliding_window", "sliding_window", dict(n_vertices=200, batches=3)),
    ("hotspot_churn", "hotspot_churn", dict(n_vertices=100, batches=3)),
    ("cluster_churn", "cluster_churn", dict(n_vertices=60, batches=3)),
]

_BUILD_WITHOUT_NETWORKX = """
import json, sys
sys.modules["networkx"] = None  # any import of it now raises ImportError
import numpy as np
import repro.cli  # noqa: F401
from repro.workloads import GENERATORS, STREAMS

makers = {**GENERATORS, **STREAMS}
built = {}
for case_id, name, kwargs in json.loads(sys.argv[1]):
    try:
        workload = makers[name](np.random.default_rng(0), **kwargs)
        built[case_id] = workload.graph.n_vertices
    except Exception as exc:
        built[case_id] = repr(exc)
print(json.dumps(built))
"""


def _run_fresh(*args: str):
    """Run ``python *args`` in a fresh interpreter that imports repro
    from this checkout; returns the completed process."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )


class TestNoNetworkx:
    """The runtime never imports networkx: every generator and stream
    builds in an interpreter where importing it fails."""

    @pytest.fixture(scope="class")
    def built_without_networkx(self):
        import json

        proc = _run_fresh("-c", _BUILD_WITHOUT_NETWORKX, json.dumps(NO_NETWORKX_CASES))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_cases_cover_every_generator_and_stream(self):
        from repro.workloads import GENERATORS, STREAMS

        covered = {name for _, name, _ in NO_NETWORKX_CASES}
        assert covered == set(GENERATORS) | set(STREAMS)

    @pytest.mark.parametrize(
        "case_id", [case[0] for case in NO_NETWORKX_CASES]
    )
    def test_builds_without_networkx(self, built_without_networkx, case_id):
        result = built_without_networkx[case_id]
        assert isinstance(result, int) and result > 0, result

    def test_import_does_not_load_networkx(self):
        proc = _run_fresh(
            "-c",
            "import sys, repro, repro.cli; "
            "assert 'networkx' not in sys.modules, 'networkx imported'",
        )
        assert proc.returncode == 0, proc.stderr
