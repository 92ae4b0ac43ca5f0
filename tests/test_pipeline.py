"""End-to-end integration: the pipeline on every workload family."""

import hashlib

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.cluster import distance2_virtual_graph, power_graph_degree_bound
from repro.network import CommGraph
from repro.params import scaled
from repro.verify import is_proper
from repro.workloads import (
    GENERATORS,
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


#: Pinned colorings (sha256 of the colors buffer, first 16 hex chars) of
#: seed-0 runs on the seed-0 instance of each generator.
PINNED_DIGESTS = {
    "figure1": "7b0a91667ad8d58a",
    "low_degree": "04d969a44989e875",  # shattering regime
    "high_degree": "1f757a107a73fad2",  # Algorithm 3 regime
}


class TestPinnedDigests:
    @pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
    def test_serial_digest(self, workload):
        w = GENERATORS[workload](np.random.default_rng(0))
        result = color_cluster_graph(w.graph, seed=0)
        digest = hashlib.sha256(
            np.ascontiguousarray(result.colors).tobytes()
        ).hexdigest()[:16]
        assert digest == PINNED_DIGESTS[workload]
        assert result.proper


def _run_digest(runner: str, family: str, kwargs: dict, regime: str) -> str:
    """sha256 over what a seeded run decides: the colors, the ledger
    summary (baselines: their round and bit counters) and the rng's end
    state.  Baselines seed their own generator, so the test captures it."""
    import json

    from repro.baselines import luby_coloring, palette_sparsification_coloring

    w = GENERATORS[family](np.random.default_rng(0), **kwargs)
    if runner == "pipeline":
        rng = np.random.default_rng(3)
        result = color_cluster_graph(w.graph, rng=rng, regime=regime)
        assert result.proper
        ledger = result.ledger_summary
    else:
        baseline = {
            "luby": luby_coloring,
            "palette_sparsification": palette_sparsification_coloring,
        }[runner]
        made = []
        real_default_rng = np.random.default_rng
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                np.random,
                "default_rng",
                lambda seed=None: made.append(real_default_rng(seed)) or made[-1],
            )
            result = baseline(w.graph, seed=3)
        assert result.proper
        (rng,) = made
        ledger = [result.rounds_h, result.rounds_g, result.total_message_bits,
                  result.fallback_vertices]
    payload = json.dumps(
        {
            "colors": hashlib.sha256(
                np.ascontiguousarray(result.colors, dtype=np.int64).tobytes()
            ).hexdigest(),
            "ledger": ledger,
            "rng": rng.bit_generator.state,
        },
        sort_keys=True,
        default=int,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: (runner, generator, generator kwargs, regime, sha256) of seeded runs on
#: each generator's seed-0 instance, captured before TryColor proposals
#: moved to arrays.  Every TryColor sampler and proposal site runs in some
#: row: exact palettes (``low_degree``, ``luby``), uniform ranges (the
#: high-degree and ``polylog`` rows), the clique palette (``polylog``),
#: plain callables (``palette_sparsification``), slack generation, the
#: synchronized trial (``cabal``) and Algorithm 11's Phase I (``NONCABAL``).
NONCABAL = {"external_degree": 12, "n_sparse": 120}
PINNED_RUNS = [
    ("pipeline", "low_degree", {}, "auto",
     "ecb865fd3fa006e29073a5ec14aaaefbca15b866a7aa9482c392d96783bf4739"),
    ("pipeline", "high_degree", {}, "auto",
     "931f773bb5244cbfdb5c99ecb28233bc27f786be0cf3680a4b7ca96bdfd36f90"),
    ("pipeline", "cabal", {}, "auto",
     "2ad09a9816f75acff4a16789ee810d974db8452289f464eb51d2b96e0b8a560d"),
    ("pipeline", "planted_acd", NONCABAL, "auto",
     "2a845a1d23218deb079e272218da63a128bc0230150acccedaf695506db43eb4"),
    ("pipeline", "planted_acd", {}, "low_degree",
     "1c6cf99e9c3d79c58f6375148310fefe2eabc90a37c5566d974b295ee839f815"),
    ("pipeline", "planted_acd", {}, "polylog",
     "9bd7efe6946b49fc6db633341e8f7e0e2bdfcc1cf4cd6b095c5d299397e8cda6"),
    ("pipeline", "planted_acd", NONCABAL, "polylog",
     "b915ad1a53c76e7f0e04827a856c06a5c0f011366354339417bfd843e0671236"),
    ("luby", "planted_acd", {}, "",
     "a39ba162cb8eaa283e61e5fcaa4155f2a839b1086138e7ca831e3bb08a354d83"),
    ("palette_sparsification", "planted_acd", {}, "",
     "3cc5d3b35e6b2f11587a461af330b3ee6c5982e69258a4c9965051f2fd2e8173"),
]


class TestPinnedRuns:
    """Colorings, ledgers and rng end states stay bitwise identical."""

    @pytest.mark.parametrize(
        "runner,family,kwargs,regime,expected",
        PINNED_RUNS,
        ids=[
            f"{r}-{f}" + ("-noncabal" if kw else "") + (f"-{g}" if g else "")
            for r, f, kw, g, _ in PINNED_RUNS
        ],
    )
    def test_run_digest(self, runner, family, kwargs, regime, expected):
        assert _run_digest(runner, family, kwargs, regime) == expected


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
        assert result.stats.total_rounds == sum(stages.values())

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
