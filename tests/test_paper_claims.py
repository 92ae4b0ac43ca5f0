"""Lemma-level paper claims: each calls one estimator or one stage, not a
whole sweep cell, so no suite record can express it.

The sweep-shaped claims (E1, E2, E11, E12, E13, E15) are ``Claim`` s on
their suites in :mod:`repro.experiments.spec`; ``repro sweep --suite <s>``
checks them.  Every instance, seed and bound here is the one the
experiment has always used.
"""

import dataclasses
import math

import networkx as nx
import numpy as np

from repro import color_cluster_graph
from repro.aggregation import ClusterRuntime
from repro.cluster import blowup, distance2_virtual_graph, power_graph_degree_bound
from repro.coloring.clique_palette import palette_view
from repro.coloring.fingerprint_matching import (
    color_anti_edge_matching,
    fingerprint_matching,
)
from repro.coloring.low_degree import (
    shattering,
    small_instance_coloring,
    uncolored_components,
)
from repro.coloring.slack import slack_generation
from repro.coloring.synchronized_trial import SctPlan, synchronized_color_trial
from repro.coloring.types import PartialColoring
from repro.decomposition import annotate_with_cabals, compute_acd
from repro.network import CommGraph
from repro.params import scaled
from repro.sketch import (
    argmax_with_uniqueness,
    direct_count_fingerprint,
    encoded_size_bits,
    failure_probability_bound,
    sample_geometric,
    sample_max_of_geometrics,
)
from repro.verify import check_acd, is_proper
from repro.workloads import (
    cabal_instance,
    figure1_example,
    low_degree_instance,
    planted_acd_instance,
)
from tests.conftest import anti_degree, slack


def _runtime(graph, seed: int = 5) -> ClusterRuntime:
    """Fresh scaled-preset runtime bound to a graph."""
    return ClusterRuntime(graph=graph, params=scaled(), rng=np.random.default_rng(seed))


def test_figure1_link_counting_overestimates_degree():
    """Section 1.1 / Figure 1: counting incident inter-cluster links does
    not give a cluster its degree.  Clusters B (1) and C (2) share two
    links, so each sees three links but has two neighbors."""
    g = figure1_example().graph
    u, w, _, _ = g.realizing_links()
    for v in (1, 2):
        links = int(np.count_nonzero((u == v) | (w == v)))
        assert links == 3 > g.degree(v) == 2


def test_e2b_shattered_components_are_polylog():
    """[BEPS16] shattering: with the shattering phase cut to two rounds,
    the leftover components stay polylog-sized and the small-instance
    finisher (Lemma 9.1's stand-in) colors all of them."""
    for n_vertices in (1000, 2000, 4000):
        w = low_degree_instance(
            np.random.default_rng(7), n_vertices=n_vertices,
            target_degree=10, cluster_size=1,
        )
        runtime = _runtime(w.graph, n_vertices)
        coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
        remaining = shattering(
            runtime, coloring, list(range(w.graph.n_vertices)), rounds=2
        )
        comps = uncolored_components(w.graph, coloring, remaining)
        assert small_instance_coloring(runtime, coloring, comps) == []
        assert is_proper(w.graph, coloring.colors)
        max_comp = max((len(c) for c in comps), default=0)
        assert max_comp <= math.log2(n_vertices) ** 3


def test_e3_fingerprint_estimate_accuracy():
    """Lemma 5.2: |d - d_hat| <= xi d w.p. >= 1 - 6 exp(-xi^2 t / 200),
    and the relative error's spread decays like 1/sqrt(t)."""
    rng = np.random.default_rng(17)
    sd_by_t = {}
    for d in (10, 1000, 100_000):
        for t in (200, 800, 3200):
            estimates = np.array(
                [direct_count_fingerprint(rng, d, t).estimate() for _ in range(300)]
            )
            rel = estimates / d - 1.0
            empirical_fail = float(np.mean(np.abs(rel) > 0.5))
            assert empirical_fail <= min(1.0, failure_probability_bound(0.5, t)) + 0.02
            if d == 1000:
                sd_by_t[t] = float(np.std(rel))
    # quadrupling t should roughly halve the spread, at each step
    assert sd_by_t[3200] < 0.65 * sd_by_t[800]
    assert sd_by_t[800] < 0.65 * sd_by_t[200]


def test_e4_fingerprints_encode_in_linear_bits():
    """Lemma 5.6: t maxima encode in O(t + loglog d) bits, under 6 bits a
    trial, and linearly in t."""
    rng = np.random.default_rng(23)
    by_t = {}
    for d in (16, 4096, 10**6, 10**9):
        for t in (128, 512, 2048):
            mean_bits = float(
                np.mean(
                    [
                        encoded_size_bits(sample_max_of_geometrics(rng, d, t))
                        for _ in range(30)
                    ]
                )
            )
            assert mean_bits / t < 6.0
            if d == 10**6:
                by_t[t] = mean_bits
    assert 12 < by_t[2048] / by_t[128] < 20  # t grew 16x


def test_e5_unique_maximum_and_uniform_argmax():
    """Lemma 5.3: the maximum of d geometrics is unique w.p. >= 2/3;
    Lemma 5.4: given uniqueness, its position is uniform."""
    rng = np.random.default_rng(29)
    reps = 6000
    for d in (2, 8, 64, 512):
        xs = sample_geometric(rng, (reps, d))
        unique_count = 0
        argmax_hist = np.zeros(d)
        for row in xs:
            idx, unique = argmax_with_uniqueness(row)
            if unique:
                unique_count += 1
                argmax_hist[idx] += 1
        freqs = argmax_hist / max(1, unique_count)
        assert unique_count / reps >= 2 / 3 - 0.03
        assert float(np.max(np.abs(freqs - 1.0 / d))) < 3.0 / d


def test_e6_acd_recovers_planted_cliques():
    """Proposition 4.3 / Lemma 5.8: the fingerprint ACD recovers planted
    almost-cliques and always satisfies Definition 4.2."""
    seeds = range(10)
    exact = valid = 0
    for seed in seeds:
        w = planted_acd_instance(np.random.default_rng(seed))
        runtime = _runtime(w.graph, seed + 500)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        found = sorted(tuple(c) for c in acd.cliques)
        exact += found == sorted(tuple(c) for c in w.planted_cliques)
        valid += check_acd(w.graph, acd, scaled().eps) == []
    assert exact >= len(seeds) - 1
    assert valid == len(seeds)


def test_e7_fingerprint_matching_covers_anti_degrees():
    """Proposition 4.15 / Lemma 6.2: a_v <= M_K for >= 90% of each
    cabal's vertices."""
    for anti in (1, 2, 4):
        w = cabal_instance(
            np.random.default_rng(anti), n_cabals=2, clique_size=160,
            anti_degree=anti, cluster_size=1,
        )
        runtime = _runtime(w.graph, anti + 40)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
        matchings = [
            fingerprint_matching(runtime, i, m) for i, m in enumerate(acd.cliques)
        ]
        colored = color_anti_edge_matching(
            runtime, coloring, matchings, reserved_floor=10
        )
        for i, members in enumerate(acd.cliques):
            covered = sum(
                1 for v in members if anti_degree(acd, w.graph, v) <= colored[i]
            )
            assert covered / len(members) >= 0.9


def test_e8_put_aside_sets_colored_in_constant_rounds():
    """Proposition 4.19 / Section 7: put-aside sets are colored without a
    cabal fallback, and the cabal stage's rounds do not double when the
    cabals quadruple."""
    cabal_rounds = {}
    for clique_size in (120, 240, 480):
        w = cabal_instance(
            np.random.default_rng(31), n_cabals=2, clique_size=clique_size,
            anti_degree=2, cluster_size=1,
        )
        result = color_cluster_graph(w.graph, seed=8)
        assert result.proper
        assert result.stats.fallbacks.get("cabals", 0) == 0
        cabal_rounds[clique_size] = result.stats.stage_rounds.get("cabals", 0)
    assert cabal_rounds[480] < 2.0 * cabal_rounds[120]


def test_e9_slack_generation():
    """Proposition 4.5: sparse vertices get slack linear in Delta, and
    slack generation colors at most 30% of any clique."""
    slack_by_delta = {}
    for clique_size in (40, 80, 160):
        w = planted_acd_instance(
            np.random.default_rng(41), clique_size=clique_size,
            n_sparse=2 * clique_size, cluster_size=1,
        )
        g = w.graph
        runtime = _runtime(g, clique_size)
        acd = annotate_with_cabals(runtime, compute_acd(runtime))
        coloring = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        eligible = [v for v in range(g.n_vertices) if not acd.is_cabal_vertex(v)]
        slack_generation(runtime, coloring, eligible)
        sparse_slacks = [slack(coloring, g, v) for v in acd.sparse]
        clique_colored_frac = [
            sum(coloring.is_colored(v) for v in m) / len(m) for m in acd.cliques
        ] or [0.0]
        mean_slack = float(np.mean(sparse_slacks)) if sparse_slacks else 0.0
        slack_by_delta[g.max_degree] = mean_slack
        assert max(clique_colored_frac) <= 0.3
        assert mean_slack > 0.2 * g.max_degree
    deltas = sorted(slack_by_delta)
    ratio = slack_by_delta[deltas[-1]] / slack_by_delta[deltas[0]]
    assert ratio > 0.5 * (deltas[-1] / deltas[0])


def _two_cliques_with_cross_edges(size: int, cross: int, seed: int):
    h = nx.Graph()
    a = list(range(size))
    b = list(range(size, 2 * size))
    for grp in (a, b):
        h.add_edges_from((grp[i], grp[j]) for i in range(size) for j in range(i + 1, size))
    rng = np.random.default_rng(seed)
    for _ in range(cross):
        h.add_edge(int(rng.integers(0, size)), int(rng.integers(size, 2 * size)))
    return blowup(h, np.random.default_rng(seed + 1), cluster_size=1), (a, b)


def test_e10_synchronized_trial_leftover():
    """Lemma 4.13: the synchronized color trial leaves at most
    (24/alpha) max(e_K, ell) participants uncolored, and the leftover
    tracks the cross edges, not the clique size."""
    for size, cross in ((100, 5), (100, 25), (200, 25), (200, 100)):
        graph, (a, b) = _two_cliques_with_cross_edges(size, cross, seed=cross)
        runtime = _runtime(graph, cross + 3)
        coloring = PartialColoring.empty(graph.n_vertices, graph.max_degree + 1)
        plans = [
            SctPlan(
                participants=list(grp),
                palette=palette_view(runtime, coloring, grp),
                reserved_floor=0,
            )
            for grp in (a, b)
        ]
        leftover = synchronized_color_trial(runtime, coloring, plans)
        e_k = cross / size  # average external degree per clique
        alpha = 1.0  # participants = |K|
        assert len(leftover) <= (24 / alpha) * max(e_k, scaled().ell(graph.n_machines))
        assert len(leftover) <= 2 * cross


def test_e14_distance2_coloring():
    """Corollary 1.3: a proper Delta_2 + 1 coloring of G^2 through the
    virtual graph, with H-rounds under 2x while n quadruples."""
    rounds = []
    for n in (200, 400, 800):
        g = nx.connected_watts_strogatz_graph(n, 8, 0.15, seed=19)
        comm = CommGraph.from_networkx(g)
        vg = distance2_virtual_graph(comm)
        result = color_cluster_graph(vg, seed=21)
        assert result.proper
        assert result.num_colors == power_graph_degree_bound(comm) + 1
        # spot-check the radio constraint on G
        colors = result.colors
        for u in range(0, comm.n, max(1, comm.n // 50)):
            for v in comm.neighbors(u):
                assert colors[u] != colors[v]
                for x in comm.neighbors(v):
                    if x != u:
                        assert colors[u] != colors[x]
        rounds.append(result.rounds_h)
    assert rounds[-1] < 2.0 * rounds[0]


def test_a2_reserved_color_sizing_never_breaks_correctness():
    """Equation (2) ablation: the coloring is proper at every reserved-color
    multiplier, starved or generous."""
    w = planted_acd_instance(np.random.default_rng(73), external_degree=12, n_sparse=120)
    for mult in (0.25, 1.0, 2.0, 4.0):
        params = dataclasses.replace(scaled(), reserved_multiplier=mult)
        assert color_cluster_graph(w.graph, params=params, seed=5).proper


def test_a3_coloring_stays_proper_without_colorful_matching(monkeypatch):
    """Lemma 4.9 / Section 6 ablation: with the colorful matching switched
    off, the fallback ladder still yields a proper coloring."""
    import repro.coloring.cabal as cabal_mod
    import repro.coloring.noncabal as noncabal_mod

    w = cabal_instance(
        np.random.default_rng(74), n_cabals=2, clique_size=150,
        anti_degree=3, cluster_size=1,
    )

    def no_matching(runtime, coloring, cliques, **kw):
        return {idx: 0 for idx in cliques}

    monkeypatch.setattr(cabal_mod, "colorful_matching", no_matching)
    monkeypatch.setattr(noncabal_mod, "colorful_matching", no_matching)
    assert color_cluster_graph(w.graph, seed=7).proper


def test_a4_donor_activation_never_breaks_correctness():
    """Algorithm 9 Step 2 ablation: the coloring is proper at every donor
    activation probability."""
    w = cabal_instance(
        np.random.default_rng(75), n_cabals=2, clique_size=240,
        anti_degree=2, cluster_size=1,
    )
    for p in (0.1, 0.5, 0.9):
        params = dataclasses.replace(scaled(), donor_activation=p)
        assert color_cluster_graph(w.graph, params=params, seed=9).proper
