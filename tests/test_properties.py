"""Property-based tests (hypothesis) over the core invariants.

These go beyond the fixed-instance unit tests: random graphs, random
seeds, random coloring states -- the invariants must hold on all of them.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_cluster_graph
from repro.cluster import blowup
from repro.coloring.types import CliquePaletteView, PartialColoring
from repro.sketch import estimate_cardinality, sample_max_of_geometrics
from repro.verify import is_proper
from tests.conftest import set_fingerprint

SLOW = settings(
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_conflict_graph(draw):
    """A small random connected conflict graph."""
    n = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.floats(min_value=0.05, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    g = nx.gnp_random_graph(n, p, seed=seed)
    comps = list(nx.connected_components(g))
    for i in range(len(comps) - 1):
        g.add_edge(next(iter(comps[i])), next(iter(comps[i + 1])))
    return g


class TestPipelineProperties:
    @given(graph=random_conflict_graph(), seed=st.integers(0, 1000))
    @SLOW
    def test_always_proper_total_delta_plus_one(self, graph, seed):
        h = blowup(graph, np.random.default_rng(0), cluster_size=2)
        result = color_cluster_graph(h, seed=seed)
        assert result.proper
        assert (result.colors >= 0).all()
        assert result.colors.max() <= h.max_degree

    @given(
        graph=random_conflict_graph(),
        cluster_size=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    @SLOW
    def test_cluster_topology_never_affects_correctness(
        self, graph, cluster_size, seed
    ):
        h = blowup(
            graph, np.random.default_rng(1), cluster_size=cluster_size,
            topology="path",
        )
        result = color_cluster_graph(h, seed=seed)
        assert result.proper


class TestPaletteViewProperties:
    @given(
        n=st.integers(2, 30),
        q=st.integers(2, 40),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50)
    def test_partition_into_free_and_used(self, n, q, seed):
        rng = np.random.default_rng(seed)
        coloring = PartialColoring.empty(n, q)
        for v in range(n):
            if rng.random() < 0.6:
                coloring.assign(v, int(rng.integers(0, q)))
        members = list(range(n))
        view = CliquePaletteView.build(coloring, members)
        used = {coloring.get(v) for v in members if coloring.is_colored(v)}
        assert set(view.free.tolist()) == set(range(q)) - used


class TestEstimatorProperties:
    @given(
        d=st.integers(1, 10**6),
        t=st.integers(64, 512),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60)
    def test_estimate_positive_and_finite(self, d, t, seed):
        rng = np.random.default_rng(seed)
        maxima = sample_max_of_geometrics(rng, d, t)
        estimate = estimate_cardinality(maxima)
        assert np.isfinite(estimate)
        assert estimate > 0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_merge_monotone(self, seed):
        """Estimates of supersets (via merge) never collapse below a
        constant fraction of the subset estimate."""
        rng = np.random.default_rng(seed)
        from repro.sketch import FingerprintTable

        table = FingerprintTable(60, 256, rng)
        small = set_fingerprint(table, range(20))
        large = small.merge(set_fingerprint(table, range(20, 60)))
        # maxima only grow under merge
        assert (large.maxima >= small.maxima).all()


class TestClusterGraphProperties:
    @given(
        n=st.integers(2, 25),
        cluster_size=st.integers(1, 4),
        mult=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40)
    def test_blowup_preserves_conflict_graph(self, n, cluster_size, mult, seed):
        g = nx.gnp_random_graph(n, 0.5, seed=seed)
        h = blowup(
            g, np.random.default_rng(seed), cluster_size=cluster_size,
            link_multiplicity=mult,
        )
        assert h.n_h_edges == g.number_of_edges()
        for u, v in g.edges():
            assert h.are_adjacent(u, v)
