"""Memory regressions: what a graph keeps after a coloring, and how far
instance construction overshoots what it keeps."""

import gc
import tracemalloc

import numpy as np

from repro import color_cluster_graph
from repro.workloads import GENERATORS
from repro.workloads.generators import planted_acd_instance

#: A mid-size planted instance: 4 cliques of 120 plus 400 sparse
#: vertices, about 24k H-edges realized by about 48k links.
MID_PLANTED = dict(
    n_cliques=4, clique_size=120, anti_degree=3, external_degree=20,
    n_sparse=400, sparse_degree_fraction=0.6, cluster_size=3, topology="path",
)

#: Traced peak / retained bytes of the build: 1.46-1.53 over seeds 0-3,
#: 2.89-3.18 while construction kept its link-length temporaries alive.
MAX_PEAK_OVER_RETAINED = 2.0


def test_coloring_leaves_no_per_vertex_container_on_the_graph():
    graph = GENERATORS["planted_acd"](np.random.default_rng(0)).graph
    result = color_cluster_graph(graph, seed=0)
    assert result.proper
    containers = {
        name: type(value).__name__
        for name, value in vars(graph).items()
        if isinstance(value, (dict, set, frozenset))
    }
    assert containers == {}


def test_construction_peak_stays_near_what_the_graph_keeps():
    planted_acd_instance(np.random.default_rng(0), **MID_PLANTED)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        workload = planted_acd_instance(np.random.default_rng(1), **MID_PLANTED)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert workload.graph.n_h_edges > 20_000
    assert peak / retained <= MAX_PEAK_OVER_RETAINED, (peak, retained)
