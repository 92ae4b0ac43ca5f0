"""Coloring a contracted network -- how cluster graphs arise in practice.

Distributed max-flow and network-decomposition algorithms repeatedly
*contract* edges of the communication network; the contracted super-nodes
are connected machine sets, i.e. exactly the clusters of Definition 3.1.
The contracted conflict graph must then be colored (e.g. to schedule
per-cluster phases) -- with each super-node's computation spread over its
machines and every link still carrying only O(log n) bits.

This example contracts a random forest covering half the machines, colors
the resulting cluster graph, and compares against the classic random-trials
baseline, whose per-round palette bitmaps grow with Δ.

Run:  python examples/contracted_network_coloring.py
"""

import networkx as nx
import numpy as np

from repro import color_cluster_graph
from repro.baselines import luby_coloring, palette_sparsification_coloring
from repro.cluster import contraction_clusters
from repro.network import CommGraph

rng = np.random.default_rng(21)

network = nx.erdos_renyi_graph(1200, 0.01, seed=9)
components = list(nx.connected_components(network))
for i in range(len(components) - 1):
    network.add_edge(next(iter(components[i])), next(iter(components[i + 1])))
comm = CommGraph.from_networkx(network)

graph = contraction_clusters(comm, contraction_fraction=0.5, rng=rng)
print(f"network: {comm.n} machines, {comm.num_links} links")
print(f"after contraction: {graph.n_vertices} clusters, Delta = {graph.max_degree}, "
      f"dilation = {graph.dilation}")
h_u, h_v, _, _ = graph.realizing_links()  # one row per link, by H-edge
_, realizers = np.unique(h_u * graph.n_vertices + h_v, return_counts=True)
multi = int((realizers > 1).sum())
print(f"cluster pairs joined by multiple links: {multi} "
      f"(the degree-overcounting hazard of Section 1.1)")

ours = color_cluster_graph(graph, seed=2)
luby = luby_coloring(graph, seed=2)
sparsified = palette_sparsification_coloring(graph, seed=2)

print(f"\n{'algorithm':28s} {'rounds_h':>8s} {'bits':>10s} {'proper':>6s}")
print(f"{'this paper (Thm 1.1/1.2)':28s} {ours.rounds_h:8d} "
      f"{ours.ledger_summary['total_message_bits']:10d} {str(ours.proper):>6s}")
print(f"{'Luby/Johansson trials':28s} {luby.rounds_h:8d} "
      f"{luby.total_message_bits:10d} {str(luby.proper):>6s}")
print(f"{'palette sparsification':28s} {sparsified.rounds_h:8d} "
      f"{sparsified.total_message_bits:10d} {str(sparsified.proper):>6s}")
print("\n(at this modest Delta the baselines' palette bitmaps still fit in "
      "a few messages; `repro sweep --suite e13_baselines` sweeps Delta to "
      "show the crossover the theory predicts)")
