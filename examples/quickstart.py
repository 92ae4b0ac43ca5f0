"""Quickstart: build a cluster graph, (Δ+1)-color it, inspect the run.

A *cluster graph* H lives on top of a communication network G: machines are
partitioned into connected clusters, one H-vertex per cluster, an H-edge
wherever any link joins two clusters (Definition 3.1 of the paper).  The
library colors H with Δ+1 colors using only O(log n)-bit messages per link
per round.

Run:  python examples/quickstart.py
"""

import networkx as nx
import numpy as np

from repro import color_cluster_graph, scaled
from repro.cluster import blowup
from repro.verify import violations

rng = np.random.default_rng(7)

# 1. Pick the conflict graph you want colored (here: a dense random graph
#    whose Δ clears the scaled high-degree threshold, i.e. Theorem 1.2
#    territory), then synthesize a communication network realizing it:
#    clusters of 4 machines wired as stars, two links per H-edge.
conflict = nx.erdos_renyi_graph(300, 0.5, seed=1)
graph = blowup(conflict, rng, cluster_size=4, topology="star", link_multiplicity=2)
print(f"cluster graph: {graph}")
print(f"  machines={graph.n_machines}  H-vertices={graph.n_vertices}  "
      f"Delta={graph.max_degree}  dilation={graph.dilation}")

# 2. Color it.
result = color_cluster_graph(graph, params=scaled(), seed=42)

# 3. Inspect.
print(f"\nregime:        {result.stats.regime}")
print(f"proper:        {result.proper}")
print(f"H-rounds:      {result.rounds_h}   (the O(log* n) quantity of Thm 1.2)")
print(f"G-rounds:      {result.rounds_g}   (includes the dilation factor d)")
print(f"colors used:   {len(set(result.colors.tolist()))} of {result.num_colors}")
print("\nper-stage rounds:")
for stage, rounds in sorted(result.stats.stage_rounds.items()):
    print(f"  {stage:20s} {rounds}")
if result.stats.fallbacks:
    print(f"fallbacks taken: {dict(result.stats.fallbacks)}")
else:
    print("fallbacks taken: none (every w.h.p. stage met its postcondition)")

# 4. Independent verification.  `result.proper` already covers the edges,
#    the Delta+1 palette and the per-link bit budget; recheck the edges and
#    the palette here from the colors alone.
assert result.num_colors == graph.max_degree + 1
assert not violations(graph, result.colors), "monochromatic edge"
assert 0 <= result.colors.min() and result.colors.max() < result.num_colors
print("\nverified: total, proper, and within Delta+1 colors.")
