"""Mini scaling study: the O(d · log* n) shape of Theorem 1.2, as a
step-by-step walkthrough of the vectorized pipeline.

Colors dense cluster graphs of growing size and prints how the round count
behaves relative to log n, log* n, and the dilation d.  This is a script-
sized version of the e1_rounds_high_degree and e12_dilation suites; expect
a minute of runtime.  Each step below names the vectorized machinery it
exercises — docs/ARCHITECTURE.md has the full map.

Run:  python examples/scaling_study.py
"""

import math
import time

import numpy as np

from repro import color_cluster_graph, log_star
from repro.experiments.artifacts import format_table
from repro.workloads import high_degree_instance

rows = []
for n_vertices in (150, 300, 600, 1200):
    # -- Step 1: build the instance. ------------------------------------------
    # high_degree_instance synthesizes a conflict graph H whose Delta clears
    # the high-degree threshold, then realizes it as a network G via
    # cluster.blowup.  Everything underneath is vectorized: the inter-cluster
    # link sampling is one (edges x multiplicity x 2) rng draw, CommGraph
    # lays its link CSR out with one lexsort pass, and
    # ClusterGraph.from_assignment builds every cluster's support tree in a
    # single multi-source frontier BFS (cluster.build_forest) before laying
    # out the H-adjacency CSR the coloring kernels run on.
    build_start = time.perf_counter()
    w = high_degree_instance(
        np.random.default_rng(5), n_vertices=n_vertices, degree_fraction=0.5,
        cluster_size=2,
    )
    build_s = time.perf_counter() - build_start

    # -- Step 2: color it. ----------------------------------------------------
    # color_cluster_graph dispatches to the high-degree pipeline here
    # (Algorithm 3): the almost-clique decomposition estimates buddy-edge
    # counts for all vertices in one batched fingerprint draw
    # (sketch.batch_count_estimates -- RNG-identical to the per-vertex loop
    # it replaced), groups dense components by min-label propagation
    # (graphcore.label_components), and the cabal machinery's matching,
    # put-aside, and donor stages resolve their conflict/independence
    # filters through graphcore.batch_conflict_mask /
    # batch_label_mismatch_counts gathers.  Every simulated round is charged
    # to the BandwidthLedger.
    color_start = time.perf_counter()
    result = color_cluster_graph(w.graph, seed=9)
    color_s = time.perf_counter() - color_start

    # -- Step 3: read the theorem off the ledger. -----------------------------
    # rounds_h is the broadcast-and-aggregate count Theorem 1.2 bounds by
    # O(log* n) (times the hidden dilation factor, which only enters
    # rounds_g); result.proper is the independent checker's verdict, not
    # the algorithm's claim.
    n = w.graph.n_machines
    rows.append(
        {
            "machines": n,
            "Delta": w.graph.max_degree,
            "rounds_h": result.rounds_h,
            "rounds/log n": round(result.rounds_h / math.log2(n), 1),
            "log*(n)": log_star(n),
            "proper": result.proper,
            "fallbacks": sum(result.stats.fallbacks.values()),
            "build_s": f"{build_s:.2f}",
            "color_s": f"{color_s:.2f}",
        }
    )

print(format_table(rows))
print(
    "\nReading: rounds_h stays near-flat while n quadruples -- the log* n"
    "\nshape (absolute constants are the scaled preset's, not the paper's)."
    "\nDilation enters G-rounds only; see `repro sweep --suite e12_dilation`."
    "\nFor the 50k-machine version of this table run:"
    "\n    python -m repro sweep --suite scale --jobs 4"
)
