"""Performance benchmark of the cluster-graph coloring simulator.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics, and ``perfbench/README.md`` explains them.
"""
