"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/prove.py --seeds 1-10 --seconds 15 --out evidence.json

Runs ``run.py`` once per (workload, seed), one run at a time, and prints,
per workload and metric, the median over seeds and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  For ``setup_s`` and ``op_ms`` it also gives the spread
of the uncalibrated times, which shows whether calibration narrows it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for a constant series)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; its JSON result plus host rows and wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    return {"result": result, "host": host, "wall_s": wall}


def seed_list(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seed_list(args.seeds)]
        rows = {}
        names = runs[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            rows[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds.get(name),
                "values": values,
            }
        for key in ("raw_setup_s", "raw_op_ms", "calib_ms"):
            values = [r["host"][key] for r in runs if key in r["host"]]
            if values:
                rows[f"host.{key}"] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "values": values,
                }
        walls = [r["wall_s"] for r in runs]
        report["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "wall_s_median": statistics.median(walls),
            "wall_s_max": max(walls),
            "metrics": rows,
        }
        print(f"{workload}: wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        for name, row in rows.items():
            bound = row.get("bound")
            flag = "" if bound is None else f"  bound {bound}  {'OK' if row['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:24s} median {row['median']:<14.6g} spread {row['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
