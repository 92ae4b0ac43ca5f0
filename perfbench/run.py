"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload hd_gnp --seed 1 --seconds 15 --trace 0

Builds nothing: the program is the pure-Python package under ``src/``,
imported from this checkout only.  Prints one table row per metric (name,
value, unit, sample count) and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits 1
when any operation failed its checks, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Put this checkout's ``src`` and the benchmark package on the path
    and check that ``repro`` really comes from here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program at {SRC / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        _fail(f"imported repro from {origin}, not from {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    """The benchmark's flags plus ``--mini`` (miniature sizes, self-tests)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    from perfbench.harness import END_TO_END, PER_LAYER, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    traced = bool(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, traced, mini=args.mini)
    names = PER_LAYER if traced else END_TO_END
    for problem in out.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    if out.host:
        print("# host " + json.dumps(out.host))
    metrics = {}
    for name in names:
        if name not in out.metrics:
            continue
        value, unit, samples = out.metrics[name]
        print(f"{name:32s} {value:>16.6g} {unit:6s} n={samples}")
        metrics[name] = {"value": value, "unit": unit}
    correct = out.correct and len(metrics) == len(names)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
