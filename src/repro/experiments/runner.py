"""Parallel sweep execution.

Expands a :class:`~repro.experiments.spec.ScenarioSpec` into cells and runs
them either serially in-process (``jobs <= 1``: no pool overhead, exact
tracebacks) or scattered across the
process pool of :mod:`repro.experiments.pool`.  Each cell is
independent and deterministic given its seeds, so parallel execution
cannot change any measured number.

Failure discipline: a cell that raises is captured as a ``status="error"``
record with its traceback; a cell that exceeds its wall-clock budget is
interrupted via the pool's re-firing ``SIGALRM`` watchdog (POSIX) and
recorded as ``status="timeout"``.  The sweep itself always completes and
always writes an artifact -- partial data beats no data when a 200-cell
sweep hits one pathological instance.
"""

from __future__ import annotations

import hashlib
import pathlib
import signal
import time
import traceback
import warnings
from typing import Any, Callable

import numpy as np

# Algorithm imports happen here, at module level, NOT inside the timed cell:
# a SIGALRM raised during a first-time import would leave a half-initialized
# module poisoning sys.modules for every later cell in the worker process.
from repro import color_cluster_graph
from repro.baselines import (
    local_gather_coloring,
    luby_coloring,
    palette_sparsification_coloring,
)
import repro.coloring.polylog  # noqa: F401  (lazily imported by the pipeline)
from repro.dynamic import run_stream
from repro.experiments import artifacts
from repro.experiments.spec import Cell, ScenarioSpec, STREAM_ALGORITHMS
from repro.observe.tracer import Tracer
from repro.experiments.pool import (
    WatchdogTimeout,
    alarm_available,
    arm_alarm,
    disarm_alarm,
    scatter,
)
from repro.params import paper, scaled
from repro.workloads import GENERATORS

ProgressFn = Callable[[str], None]


def error_summary(error: str | None) -> str:
    """Last non-empty traceback line, for one-line failure summaries."""
    lines = (error or "").strip().splitlines()
    return lines[-1] if lines else "?"


def _build_workload(cell: Cell):
    maker = GENERATORS[cell.workload]
    rng = np.random.default_rng(cell.instance_seed)
    return maker(rng, **dict(cell.workload_kwargs))


def coloring_digest(colors: Any) -> str:
    """Short stable fingerprint of a color assignment.

    SHA-256 over the contiguous int64 byte stream, truncated to 16 hex
    chars.  Used by the fuzzer's replay check and the pathology suite to
    pin *which* coloring a cell produced, not just its aggregate metrics;
    compare only gates tolerance-listed metrics, so adding this string to
    every record cannot perturb any existing gate.
    """
    arr = np.ascontiguousarray(np.asarray(colors, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _params(cell: Cell):
    if cell.params == "paper":
        return paper()
    if cell.params == "scaled":
        return scaled()
    raise ValueError(f"unknown params preset {cell.params!r}")


#: Algorithms that accept a tracer (the paper pipeline and the stream
#: engine); baselines stay untraced -- they have no ledger stages to span.
TRACEABLE_ALGORITHMS = {"paper"} | set(STREAM_ALGORITHMS)


def _execute(cell: Cell, tracer: Tracer | None = None) -> dict[str, Any]:
    """Run one cell's algorithm and extract its metric dict.

    ``tracer`` (optional, traceable algorithms only) records the stage
    spans; passing one is bitwise-invisible to every metric.
    """
    workload = _build_workload(cell)
    graph = workload.graph
    params = _params(cell)
    metrics: dict[str, Any] = {
        "machines": graph.n_machines,
        "vertices": graph.n_vertices,
        "delta": graph.max_degree,
        "dilation": graph.dilation,
        "bandwidth_cap_bits": params.bandwidth_bits(graph.n_machines),
        "num_colors": graph.max_degree + 1,
    }
    if cell.algorithm in STREAM_ALGORITHMS:
        _engine, _result, stream_metrics = run_stream(
            workload,
            params=params,
            seed=cell.seed,
            mode="repair" if cell.algorithm == "dynamic" else "scratch",
            tracer=tracer,
        )
        metrics.update(stream_metrics)
        metrics["coloring_digest"] = coloring_digest(
            _engine.colors[_engine.delta.alive_mask]
        )
    elif cell.algorithm == "paper":
        result = color_cluster_graph(
            graph,
            params=params,
            seed=cell.seed,
            regime=cell.regime,
            tracer=tracer,
        )
        metrics.update(
            regime_effective=result.stats.regime,
            rounds_h=result.rounds_h,
            rounds_g=result.rounds_g,
            total_message_bits=result.ledger_summary["total_message_bits"],
            max_message_bits=result.ledger_summary["max_message_bits"],
            colors_used=len(set(result.colors.tolist())),
            proper=bool(result.proper),
            fallbacks=int(sum(result.stats.fallbacks.values())),
            retries=int(sum(result.stats.retries.values())),
            coloring_digest=coloring_digest(result.colors),
        )
        if workload.netmodel is not None:
            metrics.update(workload.netmodel.price(result.rounds_by_width))
    else:
        comparators = {
            "luby": luby_coloring,
            "palette_sparsification": palette_sparsification_coloring,
            "local_gather": local_gather_coloring,
        }
        try:
            fn = comparators[cell.algorithm]
        except KeyError:
            raise ValueError(f"unknown algorithm {cell.algorithm!r}") from None
        result = fn(graph, params=params, seed=cell.seed)
        metrics.update(
            regime_effective="baseline",
            rounds_h=int(result.rounds_h),
            rounds_g=int(result.rounds_g),
            total_message_bits=int(result.total_message_bits),
            max_message_bits=None,
            colors_used=len(set(np.asarray(result.colors).tolist())),
            proper=bool(result.proper),
            fallbacks=int(result.fallback_vertices),
            retries=0,
            coloring_digest=coloring_digest(result.colors),
        )
    return metrics


def run_cell(
    cell_dict: dict[str, Any],
    timeout_s: float | None = None,
    trace: bool = False,
) -> dict[str, Any]:
    """Execute one cell (module-level so worker processes can pickle it).

    Returns an artifact-ready record; never raises.  ``trace=True`` adds a
    ``"trace"`` section (the serialized span tree) to records of traceable
    algorithms; tracing is bitwise-invisible to the metrics.
    """
    try:
        return _run_cell_timed(cell_dict, timeout_s, trace)
    except WatchdogTimeout:
        # a late interval re-fire escaped _run_cell_timed's own except
        # blocks before they could disarm; the timer is off by now (the
        # inner finally ran while the exception propagated)
        disarm_alarm()
        cell = Cell.from_dict(cell_dict)
        return {
            "kind": "cell",
            "key": cell.key(),
            "cell": cell.to_dict(),
            "status": "timeout",
            "metrics": {},
            "wall_time_s": None,
            "error": f"cell exceeded {timeout_s:g}s budget",
        }


def _run_cell_timed(
    cell_dict: dict[str, Any],
    timeout_s: float | None,
    trace: bool = False,
) -> dict[str, Any]:
    cell = Cell.from_dict(cell_dict)
    tracer = Tracer() if trace and cell.algorithm in TRACEABLE_ALGORITHMS else None
    record: dict[str, Any] = {
        "kind": "cell",
        "key": cell.key(),
        "cell": cell.to_dict(),
        "status": "ok",
        "metrics": {},
        "wall_time_s": None,
        "error": None,
    }
    want_timeout = timeout_s is not None and timeout_s > 0
    use_alarm = want_timeout and alarm_available()
    if want_timeout and not use_alarm:
        warnings.warn(
            "cell timeout requested but SIGALRM is unavailable here "
            "(non-main thread or platform without it); running the cell "
            "without a watchdog and flagging budget overruns as "
            "'timeout-unsupported'",
            RuntimeWarning,
            stacklevel=2,
        )
    previous = None
    start = time.perf_counter()
    try:
        if use_alarm:
            previous = arm_alarm(timeout_s)
        metrics = _execute(cell, tracer)
        if use_alarm:
            disarm_alarm()
        record["metrics"] = metrics
        if tracer is not None:
            record["trace"] = tracer.to_dict()
    except WatchdogTimeout:
        disarm_alarm()
        record["status"] = "timeout"
        record["error"] = f"cell exceeded {timeout_s:g}s budget"
    except Exception:
        if use_alarm:
            disarm_alarm()
        record["status"] = "error"
        record["error"] = traceback.format_exc(limit=20)
    finally:
        if use_alarm:
            disarm_alarm()
            if previous is not None:  # handler install itself may have failed
                signal.signal(signal.SIGALRM, previous)
        record["wall_time_s"] = round(time.perf_counter() - start, 4)
    if (
        want_timeout
        and not use_alarm
        and record["status"] == "ok"
        and record["wall_time_s"] > timeout_s
    ):
        # no watchdog could interrupt the cell; flag the overrun post-hoc so
        # sweeps gated on timeouts do not silently absorb unbounded cells
        record["status"] = "timeout-unsupported"
        record["error"] = (
            f"cell exceeded {timeout_s:g}s budget ({record['wall_time_s']:.1f}s) "
            "but SIGALRM was unavailable to interrupt it"
        )
    return record


def _progress_line(record: dict[str, Any], done: int, total: int) -> str:
    cell = Cell.from_dict(record["cell"])
    status = record["status"]
    if status == "ok":
        m = record["metrics"]
        tail = (
            f"rounds_h={m['rounds_h']} bits={m['total_message_bits']} "
            f"proper={m['proper']}"
        )
    else:
        tail = status.upper()
    wall = record["wall_time_s"]
    timing = f"  ({wall:.2f}s)" if wall is not None else ""
    return f"[{done}/{total}] {cell.label()}  {tail}{timing}"


def run_suite(
    spec: ScenarioSpec,
    *,
    jobs: int = 1,
    timeout_s: float | None = None,
    progress: ProgressFn | None = None,
    trace: bool = False,
) -> list[dict[str, Any]]:
    """Run every cell of ``spec``; returns records in grid order.

    ``jobs <= 1`` runs serially in-process.  ``timeout_s=None`` uses the
    spec's ``cell_timeout_s``; pass ``0`` to disable timeouts entirely.
    ``trace=True`` attaches span trees to traceable cells (see
    :func:`run_cell`).
    """
    cells = spec.cells()
    if timeout_s is None:
        timeout_s = spec.cell_timeout_s
    total = len(cells)
    emit = progress or (lambda _line: None)
    results: list[dict[str, Any] | None] = [None] * total

    if jobs <= 1 or total <= 1:
        for i, cell in enumerate(cells):
            record = run_cell(cell.to_dict(), timeout_s, trace)
            results[i] = record
            emit(_progress_line(record, sum(r is not None for r in results), total))
        return [r for r in results if r is not None]

    payloads = [(cell.to_dict(), timeout_s, trace) for cell in cells]
    for index, record, error in scatter(run_cell, payloads, jobs=jobs):
        if error is not None:  # worker died (OOM, hard crash)
            record = {
                "kind": "cell",
                "key": cells[index].key(),
                "cell": cells[index].to_dict(),
                "status": "error",
                "metrics": {},
                "wall_time_s": None,
                "error": error,
            }
        results[index] = record
        emit(_progress_line(record, sum(r is not None for r in results), total))
    return [r for r in results if r is not None]


def run_sweep(
    spec: ScenarioSpec,
    *,
    jobs: int = 1,
    timeout_s: float | None = None,
    out_path: str | pathlib.Path | None = None,
    progress: ProgressFn | None = None,
    trace: bool = False,
) -> tuple[pathlib.Path, list[dict[str, Any]]]:
    """Run a suite and persist the artifact; returns (path, records)."""
    records = run_suite(
        spec,
        jobs=jobs,
        timeout_s=timeout_s,
        progress=progress,
        trace=trace,
    )
    header = artifacts.make_header(
        spec.name,
        spec.spec_hash(),
        extra={
            "description": spec.description,
            "jobs": jobs,
            "n_cells": len(records),
        },
    )
    path = pathlib.Path(out_path) if out_path else artifacts.default_artifact_path(spec.name)
    artifacts.write_artifact(path, header, records)
    return path, records
