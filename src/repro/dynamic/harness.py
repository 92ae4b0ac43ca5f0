"""Shared stream execution: one entry point for the CLI and the sweep runner.

:func:`run_stream` consumes a :class:`~repro.workloads.streams.StreamWorkload`
through a :class:`~repro.dynamic.engine.DynamicColoring` in either mode and
returns the artifact-ready metrics dict, so ``repro stream`` and stream
sweep cells report identical quantities.  :func:`summarize_stream` is the
shared summarization step: the always-on service driver
(:mod:`repro.serve`) runs its own batch loop but funnels the finished
engine through the same function, so a served stream and a swept stream
report byte-identical deterministic metrics.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro.dynamic.engine import DynamicColoring, StreamResult
from repro.params import AlgorithmParameters


def exact_percentiles(
    values: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> dict[str, float]:
    """Exact (linear-interpolation) percentiles of a small sample.

    Raises on an empty sample (callers gate on having batches).
    """
    if len(values) == 0:
        raise ValueError("exact_percentiles needs at least one sample")
    arr = np.asarray(values, dtype=np.float64)
    return {f"p{q:g}": float(np.percentile(arr, q)) for q in qs}


def latency_fields(
    wall_times_s: list[float], total_updates: int, elapsed_s: float
) -> dict[str, Any]:
    """Latency/throughput scalars from per-batch wall times.

    One source of truth for the percentile math: ``repro stream``,
    stream sweep cells, and the service driver all call this, so every
    artifact records the same ``repair_ms_p*``.  Percentiles are exact
    (numpy linear interpolation via :func:`exact_percentiles`).
    """
    fields: dict[str, Any] = {
        "batch_wall_times_s": [round(t, 6) for t in wall_times_s],
        "updates_per_sec": (
            round(total_updates / elapsed_s, 2) if elapsed_s > 0 else 0.0
        ),
    }
    if wall_times_s:
        pcts = exact_percentiles([t * 1000.0 for t in wall_times_s])
        fields.update(
            repair_ms_p50=round(pcts["p50"], 4),
            repair_ms_p95=round(pcts["p95"], 4),
            repair_ms_p99=round(pcts["p99"], 4),
        )
    return fields


def summarize_stream(
    engine: DynamicColoring, result: StreamResult, batches
) -> dict[str, Any]:
    """Artifact-ready metrics dict for a fully consumed stream.

    Covers the static cell fields (sizes, Delta, dilation of the
    *initial* graph), the stream aggregates, and the per-batch latency
    fields (:func:`latency_fields`).  Callers layer on whatever only
    they know: :func:`run_stream` adds bootstrap wall time; the service
    driver adds queueing-delay and SLO fields.
    """
    graph = engine.graph
    ledger = engine.ledger.summary()
    alive_colors = engine.colors[engine.delta.alive_mask]
    wall_times = [r.wall_time_s for r in result.reports]
    total_updates = sum(len(b) for b in batches)
    metrics: dict[str, Any] = {
        "machines": graph.n_machines,
        "vertices": graph.n_vertices,
        "delta": graph.max_degree,
        "dilation": graph.dilation,
        "bandwidth_cap_bits": engine.ledger.bandwidth_bits,
        "num_colors": engine.num_colors,
        "regime_effective": "stream",
        "rounds_h": ledger["rounds_h"],
        "rounds_g": ledger["rounds_g"],
        "total_message_bits": ledger["total_message_bits"],
        "max_message_bits": ledger["max_message_bits"],
        "colors_used": len(set(alive_colors.tolist())),
        "proper": bool(result.all_proper),
        "fallbacks": result.escalations,
        "retries": 0,
        "batches": result.batches,
        "stream_updates": total_updates,
        "repaired_vertices": result.total_repaired,
        "recolor_fraction_mean": result.mean_recolor_fraction,
        "recolor_fraction_max": result.max_recolor_fraction,
        "escalations": result.escalations,
        "violation_batches": sum(1 for r in result.reports if not r.proper),
        "delta_rebuilds": engine.delta.rebuilds,
        "stream_wall_time_s": round(result.wall_time_s, 4),
        "vertices_final": engine.n_alive,
        "delta_final": engine.max_degree,
    }
    if "makespan_ms" in ledger:
        # heterogeneous network model attached (repro.network.hetnet):
        # simulated-clock totals ride along; absent otherwise so
        # homogeneous stream artifacts stay byte-identical to pre-model ones
        metrics["makespan_ms"] = ledger["makespan_ms"]
        if getattr(engine, "netmodel", None) is not None:
            metrics["critical_link"] = engine.netmodel.critical_element()[0]
    metrics.update(latency_fields(wall_times, total_updates, result.wall_time_s))
    return metrics


def run_stream(
    workload,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    mode: str = "repair",
    verify_each_batch: bool = True,
    tracer=None,
) -> tuple[DynamicColoring, StreamResult, dict[str, Any]]:
    """Bootstrap, absorb every batch, and summarize.

    Returns ``(engine, result, metrics)``; ``metrics`` carries the static
    cell fields (sizes, Delta, dilation of the *initial* graph) plus the
    stream-specific ones, including ``batch_wall_times_s`` (every batch's
    measured repair wall time) and the exact ``repair_ms_p50/p95/p99``
    derived from them.  ``wall_time_s`` inside the metrics covers only
    the batch loop (``stream_wall_time_s``); the sweep runner separately
    records whole-cell wall time, which additionally includes workload
    generation and the bootstrap coloring (identical for both modes).
    ``tracer`` (optional) is handed to the engine: the trace gains a
    ``stream.bootstrap`` span plus one ``stream.batch`` span per batch.
    A workload carrying a sampled heterogeneous network model
    (``workload.netmodel``, see :mod:`repro.network.hetnet`) has it
    attached to the engine automatically; the returned metrics then also
    carry ``makespan_ms`` and ``critical_link``.
    """
    graph = workload.graph
    batches = getattr(workload, "batches", None)
    if batches is None:
        raise ValueError(
            f"workload {workload.name!r} has no update stream; "
            "stream modes need a StreamWorkload"
        )
    bootstrap_start = time.perf_counter()
    # map the cell-algorithm alias; anything unrecognized falls through to
    # DynamicColoring's own mode validation rather than silently running
    # repair under a baseline label
    engine_mode = "scratch" if mode == "recolor_scratch" else mode
    engine = DynamicColoring(
        graph,
        params=params,
        seed=seed,
        mode=engine_mode,
        verify_each_batch=verify_each_batch,
        tracer=tracer,
        netmodel=getattr(workload, "netmodel", None),
    )
    bootstrap_s = time.perf_counter() - bootstrap_start
    result = engine.run(batches)
    summary = summarize_stream(engine, result, batches)
    summary["bootstrap_wall_time_s"] = round(bootstrap_s, 4)
    return engine, result, summary
