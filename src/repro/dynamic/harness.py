"""Shared stream execution: one entry point for the CLI and the sweep runner.

:func:`run_stream` consumes a :class:`~repro.workloads.streams.StreamWorkload`
through a :class:`~repro.dynamic.engine.DynamicColoring` in either mode and
returns the artifact-ready metrics dict, so ``repro stream`` and stream
sweep cells report identical quantities.
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


def run_stream(
    workload,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    mode: str = "repair",
    tracer=None,
) -> tuple[DynamicColoring, StreamResult, dict[str, Any]]:
    """Bootstrap, absorb every batch, and summarize.

    Returns ``(engine, result, metrics)``; ``metrics`` carries the static
    cell fields (sizes, Delta, dilation of the *initial* graph) plus the
    stream-specific ones, including ``batch_wall_times_s`` (every batch's
    measured repair wall time) and the exact ``repair_ms_p50/p95/p99``
    derived from them.  ``metrics["proper"]`` holds when every batch
    passed the engine's check: no monochromatic edge, every live color in
    the palette, the ledger within its link budget.
    ``wall_time_s`` inside the metrics covers only
    the batch loop (``stream_wall_time_s``); the sweep runner separately
    records whole-cell wall time, which additionally includes workload
    generation and the bootstrap coloring (identical for both modes).
    ``tracer`` (optional) is handed to the engine: the trace gains a
    ``stream.bootstrap`` span plus one ``stream.batch`` span per batch.
    A workload carrying a sampled heterogeneous network model
    (``workload.netmodel``, see :mod:`repro.network.hetnet`) has the
    stream ledger's round histogram priced on it after the run; the
    returned metrics then also carry ``makespan_ms`` and ``critical_link``.
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
        tracer=tracer,
    )
    bootstrap_s = time.perf_counter() - bootstrap_start
    result = engine.run(batches)

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
    netmodel = getattr(workload, "netmodel", None)
    if netmodel is not None:
        metrics.update(netmodel.price(engine.ledger.rounds_by_width))
    # latency/throughput: exact percentiles of the per-batch wall times
    metrics["batch_wall_times_s"] = [round(t, 6) for t in wall_times]
    metrics["updates_per_sec"] = (
        round(total_updates / result.wall_time_s, 2)
        if result.wall_time_s > 0
        else 0.0
    )
    if wall_times:
        pcts = exact_percentiles([t * 1000.0 for t in wall_times])
        metrics.update(
            repair_ms_p50=round(pcts["p50"], 4),
            repair_ms_p95=round(pcts["p95"], 4),
            repair_ms_p99=round(pcts["p99"], 4),
        )
    metrics["bootstrap_wall_time_s"] = round(bootstrap_s, 4)
    return engine, result, metrics
