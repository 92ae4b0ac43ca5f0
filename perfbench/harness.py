"""The four workloads, their timed loops, checks and metrics.

Every workload runs in one process, serially, with the instance seed from
the command line and the algorithm seed fixed at 0 under ``params=scaled()``.

* A **static** workload builds its cluster graph several times (set-up),
  colors it once untimed (warm-up), then colors it repeatedly until the
  time budget is spent.  One operation is one ``color_cluster_graph`` call
  with verification on.
* The **stream** workload generates its graph and update batches first
  (load, never timed), constructs a ``DynamicColoring`` several times
  (set-up), then replays the whole stream on fresh engines, in whole
  passes, while the next pass fits in the time budget.  One operation is
  one ``DynamicColoring.apply`` call.

Timings are scaled by the host calibration (``calib.py``).  The untraced
run reports the end-to-end metrics; the traced run wraps the program's
public calls (``tracing.py``), reads the pipeline's own stage spans, and
reports the per-layer rows.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.calib import Calibrator
from perfbench.checks import (
    check_batch,
    check_coloring,
    check_stream,
    coloring_digest,
    digest,
    graph_digest,
)
from perfbench.tracing import Recorder, installed

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPS = 3
#: The stream's set-up is short, so it is repeated more often.
STREAM_SETUP_REPS = 5
#: Stream batches between two calibration samples.
CALIB_EVERY_BATCHES = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a generator, its sizes and why it is here."""

    name: str
    kind: str  #: "static" or "stream"
    generator: str
    kwargs: dict
    mini: dict  #: miniature sizes for the self-tests
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hd_gnp",
            "static",
            "high_degree",
            dict(n_vertices=3000, avg_degree=200, cluster_size=3, topology="path"),
            dict(n_vertices=300, avg_degree=120, cluster_size=3, topology="path"),
            "High-degree regime on G(n,p): construction outweighs coloring and "
            "ACD finds no clique, so acd.buddy is almost all of the coloring.",
        ),
        Workload(
            "hd_cliques",
            "static",
            "planted_acd",
            dict(
                n_cliques=8, clique_size=250, anti_degree=5, external_degree=30,
                n_sparse=1000, sparse_degree_fraction=0.6, cluster_size=3,
                topology="path",
            ),
            dict(
                n_cliques=2, clique_size=90, anti_degree=3, external_degree=10,
                n_sparse=120, sparse_degree_fraction=0.6, cluster_size=3,
                topology="path",
            ),
            "Planted almost-cliques that ACD finds: the only workload that runs "
            "the dense half of Algorithm 3 (components, repair, non-cabals).",
        ),
        Workload(
            "ld_regular",
            "static",
            "low_degree",
            dict(n_vertices=30000, target_degree=8, cluster_size=3, topology="path"),
            dict(n_vertices=600, target_degree=8, cluster_size=3, topology="path"),
            "Low-degree shattering regime: bypasses ACD and the sketches, so a "
            "buddy or sketch change must leave it flat; construction is cluster-heavy.",
        ),
        Workload(
            "sw_churn",
            "stream",
            "sliding_window",
            dict(
                n_vertices=20000, avg_degree=8, cluster_size=2, batches=300,
                churn_fraction=0.004,
            ),
            dict(
                n_vertices=600, avg_degree=8, cluster_size=2, batches=24,
                churn_fraction=0.02,
            ),
            "Sliding-window edge churn: the write path (ingest, repair, per-batch "
            "verification, compaction) that the static workloads never run.",
        ),
    )
}

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
    "rounds_h": "count",
    "message_bits": "count",
}

#: Per-layer metrics (traced run): name -> unit.  Times are self seconds
#: per set-up, per coloring, or per stream pass (see README.md).
PER_LAYER = {
    # construction, per set-up
    "workloads.draw_s": "s",
    "workloads.generator_self_s": "s",
    "cluster.blowup_s": "s",
    "network.commgraph_s": "s",
    "cluster.cluster_graph_s": "s",
    "dynamic.bootstrap_s": "s",
    "setup.unattributed_s": "s",
    # decomposition, per coloring
    "decomposition.acd_s": "s",
    "decomposition.buddy_s": "s",
    "decomposition.count_s": "s",
    "decomposition.components_s": "s",
    "decomposition.repair_s": "s",
    "decomposition.cliques": "count",
    # coloring and verification, per coloring
    "coloring.slack_s": "s",
    "coloring.sparse_s": "s",
    "coloring.noncabals_s": "s",
    "coloring.cabals_s": "s",
    "coloring.low_degree_s": "s",
    "coloring.fallback_s": "s",
    "coloring.fallbacks": "count",
    "verify.is_proper_s": "s",
    "color.unattributed_s": "s",
    # the stream engine, per stream pass
    "dynamic.ingest_s": "s",
    "dynamic.ingest_calls": "count",
    "dynamic.verify_s": "s",
    "dynamic.compact_s": "s",
    "dynamic.compactions": "count",
    "dynamic.repair_s": "s",
    "dynamic.repair_rounds": "count",
    "dynamic.frontier_per_update": "ratio",
    "dynamic.escalations": "count",
    "dynamic.recolor_frac": "ratio",
    "stream.batch_ms_p95": "ms",
    "stream.updates_per_s": "1/s",
    # harness
    "host.calib_ms": "ms",
    "host.raw_setup_s": "s",
    "host.raw_op_ms": "ms",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}

#: Pipeline stage span -> per-layer row.
STAGE_ROWS = {
    "slack_generation": "coloring.slack_s",
    "sparse": "coloring.sparse_s",
    "noncabals": "coloring.noncabals_s",
    "cabals": "coloring.cabals_s",
    "low_degree": "coloring.low_degree_s",
    "pipeline_fallback": "coloring.fallback_s",
}
#: ``acd.*`` sub-phase span -> per-layer row.
ACD_ROWS = {
    "acd.buddy": "decomposition.buddy_s",
    "acd.count": "decomposition.count_s",
    "acd.components": "decomposition.components_s",
    "acd.repair": "decomposition.repair_s",
}
#: Set-up rows: row -> recorder span names (phase ``setup``) whose self
#: times it sums.
SETUP_ROWS = {
    "workloads.draw_s": ("workloads.draw",),
    "workloads.generator_self_s": ("workloads.generator",),
    "cluster.blowup_s": ("cluster.blowup",),
    "network.commgraph_s": ("network.commgraph",),
    "cluster.cluster_graph_s": ("cluster.cluster_graph",),
    "dynamic.bootstrap_s": ("dynamic.bootstrap", "verify.is_proper", "dynamic.verify"),
    "setup.unattributed_s": ("setup",),
}


@dataclass
class Outcome:
    """What one run measured: metric values with sample counts, and the
    operations attempted and failed."""

    metrics: dict = field(default_factory=dict)  #: name -> (value, unit, samples)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    host: dict = field(default_factory=dict)  #: uncalibrated timings, untraced runs

    def record(self, problems: list[str], what: str) -> None:
        """Count one checked operation; a non-empty list is a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run ``fn``; an exception counts as a failed operation and
        returns ``None``."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run must report, not die
            traceback.print_exc(file=sys.stderr)
            self.record([f"{type(exc).__name__}: {exc}"], what)
            return None

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        """Set metric ``name``."""
        self.metrics[name] = (value, unit, samples)

    @property
    def correct(self) -> bool:
        """Every attempted operation passed its checks."""
        return self.attempted > 0 and self.failed == 0


def reset_peak_rss() -> None:
    """Start a new RSS high-water mark (Linux ``clear_refs`` value 5)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's RSS high-water mark in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool, *, mini: bool = False) -> Outcome:
    """Run one workload and return its metrics (end-to-end when untraced,
    per-layer when traced)."""
    workload = WORKLOADS[name]
    kwargs = workload.mini if mini else workload.kwargs
    run = _run_static if workload.kind == "static" else _run_stream
    out = Outcome()
    calib = Calibrator()
    run(workload, kwargs, seed, seconds, traced, calib, out)
    if traced:
        out.put("host.calib_ms", calib.median_ms(), "ms", len(calib.samples_ms))
        out.put("fail_frac", out.failed / max(1, out.attempted), "ratio", out.attempted)
    return out


def _run_static(workload, kwargs, seed, seconds, traced, calib, out) -> None:
    from repro import scaled
    from repro.coloring.pipeline import color_cluster_graph
    from repro.observe import Tracer
    from repro.workloads.generators import GENERATORS

    params = scaled()
    generate = GENERATORS[workload.generator]
    rec = Recorder()

    def build():
        rng = np.random.default_rng(seed)
        return rec.call("workloads.generator", generate, rng, **kwargs).graph

    # ---- set-up: generator through to a ready ClusterGraph -----------------
    setup_raw: list[float] = []
    instances: set[str] = set()
    graph = None
    rec.phase = "setup"
    with installed(rec) if traced else nullcontext():
        for _ in range(SETUP_REPS):
            graph = None
            gc.collect()
            calib.sample()
            start = time.perf_counter()
            graph = out.attempt("setup", rec.call, "setup", build)
            elapsed = time.perf_counter() - start
            if graph is None:
                return
            setup_raw.append(elapsed)
            instances.add(graph_digest(graph))
            out.record([], "setup")
    calib.sample()
    setup_window = len(calib.samples_ms)
    if len(instances) != 1:
        out.record(["the same seed built different instances"], "setup")
    bandwidth = params.bandwidth_bits(graph.n_machines)

    def color(tracer=None):
        return color_cluster_graph(graph, params=params, seed=0, tracer=tracer)

    def checked(result, what: str, expect: str | None) -> str | None:
        problems = check_coloring(graph, result.colors, result.ledger_summary, bandwidth)
        if not result.proper:
            problems.append("the pipeline's own verification failed")
        got = coloring_digest(result.colors, result.ledger_summary)
        if expect is not None and got != expect:
            problems.append(f"digest {got} differs from the first coloring's {expect}")
        out.record(problems, what)
        return got

    # ---- warm-up: one untimed coloring pins the reference digest -----------
    rec.phase = "warmup"
    first = out.attempt("warm-up", color)
    if first is None:
        return
    expect = checked(first, "warm-up", None)

    def timed_loop(budget: float, tracer_factory=None) -> list[float]:
        times: list[float] = []
        deadline = time.perf_counter() + budget
        while True:
            gc.collect()
            calib.sample()
            tracer = tracer_factory() if tracer_factory else None
            start = time.perf_counter()
            result = out.attempt("coloring", rec.call, "color", color, tracer)
            elapsed = time.perf_counter() - start
            if result is not None:
                times.append(elapsed)
                checked(result, "coloring", expect)
                if tracer is not None:
                    _add_stage_spans(tracer, stage_totals)
            if time.perf_counter() >= deadline:
                calib.sample()
                return times

    stage_totals: dict[str, float] = {}
    rec.phase = "op"
    if not traced:
        op_raw = timed_loop(seconds)
        if out.failed:
            return
        summary = first.ledger_summary
        _put_end_to_end(
            out, calib, setup_window, setup_raw, op_raw,
            summary["rounds_h"], summary["total_message_bits"],
        )
        return

    # ---- traced run: an untraced half for the overhead baseline, then the
    # same loop with wrappers installed and a Tracer on every coloring ------
    rec.phase = "baseline"
    base_raw = timed_loop(seconds / 2)
    rec.phase = "op"
    with installed(rec):
        op_raw = timed_loop(seconds / 2, Tracer)
    if out.failed:
        return
    n_ops, n_setups = len(op_raw), len(setup_raw)
    for row, names in SETUP_ROWS.items():
        out.put(row, sum(rec.per("setup", n, n_setups) for n in names), "s", n_setups)
    for row in STAGE_ROWS.values():
        out.put(row, stage_totals.get(row, 0.0) / n_ops, "s", n_ops)
    for row in (*ACD_ROWS.values(), "decomposition.acd_s"):
        out.put(row, stage_totals.get(row, 0.0) / n_ops, "s", n_ops)
    out.put("decomposition.cliques", stage_totals.get("decomposition.cliques", 0.0) / n_ops, "count", n_ops)
    attributed = sum(stage_totals.get(row, 0.0) for row in STAGE_ROWS.values())
    attributed += stage_totals.get("acd_total", 0.0)
    out.put("verify.is_proper_s", rec.per("op", "verify.is_proper", n_ops), "s", n_ops)
    out.put(
        "color.unattributed_s",
        (rec.self_s[("op", "color")] - attributed) / n_ops,
        "s",
        n_ops,
    )
    out.put("coloring.fallbacks", sum(first.stats.fallbacks.values()), "count")
    out.put("host.raw_setup_s", statistics.median(setup_raw), "s", n_setups)
    out.put("host.raw_op_ms", statistics.median(base_raw) * 1000.0, "ms", len(base_raw))
    out.put(
        "trace.overhead_frac",
        statistics.median(op_raw) / statistics.median(base_raw) - 1.0,
        "ratio",
        n_ops,
    )
    _zero_missing(out)


def _add_stage_spans(tracer, totals: dict[str, float]) -> None:
    """Fold one coloring's top-level pipeline spans into ``totals``."""
    for span in tracer.spans:
        row = STAGE_ROWS.get(span.name)
        if row is not None:
            totals[row] = totals.get(row, 0.0) + span.wall_time_s
        elif span.name == "acd":
            totals["acd_total"] = totals.get("acd_total", 0.0) + span.wall_time_s
            inner = 0.0
            for child in span.children:
                child_row = ACD_ROWS.get(child.name)
                if child_row is not None:
                    totals[child_row] = totals.get(child_row, 0.0) + child.wall_time_s
                    inner += child.wall_time_s
            totals["decomposition.acd_s"] = (
                totals.get("decomposition.acd_s", 0.0) + span.wall_time_s - inner
            )
            totals["decomposition.cliques"] = (
                totals.get("decomposition.cliques", 0.0) + span.counters.get("cliques", 0)
            )


def _run_stream(workload, kwargs, seed, seconds, traced, calib, out) -> None:
    from repro import scaled
    from repro.dynamic.engine import DynamicColoring
    from repro.workloads.streams import sliding_window_stream

    params = scaled()
    rec = Recorder()

    # ---- load: graph and batches, never timed ------------------------------
    stream = sliding_window_stream(np.random.default_rng(seed), **kwargs)
    graph, batches = stream.graph, stream.batches
    total_updates = stream.total_updates
    reset_peak_rss()

    setup_raw: list[float] = []
    bootstraps: set[str] = set()

    def new_engine(timed: bool):
        """Construct an engine; ``timed`` ones are set-up samples, the
        others only give a later replay a fresh start."""
        gc.collect()
        calib.sample()
        start = time.perf_counter()
        engine = out.attempt(
            "setup", rec.call, "setup", DynamicColoring, graph, params=params, seed=0
        )
        elapsed = time.perf_counter() - start
        if engine is not None:
            if timed:
                setup_raw.append(elapsed)
            bootstraps.add(digest(engine.colors))
            out.record([], "setup")
        return engine

    # ---- set-up: DynamicColoring construction (bootstrap + check) ----------
    rec.phase = "setup"
    with installed(rec) if traced else nullcontext():
        engines = [new_engine(True) for _ in range(STREAM_SETUP_REPS)]
    engine = engines[-1]
    del engines
    calib.sample()
    setup_window = len(calib.samples_ms)
    if engine is None:
        return
    if len(bootstraps) != 1:
        out.record(["the same seed bootstrapped different colorings"], "setup")

    stream_digests: set[str] = set()
    totals: dict[str, float] = {}

    def stream_pass(engine) -> list[float]:
        """Replay every batch on ``engine``; returns per-batch seconds."""
        latencies: list[float] = []
        gc.collect()
        for i, batch in enumerate(batches):
            if i % CALIB_EVERY_BATCHES == 0:
                calib.sample()
            start = time.perf_counter()
            report = out.attempt("batch", rec.call, "apply", engine.apply, batch)
            elapsed = time.perf_counter() - start
            if report is None:
                return latencies
            latencies.append(elapsed)
            out.record(check_batch(report), "batch")
        calib.sample()
        result = engine.result()
        out.record(check_stream(engine), "stream")
        stream_digests.add(digest(engine.colors, result.rounds_h, result.message_bits))
        if len(stream_digests) != 1:
            out.record(["stream replay diverged from the first pass"], "stream")
        totals.update(
            rounds_h=result.rounds_h,
            message_bits=result.message_bits,
            repair_rounds=sum(r.repair_rounds for r in result.reports),
            frontier=sum(r.dirty for r in result.reports),
            escalations=result.escalations,
            compactions=sum(1 for r in result.reports if r.compacted),
            recolor_frac=result.mean_recolor_fraction,
        )
        return latencies

    def passes(budget: float, engine) -> list[list[float]]:
        """Whole passes, at least one, while the next fits in ``budget``
        seconds (judged by the last pass's length)."""
        runs: list[list[float]] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            if engine is None:
                rec.phase, phase = "reset", rec.phase
                engine = new_engine(False)
                rec.phase = phase
                if engine is None:
                    return runs
            runs.append(stream_pass(engine))
            engine = None
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > budget:
                return runs

    if not traced:
        rec.phase = "op"
        runs = passes(seconds, engine)
        if out.failed:
            return
        lat = [x for run in runs for x in run]
        _put_end_to_end(
            out, calib, setup_window, setup_raw, lat,
            totals["rounds_h"], totals["message_bits"],
        )
        return

    rec.phase = "baseline"
    base_runs = passes(seconds / 2, engine)
    rec.phase = "op"
    with installed(rec):
        traced_runs = passes(seconds / 2, None)
    if out.failed:
        return
    n_pass, n_setups = len(traced_runs), len(setup_raw)
    base_lat = [x for run in base_runs for x in run]
    factor = calib.factor(setup_window)
    for row, names in SETUP_ROWS.items():
        out.put(row, sum(rec.per("setup", n, n_setups) for n in names), "s", n_setups)
    ingest_calls = rec.calls.get(("op", "dynamic.ingest"), 0)
    out.put("dynamic.ingest_s", rec.per("op", "dynamic.ingest", n_pass), "s", n_pass)
    out.put("dynamic.ingest_calls", ingest_calls / n_pass, "count", n_pass)
    out.put("dynamic.verify_s", rec.per("op", "dynamic.verify", n_pass), "s", n_pass)
    out.put("dynamic.compact_s", rec.per("op", "dynamic.compact", n_pass), "s", n_pass)
    out.put("dynamic.compactions", totals["compactions"], "count")
    repair = sum(
        rec.per("op", n, n_pass) for n in ("apply", "dynamic.bootstrap", "verify.is_proper")
    )
    out.put("dynamic.repair_s", repair, "s", n_pass)
    out.put("dynamic.repair_rounds", totals["repair_rounds"], "count")
    out.put("dynamic.frontier_per_update", totals["frontier"] / max(1, total_updates), "ratio")
    out.put("dynamic.escalations", totals["escalations"], "count")
    out.put("dynamic.recolor_frac", totals["recolor_frac"], "ratio")
    p95 = float(np.percentile(base_lat, 95))
    out.put("stream.batch_ms_p95", p95 * 1000.0 * factor, "ms", len(base_lat))
    out.put(
        "stream.updates_per_s",
        total_updates * len(base_runs) / (sum(base_lat) * factor),
        "1/s",
        len(base_runs),
    )
    out.put("host.raw_setup_s", statistics.median(setup_raw), "s", n_setups)
    out.put("host.raw_op_ms", statistics.median(base_lat) * 1000.0, "ms", len(base_lat))
    traced_per_pass = statistics.median(sum(run) for run in traced_runs)
    base_per_pass = statistics.median(sum(run) for run in base_runs)
    out.put("trace.overhead_frac", traced_per_pass / base_per_pass - 1.0, "ratio", n_pass)
    _zero_missing(out)


def _put_end_to_end(
    out: Outcome, calib, setup_window: int, setup_raw: list[float],
    op_raw: list[float], rounds_h: int, message_bits: int,
) -> None:
    """The untraced run's metrics.  Set-up times are calibrated by the
    kernel samples of the set-up phase (``[:setup_window]``), operations
    by the rest; the raw medians are kept in ``out.host``."""
    setup_s = statistics.median(setup_raw)
    op_ms = statistics.median(op_raw) * 1000.0
    out.host = {"calib_ms": calib.median_ms(), "raw_setup_s": setup_s, "raw_op_ms": op_ms}
    out.put("setup_s", setup_s * calib.factor(0, setup_window), "s", len(setup_raw))
    out.put("op_ms", op_ms * calib.factor(setup_window), "ms", len(op_raw))
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.put("rounds_h", rounds_h, "count")
    out.put("message_bits", message_bits, "count")


def _zero_missing(out: Outcome) -> None:
    """Rows of layers this workload does not run read 0."""
    for name, unit in PER_LAYER.items():
        if name not in out.metrics:
            out.put(name, 0.0, unit, 0)

