"""Open-loop trace-driven driver for the always-on coloring service.

:class:`ColoringService` replays a :class:`~repro.workloads.streams.
StreamWorkload` against a live :class:`~repro.dynamic.engine.DynamicColoring`
under the workload's arrival schedule, on a *virtual clock*: batch ``i``
arrives at ``arrivals[i]`` (trace seconds), starts as soon as the engine is
free (``start = max(arrival, previous completion)``), and completes after
its *measured* repair wall time.  Queueing delay -- the open-loop signal a
closed back-to-back replay cannot see -- is ``start - arrival``; end-to-end
latency is ``completion - arrival``.  Replay itself runs as fast as the
engine allows (no sleeping), so a 200-second trace measures in engine
wall time while still reporting trace-clock throughput and queueing.

Lifecycle follows the workload-manager idiom: :meth:`ColoringService.start`
bootstraps the engine, :meth:`~ColoringService.step` absorbs one batch,
:meth:`~ColoringService.stop` ends serving, and
:meth:`~ColoringService.collect` returns the artifact-ready metrics dict --
the stream summary of :func:`repro.dynamic.harness.summarize_stream` plus
the service-only fields (queue/latency percentiles, sustained trace-clock
throughput, the SLO verdict).  :func:`run_service` wraps the whole
lifecycle for the sweep runner and ``repro serve``.

Like the tracer and the metrics registry, the driver obeys the
observe-layer neutrality contract: it feeds instruments from finished
batch reports and the virtual clock only, so a served stream produces
bitwise-identical colorings, ledger, and RNG end state to the same
workload pushed through :func:`~repro.dynamic.harness.run_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.dynamic.engine import BatchReport, DynamicColoring, StreamResult
from repro.dynamic.harness import latency_fields, summarize_stream
from repro.observe.metrics import MetricsRegistry, exact_percentiles
from repro.observe.tracer import NULL_TRACER
from repro.params import AlgorithmParameters
from repro.serve.slo import DEFAULT_SLOS, SLOTarget, evaluate_slos

__all__ = ["ColoringService", "ServiceEntry", "render_dashboard", "run_service"]


@dataclass(frozen=True)
class ServiceEntry:
    """One served batch on the virtual trace clock (all times in seconds
    from trace start)."""

    batch_index: int
    arrival_s: float  #: when the batch arrived at the service
    start_s: float  #: when the engine picked it up (>= arrival_s)
    service_s: float  #: measured repair wall time
    updates: int
    repaired: int
    escalated: bool
    proper: bool

    @property
    def completion_s(self) -> float:
        """When the batch finished (trace clock)."""
        return self.start_s + self.service_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting behind earlier batches."""
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end arrival-to-completion latency."""
        return self.completion_s - self.arrival_s


class ColoringService:
    """An always-on coloring engine fed by an open-loop update trace.

    Parameters mirror :func:`repro.dynamic.harness.run_stream` (same
    engine underneath); ``slos`` is the tuple of
    :class:`~repro.serve.slo.SLOTarget` objectives :meth:`collect`
    evaluates, and ``metrics`` an optional shared
    :class:`~repro.observe.metrics.MetricsRegistry` (the service creates
    a private one when omitted).
    """

    def __init__(
        self,
        workload,
        *,
        params: AlgorithmParameters | None = None,
        seed: int = 0,
        mode: str = "repair",
        verify_each_batch: bool = True,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        slos: Iterable[SLOTarget] = DEFAULT_SLOS,
    ) -> None:
        batches = getattr(workload, "batches", None)
        if batches is None:
            raise ValueError(
                f"workload {workload.name!r} has no update stream; "
                "the service needs a StreamWorkload"
            )
        self.workload = workload
        self.params = params
        self.seed = seed
        self.mode = mode
        self.verify_each_batch = verify_each_batch
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slos = tuple(slos)
        arrivals = getattr(workload, "arrivals", None)
        self.arrivals: list[float] = (
            [float(t) for t in arrivals]
            if arrivals is not None
            else [0.0] * len(batches)
        )
        if len(self.arrivals) != len(batches):
            raise ValueError(
                f"arrival schedule covers {len(self.arrivals)} batches; "
                f"workload has {len(batches)}"
            )
        self.engine: DynamicColoring | None = None
        self.entries: list[ServiceEntry] = []
        self.bootstrap_wall_time_s = 0.0
        self._next_batch = 0
        self._clock_s = 0.0  # trace-clock time the engine frees up
        self._running = False

    # ---- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether :meth:`start` has run and :meth:`stop` has not."""
        return self._running

    @property
    def remaining(self) -> int:
        """Batches of the trace not yet served."""
        return len(self.workload.batches) - self._next_batch

    def start(self) -> None:
        """Bootstrap the engine.

        Idempotent-hostile on purpose: a service serves one trace once;
        restarting mid-trace would silently skip arrivals."""
        if self._running:
            raise RuntimeError("service already started")
        if self.engine is not None:
            raise RuntimeError("service already consumed its trace")
        import time

        bootstrap_start = time.perf_counter()
        engine_mode = "scratch" if self.mode == "recolor_scratch" else self.mode
        # the engine owns the tracer from here: it binds its stream ledger
        # (illegal inside an open span) and emits the stream.bootstrap span
        # itself; driver spans (service.batch) nest engine spans below them
        self.engine = DynamicColoring(
            self.workload.graph,
            params=self.params,
            seed=self.seed,
            mode=engine_mode,
            verify_each_batch=self.verify_each_batch,
            tracer=self.tracer,
            metrics=self.metrics,
            netmodel=getattr(self.workload, "netmodel", None),
        )
        self.bootstrap_wall_time_s = time.perf_counter() - bootstrap_start
        self._running = True

    def step(self) -> ServiceEntry:
        """Serve the next batch of the trace: wait for its arrival (virtual
        clock), apply it, and log the timing entry."""
        if not self._running:
            raise RuntimeError("service not started")
        if self._next_batch >= len(self.workload.batches):
            raise RuntimeError("trace exhausted")
        i = self._next_batch
        batch = self.workload.batches[i]
        arrival = self.arrivals[i]
        start_s = max(arrival, self._clock_s)
        with self.tracer.span("service.batch", batch=i) as span:
            report: BatchReport = self.engine.apply(batch)
            span.counter("queue_ms", (start_s - arrival) * 1000.0)
        entry = ServiceEntry(
            batch_index=i,
            arrival_s=arrival,
            start_s=start_s,
            service_s=report.wall_time_s,
            updates=len(batch),
            repaired=report.repaired,
            escalated=report.escalated,
            proper=report.proper,
        )
        self._observe_entry(entry)
        self.entries.append(entry)
        self._clock_s = entry.completion_s
        self._next_batch += 1
        return entry

    def _observe_entry(self, entry: ServiceEntry) -> None:
        """Feed the service-level instruments (queueing, latency, and the
        over-trace-time series) from one finished entry."""
        m = self.metrics
        m.histogram("service.queue_ms").record(entry.queue_s * 1000.0)
        m.histogram("service.latency_ms").record(entry.latency_s * 1000.0)
        m.gauge("service.clock_s").set(entry.completion_s)
        m.windowed("service.updates").record(entry.completion_s, entry.updates)
        m.windowed("service.proper").record(
            entry.completion_s, 1.0 if entry.proper else 0.0
        )

    def run(self) -> list[ServiceEntry]:
        """Serve the whole trace: start if needed, step to exhaustion, stop."""
        if not self._running:
            self.start()
        while self.remaining:
            self.step()
        self.stop()
        return self.entries

    def stop(self) -> None:
        """Stop serving (idempotent)."""
        self._running = False

    # ---- views ---------------------------------------------------------------

    def recent_entries(self, duration_s: float = 30.0) -> list[ServiceEntry]:
        """Entries completed within the last ``duration_s`` trace seconds."""
        cutoff = self._clock_s - duration_s
        return [e for e in self.entries if e.completion_s >= cutoff]

    def result(self) -> StreamResult:
        """The engine's stream aggregate (empty before :meth:`start`)."""
        if self.engine is None:
            return StreamResult()
        return StreamResult(reports=list(self.engine.reports))

    def collect(self) -> dict[str, Any]:
        """Artifact-ready metrics for the batches served so far.

        The deterministic stream fields come from
        :func:`~repro.dynamic.harness.summarize_stream` -- byte-identical
        to a ``run_stream`` of the same workload -- layered with the
        service-only fields: ``queue_ms_p50/p95/p99``,
        ``latency_ms_p50/p95/p99``, trace-clock ``updates_per_sec``
        (total updates over the final completion time, so idle gaps in
        the arrival schedule count against throughput), and the ``slo``
        verdict."""
        if self.engine is None:
            raise RuntimeError("service not started; nothing to collect")
        served = self.workload.batches[: self._next_batch]
        with self.tracer.span("service.collect"):
            metrics = summarize_stream(self.engine, self.result(), served)
        metrics["bootstrap_wall_time_s"] = round(self.bootstrap_wall_time_s, 4)
        metrics["arrival_profile"] = (
            getattr(self.workload, "arrival_profile", None) or "none"
        )
        rate = getattr(self.workload, "arrival_rate", None)
        if rate is not None:
            metrics["arrival_rate"] = rate
        if self.entries:
            total_updates = sum(e.updates for e in self.entries)
            elapsed = self.entries[-1].completion_s
            # trace-clock throughput: on the open-loop clock the service
            # cannot finish before the last arrival, so idle time between
            # sparse arrivals counts against sustained updates/sec
            metrics.update(
                latency_fields(
                    [e.service_s for e in self.entries], total_updates, elapsed
                )
            )
            queue_pcts = exact_percentiles(
                [e.queue_s * 1000.0 for e in self.entries]
            )
            latency_pcts = exact_percentiles(
                [e.latency_s * 1000.0 for e in self.entries]
            )
            metrics.update(
                queue_ms_p50=round(queue_pcts["p50"], 4),
                queue_ms_p95=round(queue_pcts["p95"], 4),
                queue_ms_p99=round(queue_pcts["p99"], 4),
                latency_ms_p50=round(latency_pcts["p50"], 4),
                latency_ms_p95=round(latency_pcts["p95"], 4),
                latency_ms_p99=round(latency_pcts["p99"], 4),
                trace_duration_s=round(elapsed, 4),
            )
        slo_report = evaluate_slos(metrics, self.slos)
        metrics["slo"] = slo_report.to_dict()
        metrics["slo_pass"] = slo_report.passed
        metrics["slo_failed"] = len(slo_report.failed)
        return metrics


def render_dashboard(service: ColoringService, window_s: float = 30.0) -> str:
    """The periodic live view ``repro serve`` prints: registry-backed
    totals, bounded-error latency percentiles from the streaming
    histograms, and the recent-window throughput.

    Reads the registry and the entry log only -- rendering mid-trace
    cannot perturb the stream (neutrality contract)."""
    from repro.metrics import format_table

    m = service.metrics
    served = len(service.entries)
    total = len(service.workload.batches)
    counters = {k: v.value for k, v in sorted(m.counters.items())}
    lines = [
        f"service: {served}/{total} batches @ trace t={service._clock_s:.2f}s",
        "  "
        + "  ".join(f"{k.removeprefix('stream.')}={v:g}" for k, v in counters.items()),
    ]
    rows = []
    for name in ("stream.repair_ms", "service.queue_ms", "service.latency_ms"):
        hist = m.histograms.get(name)
        if hist is None or not hist.count:
            continue
        pcts = hist.percentiles()
        rows.append(
            {
                "histogram": name,
                "count": hist.count,
                "p50": round(pcts["p50"], 3),
                "p95": round(pcts["p95"], 3),
                "p99": round(pcts["p99"], 3),
                "max": round(hist.max, 3),
            }
        )
    if rows:
        lines.append(format_table(rows))
    recent = service.recent_entries(window_s)
    if recent:
        span_s = max(
            recent[-1].completion_s - min(e.arrival_s for e in recent), 1e-9
        )
        updates = sum(e.updates for e in recent)
        lines.append(
            f"  last {window_s:g}s: {updates} updates "
            f"({updates / span_s:.1f}/s), "
            f"{sum(1 for e in recent if not e.proper)} violations"
        )
    return "\n".join(lines)


def run_service(
    workload,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    mode: str = "repair",
    verify_each_batch: bool = True,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    slos: Iterable[SLOTarget] = DEFAULT_SLOS,
) -> tuple[ColoringService, dict[str, Any]]:
    """Serve the whole trace and collect: the service analogue of
    :func:`repro.dynamic.harness.run_stream` (what service sweep cells
    call).  Returns ``(service, metrics)``."""
    service = ColoringService(
        workload,
        params=params,
        seed=seed,
        mode=mode,
        verify_each_batch=verify_each_batch,
        tracer=tracer,
        metrics=metrics,
        slos=slos,
    )
    service.run()
    return service, service.collect()
