"""Stage-level tracing: nested spans over wall time, ledger windows, counters.

The paper bounds every phase of the algorithm separately -- ACD
construction, slack generation, cabal coloring, synchronized trials, the
put-aside finish -- in ``O(log* n)`` broadcast-and-aggregate rounds, but a
:class:`~repro.network.ledger.BandwidthLedger` only accumulates run totals.
A :class:`Tracer` attributes those totals: each :meth:`Tracer.span` opens a
named window that records wall time, the ledger counters accumulated inside
it (``rounds_h`` / ``rounds_g`` / payload bits, plus the true
*window-local* maximum message width), read from one ledger window,
and free-form counters (frontier sizes, escalations, rows processed).  Each
span also notes the process's resident-set high-water mark at its exit, so
a trace shows which stage raised the peak memory.
Spans nest: a stage span contains its per-pass spans, and a child's
counters are a sub-interval of its parent's.

Neutrality contract
-------------------

Tracing must be *bitwise-invisible*: an enabled tracer only reads ledger
windows and the wall clock -- it never draws randomness, never charges
the ledger, and never changes control flow.  The pinned-seed digest tests
(``tests/test_observe.py``) prove an enabled-tracer run produces the same
colorings, per-op ledger, and RNG end state as an untraced run.  The
default is the module singleton :data:`NULL_TRACER`, whose ``span`` returns
a shared no-op context manager -- the overhead of an untraced call site is
one attribute lookup and one method call.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "aggregate_stage_rows",
    "stage_rows",
    "stage_tree",
]


@dataclass
class SpanRecord:
    """One closed (or still-open) span: a named, tagged measurement window.

    The ledger fields are those of the
    :class:`~repro.network.ledger.LedgerWindow` the span held open (zero
    when the tracer has no bound ledger): counter differences between span
    entry and exit, and the true *window-local* maximum capped message
    width, not the ledger's global running maximum.  ``peak_rss_mb`` is
    the process's resident-set high-water mark (``getrusage``
    ``ru_maxrss``) when the span last exited: the first span whose value
    exceeds the one closed before it is where the peak grew.
    """

    name: str
    tags: dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    rounds_h: int = 0
    rounds_g: int = 0
    message_bits: int = 0
    max_message_bits: int = 0
    num_operations: int = 0
    #: Simulated time accumulated inside the span when the bound ledger
    #: carries a heterogeneous network model (:mod:`repro.network.hetnet`);
    #: stays 0.0 -- and is omitted from the serialized span -- otherwise.
    makespan_ms: float = 0.0
    peak_rss_mb: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto this span's counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def walk(self) -> Iterator["SpanRecord"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (the artifact ``trace`` section schema)."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_time_s": round(self.wall_time_s, 6),
            "rounds_h": self.rounds_h,
            "rounds_g": self.rounds_g,
            "message_bits": self.message_bits,
            "max_message_bits": self.max_message_bits,
            "num_operations": self.num_operations,
            "peak_rss_mb": round(self.peak_rss_mb, 1),
        }
        if self.makespan_ms:
            out["makespan_ms"] = round(self.makespan_ms, 6)
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`.

    Exposes the underlying :class:`SpanRecord` as ``record`` and forwards
    :meth:`counter` to it, so call sites can write
    ``with tracer.span("x") as sp: sp.counter("rows", k)``.
    """

    __slots__ = ("_tracer", "record", "_start", "_window")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._start = 0.0
        self._window = None

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto the span's counter ``name``."""
        self.record.counter(name, value)

    def __enter__(self) -> "_ActiveSpan":
        ledger = self._tracer.ledger
        if ledger is not None:
            self._window = ledger.window().__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record.wall_time_s += time.perf_counter() - self._start
        window = self._window
        if window is not None:
            window.__exit__(exc_type, exc, tb)
            record = self.record
            record.rounds_h = window.rounds_h
            record.rounds_g = window.rounds_g
            record.message_bits = window.message_bits
            record.max_message_bits = window.max_message_bits
            record.num_operations = window.num_operations
            record.makespan_ms = window.makespan_ms
        # ru_maxrss is in KiB on Linux
        self.record.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self._tracer._pop(self.record)
        return False


class Tracer:
    """Collects a tree of :class:`SpanRecord` windows for one execution.

    Spans attribute the counters of the
    :class:`~repro.network.ledger.BandwidthLedger` bound with
    :meth:`bind_ledger`; the executing runtime binds its own ledger before
    any span opens.  Until then spans record wall time only.

    The tracer is single-threaded by design (like the runtimes it traces):
    spans close in LIFO order, enforced with a ``RuntimeError`` on misuse.
    """

    def __init__(self) -> None:
        self.ledger = None
        self.root = SpanRecord(name="trace")
        self._stack: list[SpanRecord] = [self.root]

    # ---- wiring --------------------------------------------------------------

    def bind_ledger(self, ledger) -> None:
        """Attach the ledger whose counters spans will attribute.

        Binding is only legal while no span is open: an open span holds a
        window of the previously bound ledger, and swapping underneath it
        would mis-attribute every counter.
        """
        if len(self._stack) > 1:
            raise RuntimeError(
                "cannot bind a ledger while spans are open "
                f"(innermost: {self._stack[-1].name!r})"
            )
        self.ledger = ledger

    # ---- spans ---------------------------------------------------------------

    def span(self, name: str, **tags: Any) -> _ActiveSpan:
        """Open a named child span of the innermost open span.

        Returns a context manager; counters recorded through it land on
        this span.  Tags are free-form identifying labels (``round=3``).
        """
        record = SpanRecord(name=name, tags=tags)
        self._stack[-1].children.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _pop(self, record: SpanRecord) -> None:
        if self._stack[-1] is not record:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {record.name!r} closed out of order "
                f"(innermost is {self._stack[-1].name!r})"
            )
        self._stack.pop()

    # ---- views ---------------------------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        """The top-level spans (direct children of the implicit root)."""
        return self.root.children

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready trace tree: ``{"spans": [...]}`` (the artifact
        ``trace`` section)."""
        return {"spans": [s.to_dict() for s in self.spans]}


class _NullSpan:
    """The shared no-op span: enters, exits, and counts into the void."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def counter(self, name: str, value: float = 1) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``span`` hands back one shared context-manager instance, so the cost
    of an untraced call site is a method call and nothing else -- no
    allocation, no clock read, no ledger window.  Use the module
    singleton :data:`NULL_TRACER` rather than constructing new instances.
    """

    def bind_ledger(self, ledger) -> None:
        """No-op."""

    def span(self, name: str, **tags: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN


#: Module-level no-op singleton every runtime defaults to.
NULL_TRACER = NullTracer()


# ---- table views ------------------------------------------------------------


def _top_spans(trace: Tracer | dict[str, Any] | None) -> list[dict[str, Any]]:
    """The serialized top-level spans of a live tracer or a ``to_dict()``
    tree."""
    if trace is None:
        return []
    if isinstance(trace, Tracer):
        return trace.to_dict()["spans"]
    return trace.get("spans", [])


def _span_rows(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One table row per serialized span, in the given order."""
    rows = []
    for span in spans:
        tags = span.get("tags", {})
        label = span["name"]
        if tags:
            label += "[" + ",".join(f"{k}={v}" for k, v in sorted(tags.items())) + "]"
        rows.append(
            {
                "stage": label,
                "wall_s": float(span.get("wall_time_s", 0.0)),
                "rounds_h": int(span.get("rounds_h", 0)),
                "rounds_g": int(span.get("rounds_g", 0)),
                "bits": int(span.get("message_bits", 0)),
                "max_bits": int(span.get("max_message_bits", 0)),
                "makespan_ms": float(span.get("makespan_ms", 0.0)),
                "peak_rss_mb": float(span.get("peak_rss_mb", 0.0)),
            }
        )
    return rows


def stage_rows(
    trace: Tracer | dict[str, Any] | None,
) -> list[dict[str, Any]]:
    """Flatten a trace's *top-level* spans into table-ready stage rows.

    Accepts a live :class:`Tracer` or a serialized ``to_dict()`` tree (the
    artifact ``trace`` section).  One row per top-level span, in execution
    order: ``stage`` (name plus any tags), ``wall_s``, ``rounds_h``,
    ``rounds_g``, ``bits``, ``max_bits``, ``makespan_ms``, ``peak_rss_mb``.
    Top-level spans partition the run, so summing a ledger column
    reproduces the run's ledger totals -- the invariant ``repro trace``
    prints and tests assert.
    """
    return _span_rows(_top_spans(trace))


def stage_tree(trace: Tracer | dict[str, Any] | None) -> list[dict[str, Any]]:
    """:func:`aggregate_stage_rows` at every depth of a trace.

    One merged row per top-level span name, as :func:`aggregate_stage_rows`
    gives for :func:`stage_rows`, each carrying a ``children`` list: the
    merged rows of the child spans of every span it merged, built the
    same way down the tree (so the three ``sparse_mct.pass`` spans under
    ``sparse`` become one row).  Only the top level partitions the run; a
    child row is a part of its parent's.
    """
    return _merge_tree(_top_spans(trace))


def _merge_tree(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    rows = aggregate_stage_rows(_span_rows(spans))
    children: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["name"], []).extend(span.get("children", []))
    for row in rows:
        row["children"] = _merge_tree(children[row["stage"]])
    return rows


def aggregate_stage_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Merge stage rows that share a span *name* (tags stripped), summing
    every column -- e.g. the per-batch ``stream.batch[batch=i]`` rows of a
    stream trace collapse into one ``stream.batch`` row.  ``max_bits``
    merges by maximum (it is a width, not a payload), and so does
    ``peak_rss_mb`` (a high-water mark)."""
    merged: dict[str, dict[str, Any]] = {}
    for row in rows:
        name = row["stage"].split("[", 1)[0]
        bucket = merged.setdefault(
            name,
            {"stage": name, "wall_s": 0.0, "rounds_h": 0, "rounds_g": 0,
             "bits": 0, "max_bits": 0, "makespan_ms": 0.0,
             "peak_rss_mb": 0.0, "spans": 0},
        )
        bucket["wall_s"] += row["wall_s"]
        bucket["rounds_h"] += row["rounds_h"]
        bucket["rounds_g"] += row["rounds_g"]
        bucket["bits"] += row["bits"]
        bucket["max_bits"] = max(bucket["max_bits"], row["max_bits"])
        bucket["makespan_ms"] += row.get("makespan_ms", 0.0)
        bucket["peak_rss_mb"] = max(bucket["peak_rss_mb"], row.get("peak_rss_mb", 0.0))
        bucket["spans"] += 1
    return list(merged.values())
