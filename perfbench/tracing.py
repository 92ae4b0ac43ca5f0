"""Outside-in layer trace: wrappers around the program's public calls.

:class:`Recorder` keeps a stack of open spans and, for every span name and
harness phase (``setup``, ``op``, ...), the summed self time (duration minus
the time its child spans cover), the summed total time and the call count.
:func:`installed` replaces the public functions listed in :func:`_targets`
with recording wrappers for the length of a ``with`` block and puts the
originals back afterwards, even when the block raises.

The wrappers live in the benchmark, not in the program: they time the calls
*into* each layer.  The program's own :class:`repro.observe.Tracer` spans
(the pipeline stages and the ``acd.*`` sub-phases) are read separately from
the tracer passed to the coloring call (see ``harness.py``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Recorder:
    """Span stack plus per-``(phase, name)`` self time, total time, calls."""

    phase: str = "idle"
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)

    def current(self) -> str | None:
        """Name of the innermost open span, ``None`` outside every span."""
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            key = (self.phase, name)
            self.self_s[key] += elapsed - frame[1]
            self.total_s[key] += elapsed
            self.calls[key] += 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def wrap(self, name: str, fn, absorbed_by: str | None = None):
        """A wrapper of ``fn`` that records a ``name`` span per call.

        When the innermost open span is ``absorbed_by``, the call runs
        without a span of its own, so its time stays with that span (the
        stream's compaction reads the edge list the same way verification
        does, and that read is compaction work).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if absorbed_by is not None and self.current() == absorbed_by:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def per(self, phase: str, name: str, count: int) -> float:
        """Self seconds of span ``name`` in ``phase`` per operation; 0 when
        nothing was recorded."""
        return self.self_s.get((phase, name), 0.0) / max(1, count)


def _targets():
    """``(owner, attribute, span name, absorbed_by)`` for every wrapped call.

    Imported lazily so that importing this module does not import the
    program.
    """
    import networkx

    import repro
    import repro.coloring.pipeline
    import repro.dynamic.engine
    import repro.workloads.generators
    from repro.cluster.cluster_graph import ClusterGraph
    from repro.dynamic.delta import DeltaCSR
    from repro.network.commgraph import CommGraph

    return [
        # construction
        (networkx, "fast_gnp_random_graph", "workloads.draw", None),
        (networkx, "random_regular_graph", "workloads.draw", None),
        (repro.workloads.generators, "blowup", "cluster.blowup", None),
        (CommGraph, "__init__", "network.commgraph", None),
        (ClusterGraph, "from_assignment", "cluster.cluster_graph", None),
        # verification inside the one-shot pipeline
        (repro.coloring.pipeline, "is_proper", "verify.is_proper", None),
        # the stream engine: bootstrap, ingestion, verification, compaction
        (repro, "color_cluster_graph", "dynamic.bootstrap", None),
        (DeltaCSR, "insert_edge", "dynamic.ingest", None),
        (DeltaCSR, "delete_edge", "dynamic.ingest", None),
        (DeltaCSR, "edge_arrays", "dynamic.verify", "dynamic.compact"),
        (repro.dynamic.engine, "is_proper_edges", "dynamic.verify", None),
        (DeltaCSR, "compact", "dynamic.compact", None),
    ]


def wrapped_attributes() -> list[tuple[object, str, object]]:
    """``(owner, attribute, current value)`` of every target, for checks
    that the originals are back in place."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _targets()]


@contextmanager
def installed(recorder: Recorder):
    """Install recording wrappers on every target; restore on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, absorbed_by in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    recorder.wrap(name, original.__func__, absorbed_by)
                )
            else:
                replacement = recorder.wrap(name, original, absorbed_by)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
