"""Observability: stage-level tracing.

Everything here *watches* the pipeline without perturbing it.  The
contract that makes the subsystem trustworthy:

- a :class:`~repro.observe.tracer.Tracer` only reads the bandwidth
  ledger's snapshots and the wall clock -- it never draws from the RNG,
  never charges the ledger, and never branches the algorithms, so an
  enabled tracer is *bitwise-invisible* (same colorings, same per-op
  ledger, same RNG end state; tested in ``tests/test_observe.py``);
- the default :data:`~repro.observe.tracer.NULL_TRACER` makes the whole
  layer a single no-op method call when tracing is off.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and how it maps onto
the paper's stages.
"""

from repro.observe.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    aggregate_stage_rows,
    stage_rows,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "stage_rows",
    "aggregate_stage_rows",
]
