"""Streaming update engine: colorings maintained under edge/cluster churn.

The one-shot pipeline colors a static instance end-to-end; this package
keeps that coloring *alive* while the underlying network churns -- links
appear and disappear, clusters arrive, depart, merge and split -- repairing
only the conflict frontier instead of recoloring from scratch.

* :class:`~repro.dynamic.delta.DeltaCSR` -- delta-buffered CSR adjacency
  (array overlay: a dead mask over the base edges plus packed int64 codes
  of the inserted ones) with periodic rebuild through
  ``CSRAdjacency.from_edge_arrays``;
* :class:`~repro.dynamic.updates.UpdateBatch` -- the update vocabulary,
  one batch held as numpy columns in kind precedence;
* :class:`~repro.dynamic.engine.DynamicColoring` -- the engine: batched
  TryColor repair on the dirty set, ledger-charged, escalating to the
  one-shot pipeline when repair would touch too much of the graph;
* :class:`~repro.dynamic.view.FrozenConflictGraph` -- static snapshots the
  scratch baseline and the escalation path run the full pipeline on.
"""

from repro.dynamic.delta import DeltaCSR
from repro.dynamic.engine import (
    BatchReport,
    DynamicColoring,
    RepairError,
    StreamResult,
)
from repro.dynamic.harness import run_stream
from repro.dynamic.updates import KINDS, UpdateBatch
from repro.dynamic.view import FrozenConflictGraph

__all__ = [
    "BatchReport",
    "DeltaCSR",
    "DynamicColoring",
    "FrozenConflictGraph",
    "KINDS",
    "RepairError",
    "StreamResult",
    "UpdateBatch",
    "run_stream",
]
