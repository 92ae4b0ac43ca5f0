"""Round and bandwidth accounting for the cluster-graph model.

The model (Section 3.2): links carry ``O(log n)`` bits per synchronous round.
One round *on H* consists of a broadcast in each support tree, computation on
inter-cluster links, and a convergecast -- costing ``O(d)`` rounds on ``G``
where ``d`` is the dilation (maximum support-tree diameter).  The paper hides
the multiplicative ``d`` inside big-Oh; we track both:

* ``rounds_h`` -- rounds counted in broadcast-and-aggregate units, the number
  the theorems bound (``O(log* n)`` etc.);
* ``rounds_g`` -- underlying network rounds, showing the ``d`` dependency
  (Experiment E12).

A message wider than the bandwidth cap is a hard :class:`ModelViolation`
unless its charge declares it *pipelined*: then it is split into cap-sized
pieces, costing extra ``G``-rounds, which is exactly how the paper's proofs
account for long messages (e.g. Lemma 5.7's ``O(xi^-2)`` aggregation).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field


class ModelViolation(RuntimeError):
    """Raised when an operation breaks the communication model."""


class LedgerWindow:
    """What a region of an execution charged: the context manager
    :meth:`BandwidthLedger.window` hands out.

    On exit ``rounds_h`` / ``rounds_g`` / ``message_bits`` (payload) /
    ``num_operations`` / ``makespan_ms`` hold the ledger's growth over the
    window (they read zero while it is open), and ``max_message_bits`` the
    widest (capped) message charged inside it -- window-local, not the
    ledger's running maximum.  Windows nest: a closing window folds its
    maximum into the enclosing one, so an outer window sees everything its
    inner windows saw.  ``makespan_ms`` stays ``0.0`` on ledgers without a
    network model (:mod:`repro.network.hetnet`).
    """

    __slots__ = (
        "rounds_h", "rounds_g", "message_bits", "max_message_bits",
        "num_operations", "makespan_ms", "_ledger", "_start",
    )

    def __init__(self, ledger: "BandwidthLedger") -> None:
        self.rounds_h = self.rounds_g = self.message_bits = 0
        self.max_message_bits = self.num_operations = 0
        self.makespan_ms = 0.0
        self._ledger = ledger
        self._start = None

    def __enter__(self) -> "LedgerWindow":
        ledger = self._ledger
        self._start = (
            ledger.rounds_h, ledger.rounds_g, ledger.total_message_bits,
            ledger.num_operations, ledger.makespan_ms,
        )
        ledger._open_windows.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ledger = self._ledger
        ledger._open_windows.pop()
        rounds_h, rounds_g, bits, ops, makespan = self._start
        self.rounds_h = ledger.rounds_h - rounds_h
        self.rounds_g = ledger.rounds_g - rounds_g
        self.message_bits = ledger.total_message_bits - bits
        self.num_operations = ledger.num_operations - ops
        self.makespan_ms = ledger.makespan_ms - makespan
        ledger._widen_window(self.max_message_bits)
        return False


@dataclass
class BandwidthLedger:
    """Accumulates the communication cost of a distributed execution.

    A new ledger starts at zero: the counters and ``netmodel`` are not
    constructor arguments.

    Parameters
    ----------
    bandwidth_bits:
        Per-link per-round capacity, typically ``Theta(log n)``.
    dilation:
        Default support-tree diameter ``d`` used to convert H-rounds into
        G-rounds when an operation does not override it.

    A :class:`~repro.network.hetnet.HetNetModel` attached with
    :meth:`attach_netmodel` makes every charge additionally advance the
    simulated clock (``makespan_ms``) by ``effective_rounds x
    envelope(capped width)`` and account the time onto the critical
    element.  The model is strictly read-only toward the execution: no RNG
    draws, no extra charges, no control-flow changes -- attaching one is
    bitwise invisible to every pre-existing counter (the golden table of
    seeded runs pins this, same contract as the tracer).
    """

    bandwidth_bits: int
    dilation: int = 1
    rounds_h: int = field(default=0, init=False)
    rounds_g: int = field(default=0, init=False)
    total_message_bits: int = field(default=0, init=False)
    max_message_bits: int = field(default=0, init=False)
    num_operations: int = field(default=0, init=False)
    per_op_rounds: Counter = field(default_factory=Counter, init=False)
    per_op_bits: Counter = field(default_factory=Counter, init=False)
    netmodel: object | None = field(default=None, init=False)
    makespan_ms: float = field(default=0.0, init=False)
    #: Open windows (innermost last); see :meth:`window`.
    _open_windows: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bandwidth_bits <= 0:
            raise ValueError("bandwidth must be positive")
        if self.dilation <= 0:
            raise ValueError("dilation must be positive")

    # ---- charging -----------------------------------------------------------

    def charge(
        self,
        op: str,
        message_bits: int,
        *,
        rounds_h: int = 1,
        depth: int | None = None,
        pipelined: bool = False,
    ) -> int:
        """Charge one cluster-level operation.

        Parameters
        ----------
        op:
            Operation label (for per-op breakdowns).
        message_bits:
            Width of the widest message this operation puts on any link.
        rounds_h:
            Number of broadcast-and-aggregate units consumed.
        depth:
            Tree depth for this op; defaults to the ledger's dilation.
        pipelined:
            Whether long messages are split into cap-sized pieces over extra
            rounds instead of violating the model.

        Returns
        -------
        int
            The number of H-rounds actually charged (after pipelining).

        Notes
        -----
        Accounting invariants (relied on by the experiment artifacts):

        * **Rounds measure time** and therefore include pipelining: both the
          ledger totals and ``per_op_rounds`` accumulate the *effective*
          (post-splitting) H-rounds, so
          ``sum(per_op_rounds.values()) == rounds_h`` always holds.
        * **Bits measure payload** and are therefore pipelining-invariant:
          splitting a wide message into cap-sized pieces repartitions the
          same ``message_bits * rounds_h`` payload over more rounds without
          creating bits.  Both ``total_message_bits`` and ``per_op_bits``
          accumulate that same quantity, so
          ``sum(per_op_bits.values()) == total_message_bits`` always holds.
        * A charge with ``rounds_h == 0`` but positive ``message_bits``
          accounts its payload once (it models data riding along an
          already-charged round) and advances no simulated time.
        """
        if message_bits < 0 or rounds_h < 0:
            raise ValueError("negative cost")
        pieces = max(1, math.ceil(message_bits / self.bandwidth_bits))
        if pieces > 1 and not pipelined:
            raise ModelViolation(
                f"operation {op!r} sends {message_bits} bits on one link in "
                f"one round; cap is {self.bandwidth_bits}. Declare "
                f"pipelined=True or shrink the message."
            )
        effective_rounds_h = rounds_h * pieces
        d = self.dilation if depth is None else max(1, depth)
        bits_charged = message_bits * max(1, rounds_h)
        self.rounds_h += effective_rounds_h
        self.rounds_g += effective_rounds_h * d
        self.total_message_bits += bits_charged
        capped_width = min(message_bits, self.bandwidth_bits)
        if self.netmodel is not None and effective_rounds_h > 0:
            self.makespan_ms += self.netmodel.account(
                capped_width, effective_rounds_h
            )
        self.max_message_bits = max(self.max_message_bits, capped_width)
        self._widen_window(capped_width)
        self.num_operations += 1
        self.per_op_rounds[op] += effective_rounds_h
        self.per_op_bits[op] += bits_charged
        return effective_rounds_h

    def absorb(self, summary: dict[str, int], *, op: str) -> None:
        """Fold another execution's headline counters into this ledger.

        The streaming engine runs the one-shot pipeline on a private ledger
        when it escalates to a scratch recolor; absorbing that run's
        :meth:`summary` under a single ``op`` label keeps the stream ledger's
        invariants intact (``sum(per_op_rounds) == rounds_h`` and
        ``sum(per_op_bits) == total_message_bits``).  Simulated time folds
        the same way: a sub-run sharing this ledger's network model
        contributes its ``makespan_ms`` here, so split accounting sums to
        exactly the unsplit total (the merge/absorb consistency tests).
        """
        if "makespan_ms" in summary:
            self.makespan_ms += float(summary["makespan_ms"])
        rounds_h = int(summary["rounds_h"])
        bits = int(summary["total_message_bits"])
        self.rounds_h += rounds_h
        self.rounds_g += int(summary["rounds_g"])
        self.total_message_bits += bits
        self.max_message_bits = max(
            self.max_message_bits, int(summary["max_message_bits"])
        )
        self.num_operations += int(summary["num_operations"])
        self._widen_window(int(summary["max_message_bits"]))
        self.per_op_rounds[op] += rounds_h
        self.per_op_bits[op] += bits

    def attach_netmodel(self, model) -> None:
        """Attach a :class:`~repro.network.hetnet.HetNetModel`.

        Only legal on a pristine ledger: attaching after charges were
        recorded would leave those rounds outside the simulated clock and
        silently under-report the makespan.
        """
        if self.num_operations or self.rounds_h:
            raise RuntimeError(
                "cannot attach a network model to a ledger that already "
                f"recorded {self.num_operations} operations"
            )
        self.netmodel = model

    # ---- windows ------------------------------------------------------------

    def window(self) -> LedgerWindow:
        """A context manager measuring what the region it wraps charged:
        ``with ledger.window() as w: ...`` leaves the region's counters on
        ``w`` (a :class:`LedgerWindow`).  A running maximum cannot be
        recovered from two totals, so the ledger keeps the open windows
        and widens the innermost one on every charge: O(1) per charge,
        exact under nesting."""
        return LedgerWindow(self)

    def _widen_window(self, width: int) -> None:
        if self._open_windows and width > self._open_windows[-1].max_message_bits:
            self._open_windows[-1].max_message_bits = width

    # ---- inspection ----------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Headline counters as a plain dict (for experiment records).

        ``makespan_ms`` appears only when a network model is attached, so
        artifacts of homogeneous runs are byte-identical to pre-model ones.
        """
        out = {
            "rounds_h": self.rounds_h,
            "rounds_g": self.rounds_g,
            "total_message_bits": self.total_message_bits,
            "max_message_bits": self.max_message_bits,
            "num_operations": self.num_operations,
        }
        if self.netmodel is not None:
            out["makespan_ms"] = round(self.makespan_ms, 6)
        return out
