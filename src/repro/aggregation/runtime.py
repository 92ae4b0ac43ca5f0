"""Execution runtime for cluster-level algorithms.

Algorithms in this repository are written against the communication model of
Section 3.2: each round on ``H`` is a broadcast in every support tree, local
computation on inter-cluster links, and a convergecast.  The
:class:`ClusterRuntime` binds a (cluster or virtual) graph to a
:class:`~repro.network.ledger.BandwidthLedger` and exposes the primitives the
paper uses, charging their exact cost.  Congestion (virtual graphs,
Appendix A) multiplies the G-round cost.

The runtime computes *results* centrally (this is a simulation) but only
through operations each cluster could have performed with the information
flowing through the charged messages; tests in
``tests/test_machine_equivalence.py`` validate the accounting against a
faithful per-machine execution for the core primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.ledger import BandwidthLedger
from repro.observe.tracer import NULL_TRACER
from repro.params import AlgorithmParameters, log2ceil


@dataclass
class ClusterRuntime:
    """Binds graph + ledger + parameters + randomness for one execution.

    Parameters
    ----------
    graph:
        A :class:`~repro.cluster.cluster_graph.ClusterGraph` or
        :class:`~repro.cluster.virtual_graph.VirtualGraph`.
    params:
        Algorithm constants (presets in :mod:`repro.params`).
    rng:
        The single source of randomness for the execution.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer`; defaults to the
        no-op :data:`~repro.observe.tracer.NULL_TRACER`.  The runtime binds
        its ledger to the tracer so spans attribute this execution's
        charges.  Tracing is bitwise-invisible: it reads snapshots only.
    netmodel:
        Optional :class:`~repro.network.hetnet.HetNetModel` attached to
        the ledger before any charge: the execution then additionally
        reports a simulated-clock makespan.  Read-only toward the
        algorithm -- attaching one is bitwise-invisible to colorings,
        counters, and the RNG stream (docs/NETWORK.md).
    """

    graph: object
    params: AlgorithmParameters
    rng: np.random.Generator
    tracer: object = None
    netmodel: object = None
    #: A fresh ledger sized from the graph (built in ``__post_init__``).
    ledger: BandwidthLedger = field(init=False)

    def __post_init__(self) -> None:
        n = self.graph.n_machines
        congestion = getattr(self.graph, "congestion", 1)
        self.ledger = BandwidthLedger(
            bandwidth_bits=self.params.bandwidth_bits(n),
            dilation=max(1, self.graph.dilation) * max(1, congestion),
        )
        if self.netmodel is not None:
            self.ledger.attach_netmodel(self.netmodel)
        if self.tracer is None:
            self.tracer = NULL_TRACER
        else:
            self.tracer.bind_ledger(self.ledger)

    # ---- convenience sizes ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of machines -- the ``n`` of all w.h.p. bounds."""
        return self.graph.n_machines

    @property
    def id_bits(self) -> int:
        """Bits of one identifier: ``O(log n)``."""
        return log2ceil(max(self.n, 2))

    @property
    def color_bits(self) -> int:
        """Bits of one color in ``[Delta + 1]``."""
        return log2ceil(self.graph.max_degree + 2)

    # ---- primitive charges ---------------------------------------------------

    def h_rounds(self, op: str, count: int = 1, bits: int | None = None) -> None:
        """Charge ``count`` full H-rounds with messages of width ``bits``
        (default: one identifier).
        """
        width = self.id_bits if bits is None else bits
        for _ in range(count):
            self.ledger.charge(op, width, rounds_h=1, pipelined=True)

    def wide_message(self, op: str, bits: int, depth: int | None = None) -> None:
        """A deliberately long message, pipelined in cap-sized pieces
        (the accounting of e.g. Lemma 5.7's fingerprint aggregation).
        """
        self.ledger.charge(op, bits, rounds_h=1, depth=depth, pipelined=True)
