"""Faithful per-machine synchronous message-passing simulator.

This is the validation simulator of docs/ARCHITECTURE.md, D1: it executes actual
flooding on the communication graph, one message per link per round, with the
bandwidth cap enforced on every concrete message.  It is ``Theta(m)`` work
per round and is therefore used only on small instances, by tests that check
the cluster-level cost accounting against a real execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.network.commgraph import CommGraph
from repro.network.ledger import ModelViolation


@dataclass
class Message:
    """A concrete message in flight: ``payload`` must fit in the cap."""

    src: int
    dst: int
    payload: object
    bits: int


@dataclass
class MachineSimulator:
    """Synchronous rounds over a :class:`CommGraph`.

    Each machine is driven by a callback
    ``step(machine, round_index, inbox) -> list[(neighbor, payload, bits)]``
    returning the messages to send this round.  The simulator enforces:

    * one message per directed link per round;
    * each message at most ``bandwidth_bits`` wide.
    """

    comm: CommGraph
    bandwidth_bits: int
    rounds_elapsed: int = 0
    total_bits: int = 0
    _inboxes: list[list[Message]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._inboxes = [[] for _ in range(self.comm.n)]

    def run_round(
        self,
        step: Callable[[int, int, list[Message]], list[tuple[int, object, int]]],
    ) -> None:
        """Execute one synchronous round with ``step`` as every machine's
        program.  Raises :class:`ModelViolation` on cap or link misuse.
        """
        outboxes: list[list[Message]] = [[] for _ in range(self.comm.n)]
        used_links: set[tuple[int, int]] = set()
        for machine in range(self.comm.n):
            inbox = self._inboxes[machine]
            for dst, payload, bits in step(machine, self.rounds_elapsed, inbox):
                if not self.comm.has_link(machine, dst):
                    raise ModelViolation(
                        f"machine {machine} sent to non-neighbor {dst}"
                    )
                if bits > self.bandwidth_bits:
                    raise ModelViolation(
                        f"{bits}-bit message exceeds cap {self.bandwidth_bits}"
                    )
                key = (machine, dst)
                if key in used_links:
                    raise ModelViolation(
                        f"machine {machine} sent twice to {dst} in one round"
                    )
                used_links.add(key)
                outboxes[dst].append(Message(machine, dst, payload, bits))
                self.total_bits += bits
        self._inboxes = outboxes
        self.rounds_elapsed += 1

    def run(
        self,
        step: Callable[[int, int, list[Message]], list[tuple[int, object, int]]],
        *,
        rounds: int,
    ) -> None:
        """Run ``rounds`` synchronous rounds."""
        for _ in range(rounds):
            self.run_round(step)

    def inbox(self, machine: int) -> list[Message]:
        """Messages delivered to ``machine`` in the last round."""
        return self._inboxes[machine]
