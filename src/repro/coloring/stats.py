"""Execution statistics of a coloring run.

The theorems bound rounds; the experiments need those counts broken down by
stage, along with every fallback taken, so a run that silently degraded is
visible in benchmark output (docs/ARCHITECTURE.md, D3).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


@dataclass
class ColoringStats:
    """Round/bit counters per stage plus degradation bookkeeping."""

    stage_rounds: dict[str, int] = field(default_factory=dict)
    fallbacks: Counter = field(default_factory=Counter)
    retries: Counter = field(default_factory=Counter)
    regime: str = ""
    notes: list[str] = field(default_factory=list)

    @contextmanager
    def stage(self, runtime, name: str) -> Iterator:
        """Run the wrapped block as stage ``name`` of ``runtime``: inside the
        tracer span ``name`` (yielded, for counters) and one ledger window,
        whose ``rounds_h`` is added to ``stage_rounds[name]``."""
        with runtime.tracer.span(name) as span, runtime.ledger.window() as window:
            yield span
        self.stage_rounds[name] = self.stage_rounds.get(name, 0) + window.rounds_h

    def record_fallback(self, stage: str, count: int = 1) -> None:
        """A stage degraded to the fallback path ``count`` times."""
        self.fallbacks[stage] += count

    def record_retry(self, stage: str) -> None:
        """A stage retried after missing its postcondition."""
        self.retries[stage] += 1


@dataclass
class ColoringResult:
    """The output of the end-to-end pipeline."""

    colors: np.ndarray
    num_colors: int
    stats: ColoringStats
    ledger_summary: dict
    proper: bool
    seed: int
    params_name: str

    @property
    def rounds_h(self) -> int:
        """Headline round count (broadcast-and-aggregate units; the number
        Theorems 1.1/1.2 bound up to the hidden dilation factor)."""
        return int(self.ledger_summary.get("rounds_h", 0))

    @property
    def rounds_g(self) -> int:
        """Underlying network rounds (includes the dilation factor)."""
        return int(self.ledger_summary.get("rounds_g", 0))
