"""Stage failures and the fallback discipline (docs/ARCHITECTURE.md, D3).

"W.h.p." events fail at finite scale.  A stage that cannot meet its
postcondition raises :class:`StageFailure`; the caller retries up to
``params.max_stage_retries`` times and then degrades to the always-correct
random-trial loop for the affected vertices, recording the event so
benchmark output shows any degradation instead of hiding it.
"""

from __future__ import annotations


class StageFailure(RuntimeError):
    """A pipeline stage missed its w.h.p. postcondition.

    Attributes
    ----------
    stage:
        Stage label (matches the ledger's op names).
    affected:
        Vertices the fallback must take over (may be empty).
    """

    def __init__(self, stage: str, message: str, affected: list[int] | None = None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.affected = affected or []
