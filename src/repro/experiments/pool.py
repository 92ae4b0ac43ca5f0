"""Cell fan-out and the wall-clock watchdog for the experiment runner.

The runner (:mod:`repro.experiments.runner`) scatters independent cells
across a ``ProcessPoolExecutor`` (:func:`scatter`) and interrupts
over-budget cells with a re-firing ``SIGALRM`` watchdog
(:func:`arm_alarm` / :func:`disarm_alarm`).

The watchdog only raises while armed, so a late interval re-fire landing
inside a caller's own except/finally bookkeeping cannot escape a function
that promised never to raise.  ``SIGALRM`` is POSIX-and-main-thread only;
:func:`alarm_available` is the capability check, and callers degrade to
post-hoc budget flagging when it is False (the runner's
``timeout-unsupported`` status).
"""

from __future__ import annotations

import signal
import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, Sequence


class WatchdogTimeout(Exception):
    """A watched computation exceeded its wall-clock budget."""


# The SIGALRM handler only raises while this flag is armed (see module
# docstring).  Module-global because signal handlers are process-global.
_alarm_state = {"armed": False}


def _alarm_handler(signum, frame):  # pragma: no cover - fires only on timeout
    if _alarm_state["armed"]:
        raise WatchdogTimeout()


def alarm_available() -> bool:
    """Whether a SIGALRM watchdog can be armed here.

    ``hasattr(signal, "SIGALRM")`` alone is not enough: ``signal.signal``
    raises ``ValueError`` off the main thread (e.g. the runner embedded
    under a thread-based caller), which used to surface as a bogus
    ``status="error"`` cell.
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def arm_alarm(timeout_s: float):
    """Install the watchdog handler and start a re-firing interval timer.

    Returns the previous ``SIGALRM`` handler (restore it after
    :func:`disarm_alarm`).  The timer re-fires every ``min(timeout_s, 0.1)``
    seconds until disarmed: a one-shot alarm can be swallowed by a broad
    ``except`` deep in library code, and the computation would then run to
    completion despite its budget.
    """
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    _alarm_state["armed"] = True
    signal.setitimer(signal.ITIMER_REAL, timeout_s, min(timeout_s, 0.1))
    return previous


def disarm_alarm() -> None:
    """Stop the watchdog: clear the armed flag and cancel the timer.

    Idempotent; safe to call from every except/finally branch of a caller.
    """
    _alarm_state["armed"] = False
    signal.setitimer(signal.ITIMER_REAL, 0)


def scatter(
    fn: Callable[..., Any],
    payloads: Sequence[tuple],
    *,
    jobs: int,
) -> Iterator[tuple[int, Any, str | None]]:
    """Run ``fn(*payload)`` for each payload across a process pool.

    Yields ``(index, result, error)`` triples as payloads complete (not in
    submission order).  A payload whose worker dies (OOM, hard crash) or
    whose future raises yields ``result=None`` with the formatted traceback
    as ``error`` -- the pool itself never raises, matching the runner's
    "partial data beats no data" discipline.
    """
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = {
            pool.submit(fn, *payload): i for i, payload in enumerate(payloads)
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    yield index, future.result(), None
                except Exception:
                    yield index, None, traceback.format_exc(limit=5)
