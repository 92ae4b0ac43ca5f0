"""Host-speed calibration: a fixed kernel of plain Python and numpy work.

The kernel never imports the program, so no change to the program can move
it; only the host can.  The benchmark runs it between timed operations and
scales each phase's timings by ``reference_ms / median(samples)`` over the
samples taken during that phase, which takes out the share of run-to-run
drift that comes from the host slowing down or speeding up.  The kernel
mixes the kinds of work the program does: dict-and-set churn in the
interpreter (like the stream engine's overlay), and a random gather over a
table larger than a core's cache share followed by a bincount, a sort and a
unique (like the CSR kernels).  The gather is what makes it feel memory
contention from other processes on the host, which a cache-resident kernel
does not.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

#: Holds the reference calibration median, measured on the machine the
#: benchmark was defined on.
REFERENCE_FILE = Path(__file__).with_name("calibration.json")

#: Kernel passes per calibration point; single passes vary by about a fifth.
PASSES = 2

#: The kernel's result; a different value means the kernel itself changed
#: and the stored reference no longer describes it.
EXPECTED_CHECKSUM = 35_128


def reference_ms() -> float:
    """The stored reference calibration median, in milliseconds."""
    return float(json.loads(REFERENCE_FILE.read_text())["reference_calib_ms"])


class Calibrator:
    """Runs the kernel on demand and keeps every sample's duration."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240507)
        # 16 MB gathered at random: larger than a core's cache share, so the
        # kernel feels memory contention the way the program's gathers do
        self._table = rng.integers(0, 1 << 30, size=2_000_000)
        self._index = rng.integers(0, self._table.size, size=250_000)
        self._keys = self._table[:4_000].tolist()
        self.samples_ms: list[float] = []

    def kernel(self) -> int:
        """One pass of the fixed work; returns a checksum of its results."""
        groups: dict[int, set[int]] = {}
        for i, key in enumerate(self._keys):
            groups.setdefault(key & 2047, set()).add(i)
        acc = sum(len(members) for members in groups.values())
        gathered = self._table[self._index]
        acc += int(np.bincount(gathered & 4095).max())
        acc += int(np.argsort(gathered[:60_000], kind="stable")[-1])
        acc += int(np.unique(gathered[:40_000] & 0xFFFF).size)
        return acc

    def sample(self) -> None:
        """Time ``PASSES`` kernel passes and record each one's milliseconds."""
        for _ in range(PASSES):
            start = time.perf_counter()
            checksum = self.kernel()
            self.samples_ms.append((time.perf_counter() - start) * 1000.0)
            if checksum != EXPECTED_CHECKSUM:
                raise RuntimeError(
                    f"calibration kernel checksum {checksum} != {EXPECTED_CHECKSUM}"
                )

    def median_ms(self, first: int = 0, last: int | None = None) -> float:
        """Median of ``samples_ms[first:last]``."""
        return statistics.median(self.samples_ms[first:last])

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Multiplier that maps timings taken while ``samples_ms[first:last]``
        were sampled onto the reference host."""
        return reference_ms() / self.median_ms(first, last)
