"""Min-wise independent hashing (Definition C.1 / Lemma C.2).

A ``(eps, s)``-min-wise family guarantees that for any set ``X`` of at most
``s`` elements, each element hashes to the minimum with probability
``(1 ± eps)/|X|``.  Algorithm 7 (Step 7) uses such functions to sample a
near-uniform anti-neighbor.

Substitution (docs/ARCHITECTURE.md, D4): instead of the ``O(log 1/eps)``-wise
independent constructions of [Ind01], we use a seeded 64-bit mixing hash,
which is statistically *stronger* (indistinguishable from full independence
for our set sizes); the descriptor cost charged to the ledger is the
``O(log N * log 1/eps)`` bits of the lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    """SplitMix64 finalizer -- a high-quality 64-bit mixing function."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def mix64(x: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a uint64 array: numpy's uint64 multiplies wrap mod
    ``2^64`` exactly as the masked Python ints do, so every element equals
    the scalar finalizer's value."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class MinwiseHash:
    """One function of the family, identified by a seed.

    ``descriptor_bits(N, eps)`` gives the message width needed to ship the
    function to a cluster (Lemma C.2: ``O(log N * log 1/eps)``).
    """

    seed: int

    def value(self, x: int) -> int:
        """Hash of one element (64-bit)."""
        return _mix(x ^ _mix(self.seed))

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized hashing of an int array (elementwise :meth:`value`)."""
        xs = np.asarray(xs, dtype=np.int64).astype(np.uint64)
        return mix64(xs ^ np.uint64(_mix(self.seed)))

    def argmin(self, xs) -> int:
        """The element of ``xs`` with smallest hash (ties by value order --
        hash collisions on 64 bits are negligible).
        """
        items = list(xs)
        if not items:
            raise ValueError("argmin of empty set")
        return min(items, key=lambda x: (self.value(int(x)), int(x)))

    @staticmethod
    def descriptor_bits(domain_size: int, eps: float) -> int:
        """Lemma C.2 descriptor size ``O(log N * log 1/eps)``."""
        log_n = max(1.0, math.log2(max(domain_size, 2)))
        log_eps = max(1.0, math.log2(1.0 / max(eps, 1e-9)))
        return int(math.ceil(log_n * log_eps))


def sample_minwise(rng: np.random.Generator) -> MinwiseHash:
    """Draw a uniformly random member of the family."""
    return MinwiseHash(seed=int(rng.integers(0, 2**63 - 1)))
