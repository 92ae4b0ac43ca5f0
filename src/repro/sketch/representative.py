"""Representative color-set families (Definition C.5 / Lemma C.6).

MultiColorTrial needs each vertex to try up to ``Theta(log n)`` colors while
describing them in ``O(log n)`` bits.  The device is a globally known family
of ``s``-sized subsets of the color universe such that a random member
intersects every large-enough target set proportionally; a vertex sends only
the index of its chosen member.

Substitution (docs/ARCHITECTURE.md, D4): Lemma C.6 proves such families *exist* via the
probabilistic method; we realize a member directly as a seeded pseudorandom
subset (which satisfies Definition C.5 w.h.p. -- the same argument), and
charge the ``O(log n)``-bit index for shipping it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sketch.minwise import mix64


@dataclass(frozen=True)
class RepresentativeSet:
    """One pseudorandom member ``S_i`` of the family, lazily materialized
    over an arbitrary ordered universe.
    """

    index: int
    size: int

    def materialize(self, universe: list[int]) -> list[int]:
        """The concrete subset of ``universe`` this index denotes.

        Selection is by seeded hash ranking: deterministic given
        ``(index, universe)``, uniform-looking, and requiring only the
        ``O(log n)``-bit ``index`` to communicate.
        """
        if not universe:
            return []
        k = min(self.size, len(universe))
        # rank by mix((c * phi mod 2^64) ^ index); the stable sort keeps a
        # tie in universe order
        codes = np.asarray(universe, dtype=np.int64).astype(np.uint64)
        with np.errstate(over="ignore"):
            codes *= np.uint64(0x9E3779B97F4A7C15)
        order = np.argsort(mix64(codes ^ np.uint64(self.index)), kind="stable")
        return [universe[i] for i in order[:k].tolist()]


@dataclass(frozen=True)
class RepresentativeFamily:
    """A family of pseudorandom ``set_size``-subsets; Def. C.5 parameters
    ``(alpha, delta, nu)`` are met w.h.p. by random subsets (Lemma C.6's
    probabilistic argument), which tests check empirically.
    """

    set_size: int
    family_size: int

    def sample(self, rng: np.random.Generator) -> RepresentativeSet:
        """Uniform member of the family; costs ``O(log family_size)`` bits
        to announce.
        """
        return RepresentativeSet(
            index=int(rng.integers(0, self.family_size)), size=self.set_size
        )

    @staticmethod
    def for_multicolor_trial(gamma: float, n: int) -> "RepresentativeFamily":
        """The family Algorithm 16 uses: sets of size
        ``Theta(gamma^-1 log n)`` from a polynomial-size family.
        """
        import math

        log_n = max(2.0, math.log2(max(n, 2)))
        size = max(4, int(math.ceil(2.0 * log_n / max(gamma, 1e-6))))
        return RepresentativeFamily(set_size=size, family_size=max(n * n, 1 << 16))
