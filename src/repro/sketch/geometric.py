"""Geometric random variables and their maxima (Section 5.1).

A geometric variable of parameter ``lam`` takes value ``k >= 0`` with
probability ``lam^k - lam^(k+1)`` (failures before the first success).  The
paper's fingerprints are coordinate-wise maxima of such variables; three
facts drive everything:

* Claim 5.1: ``P(max of d < k) = (1 - lam^k)^d`` -- so the maximum encodes
  ``log_{1/lam} d`` and can be *estimated* (Lemma 5.2);
* Lemma 5.3: the maximum is unique with probability ``>= (1-lam)/(1+lam)``
  (``2/3`` at ``lam = 1/2``) regardless of ``d``;
* Lemma 5.4: conditioned on uniqueness, the argmax is uniform.

Both sampling paths are provided: per-element variables (needed when the
*identity* of the argmax matters, e.g. Algorithm 7 and the buddy
predicate's shared rows) and direct sampling of the maximum from its CDF
(statistically identical, ``O(1)`` per trial, used for pure counting).
The per-element variables at ``lam = 1/2`` have an exact int8 kernel,
:func:`sample_geometric_half`, that replays ``rng.geometric(0.5)`` bit for
bit (docs/ESTIMATORS.md, "Fingerprint rows").
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_LAMBDA = 0.5

#: Sentinel for the maximum over an empty set (merge identity).
EMPTY_MAX = -1

#: Elements per uniform block of :func:`sample_geometric_half`: each float64
#: temporary stays at 512 KiB whatever the output size.
_HALF_DRAW_BLOCK = 1 << 16


def sample_geometric(
    rng: np.random.Generator, size: int | tuple[int, ...], lam: float = DEFAULT_LAMBDA
) -> np.ndarray:
    """Sample geometric(``lam``) variables on support ``{0, 1, 2, ...}``.

    numpy's ``geometric(p)`` counts trials to first success on ``{1, 2, ...}``
    with success probability ``p``; the paper's parameterization has failure
    probability ``lam``, hence ``p = 1 - lam`` and a shift by one.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must be in (0, 1)")
    return rng.geometric(1.0 - lam, size=size).astype(np.int64) - 1


def geometric_half_from_uniform(u: np.ndarray) -> np.ndarray:
    """Map uniforms ``U`` in ``[0, 1)`` to geometric(1/2) values, as int8.

    numpy's ``geometric(p)`` for ``p >= 1/3`` is a sequential search: it
    takes one double ``U`` and returns the smallest ``X >= 1`` with
    ``U <= 1 - 2^-X`` at ``p = 1/2`` (the partial sums are exact there).
    With ``1 - U = m * 2^e`` and ``m`` in ``[1/2, 1)`` (the subtraction is
    exact for a 53-bit ``U``), that ``X`` is ``1 - e``, except at ``U = 0``
    where the search stops at ``X = 1``.  The value is
    ``X - 1 = max(-e, 0)``.  ``1 - U`` is a normal double in
    ``[2^-53, 1]``, so ``e`` is read off its biased exponent field
    ``E = e + 1022`` (bits 52-62; the sign bit is clear) without
    ``np.frexp``: the value is ``max(1022 - E, 0)``.  ``U <= 1 - 2^-53``
    gives ``e >= -52``, so every value lies in ``[0, 52]`` and int8 holds
    it exactly.
    """
    biased = np.subtract(1.0, u, dtype=np.float64).view(np.int64)
    np.right_shift(biased, 52, out=biased)
    np.subtract(1022, biased, out=biased)
    np.maximum(biased, 0, out=biased)
    return biased.astype(np.int8)


def sample_geometric_half(
    rng: np.random.Generator, size: int | tuple[int, ...]
) -> np.ndarray:
    """Geometric(1/2) variables on ``{0, 1, ...}`` as an int8 array.

    Bitwise equal to ``rng.geometric(0.5, size) - 1``, and it leaves ``rng``
    in the same state: ``rng.random`` consumes the same one double per
    element, in the same row-major order, and
    :func:`geometric_half_from_uniform` is the exact map numpy's search
    applies to it.  The uniforms are drawn in blocks of 65,536 elements
    into one reused buffer, so no float64 array of the output's size is
    ever allocated.
    """
    out = np.empty(size, dtype=np.int8)
    flat = out.reshape(-1)
    uniforms = np.empty(min(_HALF_DRAW_BLOCK, flat.size))
    for start in range(0, flat.size, _HALF_DRAW_BLOCK):
        stop = min(start + _HALF_DRAW_BLOCK, flat.size)
        u = uniforms[: stop - start]
        rng.random(out=u)
        flat[start:stop] = geometric_half_from_uniform(u)
    return out


def sample_max_of_geometrics(
    rng: np.random.Generator,
    d: int,
    trials: int,
    lam: float = DEFAULT_LAMBDA,
) -> np.ndarray:
    """Directly sample ``trials`` i.i.d. copies of ``max of d`` geometrics.

    Inverts the CDF ``F(k) = (1 - lam^(k+1))^d`` (Claim 5.1): with
    ``U ~ Uniform(0,1)``, ``Y = ceil(log_lam(1 - U^(1/d))) - 1`` clamped to
    ``>= 0``.  Exact in distribution, ``O(trials)`` work independent of
    ``d`` -- the fast path for counting-only fingerprints.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0:
        return np.full(trials, EMPTY_MAX, dtype=np.int64)
    u = rng.random(trials)
    # 1 - u^(1/d) in a numerically careful way: use expm1/log1p
    log_u = np.log(np.clip(u, 1e-300, 1.0))
    tail = -np.expm1(log_u / d)  # 1 - u^(1/d), stays accurate for huge d
    tail = np.clip(tail, 1e-300, 1.0)
    y = np.ceil(np.log(tail) / math.log(lam)).astype(np.int64) - 1
    return np.maximum(y, 0)


def sample_max_of_geometrics_batch(
    rng: np.random.Generator,
    counts: np.ndarray,
    trials: int,
    lam: float = DEFAULT_LAMBDA,
) -> np.ndarray:
    """Sample :func:`sample_max_of_geometrics` for many set sizes at once.

    Parameters
    ----------
    rng:
        Randomness source.  The uniform draws are consumed in exactly the
        order a per-row loop of :func:`sample_max_of_geometrics` would
        consume them (rows with ``counts == 0`` draw nothing), so replacing
        such a loop with one batched call keeps the RNG stream bitwise
        identical -- the invariant the decomposition vectorization relies on.
    counts:
        int array of set sizes ``d``, one per output row.  Must be
        non-negative.
    trials:
        Number of parallel trials ``t`` (columns).

    Returns
    -------
    An ``(len(counts), trials)`` int64 matrix whose row ``i`` is distributed
    as the coordinate-wise maximum of ``counts[i]`` geometric(``lam``)
    fingerprint rows; rows with ``counts[i] == 0`` are all ``EMPTY_MAX``.
    """
    d = np.asarray(counts, dtype=np.int64).reshape(-1)
    if d.size and int(d.min()) < 0:
        raise ValueError("counts must be non-negative")
    out = np.full((d.size, trials), EMPTY_MAX, dtype=np.int64)
    positive = d > 0
    k = int(positive.sum())
    if k == 0 or trials == 0:
        return out
    u = rng.random((k, trials))
    # identical elementwise arithmetic to sample_max_of_geometrics, with the
    # per-row divisor broadcast down the rows
    log_u = np.log(np.clip(u, 1e-300, 1.0))
    tail = -np.expm1(log_u / d[positive, None])
    tail = np.clip(tail, 1e-300, 1.0)
    y = np.ceil(np.log(tail) / math.log(lam)).astype(np.int64) - 1
    out[positive] = np.maximum(y, 0)
    return out


def prob_max_below(k: int, d: int, lam: float = DEFAULT_LAMBDA) -> float:
    """``P(max of d geometrics < k) = (1 - lam^k)^d`` (Claim 5.1)."""
    if d == 0:
        return 1.0
    if k <= 0:
        return 0.0
    return (1.0 - lam**k) ** d


def non_unique_max_bound(lam: float = DEFAULT_LAMBDA) -> float:
    """Lemma 5.3's bound on ``P(maximum is not unique)``:
    ``(1-lam)^2 / (1-lam^2) = (1-lam)/(1+lam)``, i.e. ``1/3`` at
    ``lam = 1/2`` -- independent of ``d``.
    """
    return (1.0 - lam) / (1.0 + lam)


def argmax_with_uniqueness(values: np.ndarray) -> tuple[int, bool]:
    """Index of the maximum and whether it is unique.

    Operates on one trial's per-element variables; ``EMPTY_MAX`` entries are
    ignored (they encode "not participating").
    """
    if values.size == 0:
        return (-1, False)
    best = int(values.max())
    if best == EMPTY_MAX:
        return (-1, False)
    where = np.flatnonzero(values == best)
    return (int(where[0]), len(where) == 1)


def merge_maxima(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinate-wise maximum -- the aggregation operator.  Safe on
    redundant paths: ``merge(x, x) = x``, which is exactly why fingerprints
    survive the double-counting hazard of Section 1.1.
    """
    return np.maximum(a, b)
