"""Fingerprints: vectors of maxima with the Lemma 5.2 cardinality estimator.

A *fingerprint* of a set ``S`` is the vector ``(Y_1, ..., Y_t)`` where
``Y_i = max_{u in S} X_{u,i}`` over i.i.d. geometric variables.  Because the
aggregation operator is max, fingerprints are immune to redundant paths --
the property that makes them computable on cluster graphs where plain sums
double-count (Section 1.1).

``estimate_cardinality`` implements the estimator of Lemma 5.2 verbatim:

    Z_k  = |{i : Y_i < k}|
    K*   = min{k : Z_k >= (27/40) t}
    d_hat = ln(Z_{K*} / t) / ln(1 - 2^{-K*})

with the guarantee ``|d - d_hat| <= xi d`` w.p. ``>= 1 - 6 exp(-xi^2 t/200)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sketch.encoding import encoded_size_bits
from repro.sketch.geometric import (
    DEFAULT_LAMBDA,
    EMPTY_MAX,
    merge_maxima,
    sample_geometric_half,
    sample_max_of_geometrics,
)
from repro.sketch.streaming import (
    estimates_from_counts,
    fused_topk_counts,
    threshold_index,
)


def estimate_cardinality(maxima: np.ndarray) -> float:
    """Estimate ``d`` from ``t`` maxima of ``d`` geometric(1/2) variables.

    Implements Lemma 5.2's ``d_hat``.  Degenerate inputs are handled the way
    a distributed implementation would: an all-``EMPTY_MAX`` fingerprint
    means the set was empty (return 0); at the boundary ``Z = t`` we clamp to
    ``t - 1/2`` (the lemma's regime guarantees ``Z_{K*} < t`` w.h.p., so the
    clamp only fires outside its guarantee).  ``K*`` is clamped to ``>= 1``
    (reachable only when over ``27/40`` of the coordinates are ``EMPTY_MAX``
    yet some are not -- impossible for real fingerprints, whose rows are
    all-empty or all-valid), keeping every estimator variant total and
    aligned on such synthetic input (docs/ESTIMATORS.md).
    """
    t = int(maxima.size)
    if t == 0:
        raise ValueError("empty fingerprint has no estimate")
    if np.all(maxima == EMPTY_MAX):
        return 0.0
    # for integer counts, z >= (27/40) t  iff  z >= ceil((27/40) t) = q
    threshold = threshold_index(t)
    sorted_maxima = np.sort(maxima)
    # Z_k counts maxima strictly below k; K* is the smallest k whose count
    # reaches the 27/40 threshold.  The candidate k values are (max value)+1.
    k_star = None
    z_kstar = None
    for k in range(0, int(sorted_maxima[-1]) + 2):
        z = int(np.searchsorted(sorted_maxima, k, side="left"))
        if z >= threshold:
            k_star = k
            z_kstar = z
            break
    if k_star is None:  # unreachable: k = max+1 has Z = t
        raise AssertionError("threshold never reached")
    return _estimate_from_order_statistics(k_star, z_kstar, t)


def _estimate_from_order_statistics(k_star: int, z: int, t: int) -> float:
    """Lemma 5.2's ``d_hat`` from integer ``(K*, Z)``: the scalar
    ``math.log`` form with the boundary clamps of
    :func:`estimate_cardinality`."""
    z_eff = min(float(z), t - 0.5)
    z_eff = max(z_eff, 0.5)
    k_star = max(k_star, 1)
    return math.log(z_eff / t) / math.log(1.0 - 2.0 ** (-k_star))


def failure_probability_bound(xi: float, t: int) -> float:
    """Lemma 5.2's failure bound ``6 exp(-xi^2 t / 200)``."""
    return 6.0 * math.exp(-(xi * xi) * t / 200.0)


def trials_for(xi: float, failure: float) -> int:
    """Trials needed so the Lemma 5.2 bound is at most ``failure``."""
    return max(1, int(math.ceil(200.0 / (xi * xi) * math.log(6.0 / failure))))


@dataclass
class Fingerprint:
    """One aggregatable fingerprint (the ``(Y_i)`` vector).

    ``merge`` is coordinate-wise max -- idempotent, commutative, associative,
    with the all-``EMPTY_MAX`` fingerprint as identity.
    """

    maxima: np.ndarray

    @classmethod
    def empty(cls, trials: int) -> "Fingerprint":
        """The merge identity (fingerprint of the empty set)."""
        return cls(np.full(trials, EMPTY_MAX, dtype=np.int64))

    def merge(self, other: "Fingerprint") -> "Fingerprint":
        """Aggregate with another fingerprint (max per coordinate)."""
        return Fingerprint(merge_maxima(self.maxima, other.maxima))

    def estimate(self) -> float:
        """Cardinality estimate (Lemma 5.2)."""
        return estimate_cardinality(self.maxima)

    def encoded_bits(self) -> int:
        """Message width under the Lemma 5.6 encoding."""
        return encoded_size_bits(np.maximum(self.maxima, 0))

    @property
    def trials(self) -> int:
        """Number of parallel trials ``t``."""
        return int(self.maxima.size)


class FingerprintTable:
    """Shared per-vertex geometric variables ``X_{v,i}`` for a vertex set.

    Used when *correlations* matter: the union fingerprint of
    ``N(u) ∪ N(v)`` (Lemma 5.8's buddy predicate) must reuse the same
    underlying variables, so vertices draw their ``X`` rows once and
    neighborhood fingerprints are maxima over rows.

    ``rows`` is an ``(n_vertices, trials)`` int8 matrix drawn by
    :func:`~repro.sketch.geometric.sample_geometric_half`: the same values
    and RNG stream as ``rng.geometric(0.5) - 1``, each provably in
    ``[0, 52]``.
    """

    def __init__(self, n_vertices: int, trials: int, rng: np.random.Generator):
        self.trials = trials
        self.rows = sample_geometric_half(rng, (n_vertices, trials))

    def argmax_per_trial(self, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each trial: the max value, the first vertex attaining it, and
        whether it is attained uniquely.  Drives Algorithm 7 (Step 4).
        """
        idx = np.fromiter(vertices, dtype=np.int64)
        if idx.size == 0:
            empty = np.full(self.trials, EMPTY_MAX, dtype=np.int64)
            return empty, np.full(self.trials, -1, dtype=np.int64), np.zeros(
                self.trials, dtype=bool
            )
        block = self.rows[idx].astype(np.int64)  # (|S|, t)
        values = block.max(axis=0)
        attained = block == values[None, :]
        counts = attained.sum(axis=0)
        first_pos = attained.argmax(axis=0)
        argmax_vertices = idx[first_pos]
        return values, argmax_vertices, counts == 1


def direct_count_fingerprint(
    rng: np.random.Generator, d: int, trials: int, lam: float = DEFAULT_LAMBDA
) -> Fingerprint:
    """Fast-path fingerprint of an anonymous ``d``-element set, sampled
    straight from the max distribution (identical in law; ``O(trials)``).
    """
    return Fingerprint(sample_max_of_geometrics(rng, d, trials, lam))


def count_estimate(rng: np.random.Generator, d: int, trials: int) -> float:
    """``direct_count_fingerprint(rng, d, trials).estimate()`` without
    the fingerprint's sort-and-search: the same draws (none when
    ``d == 0``) and the same float, bit for bit.

    The one-row case of :func:`batch_count_estimates`: the count blocks'
    in-place chain on one row, ``(K*, Z)`` from :func:`fused_topk_counts`,
    then the exact scalar form of :func:`estimate_cardinality`.
    """
    if d == 0:
        return 0.0
    maxima = np.empty((1, trials), dtype=np.int16)
    _count_block_maxima(rng.random(trials), float(d), maxima[0])
    k_star, z = fused_topk_counts(maxima)
    return _estimate_from_order_statistics(int(k_star[0]), int(z[0]), trials)


def batch_count_estimates(
    rng: np.random.Generator, counts: np.ndarray, trials: int
) -> np.ndarray:
    """Lemma 5.2 estimates for many anonymous set sizes.

    The batched replacement for a per-vertex loop of
    ``direct_count_fingerprint(rng, d, trials).estimate()``.  Rows are
    processed in blocks of ``max(1, 2**16 // trials)``.  Each block draws
    the uniforms of its positive-count rows into one reused float64 buffer
    (``rng.random(out=...)``), inverts them in place into one reused int16
    buffer (:func:`_count_block_maxima`) and reduces those with one fused
    order-statistics pass, so no ``(len(counts), trials)`` matrix and no
    per-block float64 temporary is allocated.  The blocks consume the
    uniforms in the loop's row-major order (rows with ``counts == 0`` draw
    nothing), the maxima are the reference's values, and ``(K*, Z)`` are
    exact integers whatever the blocking (docs/ESTIMATORS.md, rule 1); the
    exact final-math form then runs once over all rows, bitwise identical
    to per-row :func:`estimate_cardinality`.

    Returns a float64 array aligned with ``counts``; zero-count rows
    estimate exactly 0.
    """
    d = np.asarray(counts, dtype=np.int64).reshape(-1)
    if d.size and int(d.min()) < 0:
        raise ValueError("counts must be non-negative")
    if trials <= 0:
        raise ValueError("empty fingerprints have no estimate")
    block = max(1, (1 << 16) // trials)
    divisors = d.astype(np.float64)
    size = min(block, d.size) * trials
    uniforms = np.empty(size)
    maxima = np.empty(size, dtype=np.int16)
    # zero-count rows keep the all-EMPTY_MAX statistics (K* = 0, Z = t)
    k_star = np.zeros(d.size, dtype=np.int64)
    z = np.full(d.size, trials, dtype=np.int64)
    for start in range(0, d.size, block):
        rows = start + np.flatnonzero(d[start : start + block])
        if rows.size == 0:
            continue
        u = uniforms[: rows.size * trials].reshape(rows.size, trials)
        rng.random(out=u)
        y = maxima[: u.size].reshape(u.shape)
        _count_block_maxima(u, divisors[rows, None], y)
        k_star[rows], z[rows] = fused_topk_counts(y)
    return estimates_from_counts(
        k_star, z, trials, exact=True, empty_rows=d == 0
    )


def _count_block_maxima(
    u: np.ndarray, divisors: np.ndarray, out: np.ndarray
) -> None:
    """Turn a block of uniforms into maxima of geometric(1/2) variables:
    :func:`~repro.sketch.geometric.sample_max_of_geometrics_batch`'s ufunc
    chain, run in place in ``u`` (float64, overwritten) for set sizes
    ``divisors`` (float64, broadcast against ``u``), with the integer
    maxima written to ``out`` (int16 holds them: the ``1e-300`` clamp
    bounds them by ``ceil(log2(1e300)) - 1 = 996``).  The clamps are lower
    bounds only: ``u < 1``, and ``-expm1(x)`` lies in ``(0, 1]`` for
    ``x < 0``, so the reference's upper bound of 1 never binds."""
    np.maximum(u, 1e-300, out=u)
    np.log(u, out=u)
    np.divide(u, divisors, out=u)
    np.expm1(u, out=u)
    np.negative(u, out=u)
    np.maximum(u, 1e-300, out=u)
    np.log(u, out=u)
    np.divide(u, math.log(DEFAULT_LAMBDA), out=u)
    np.ceil(u, out=u)
    # the reference's max(ceil - 1, 0), as max(ceil, 1) - 1 on floats
    np.maximum(u, 1.0, out=u)
    np.copyto(out, u, casting="unsafe")
    np.subtract(out, 1, out=out)
