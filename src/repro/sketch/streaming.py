"""Fused union-cardinality estimation (Lemma 5.2 at scale).

The Lemma 5.2 estimator needs only two *integer* statistics of a
fingerprint ``(Y_1, ..., Y_t)``:

    K* = min{k : Z_k >= q}      with  Z_k = |{i : Y_i < k}|,  q = ceil((27/40) t)
    Z  = Z_{K*}

``K*`` equals the ``q``-th order statistic plus one, and both quantities are
exact counts -- they do not depend on the order in which maxima were
accumulated.  Everything in this module exploits that invariance:

* :func:`fused_topk_counts` reads ``(K*, Z)`` off one ``np.partition`` pass,
  counting only the unpartitioned upper tail instead of re-scanning the full
  ``(rows, trials)`` matrix -- the fused top-``k`` that replaces the second
  ``maxima < K*`` sweep of the pre-fusion batched estimator.
* :func:`estimates_from_counts` turns ``(K*, Z)`` into ``d_hat`` in either
  the vectorized ``log1p`` form (within one ulp of the scalar estimator) or
  the ``math.log`` scalar form (bitwise-identical to
  :func:`~repro.sketch.fingerprint.estimate_cardinality`), evaluating the
  scalar form once per *distinct* ``(K*, Z)`` pair instead of once per row.
* :class:`UnionPlanes` answers Lemma 5.8's union queries
  ``d_hat(N(u) ∪ N(v))`` for whole edge arrays without ever materializing
  the ``(edges, trials)`` union matrix: ``max(a_i, b_i) < k`` iff
  ``a_i < k`` and ``b_i < k``, so ``Z_k`` of a union is a popcount of ANDed
  per-vertex threshold bitmasks.  An escalating probe starts each edge at
  its provable lower bound ``K* >= max(K*_u, K*_v)`` and almost always
  terminates in one round.

The estimator contract -- which variants agree bit-for-bit, and where the
sanctioned one-ulp divergence lives -- is documented in
``docs/ESTIMATORS.md`` and enforced by ``tests/test_streaming.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sketch.geometric import EMPTY_MAX

_THRESHOLD_NUM = 27
_THRESHOLD_DEN = 40


def threshold_index(trials: int) -> int:
    """Lemma 5.2's threshold rank ``q = ceil((27/40) t)``, clamped to
    ``[1, t]``."""
    q = int(math.ceil((_THRESHOLD_NUM / _THRESHOLD_DEN) * trials))
    return min(max(q, 1), trials)


def fused_topk_counts(
    maxima: np.ndarray, q: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Raw order statistics ``(K*, Z)`` of every row in one fused pass.

    ``K*`` is the ``q``-th smallest value plus one (the smallest ``k`` with
    ``Z_k >= q``); ``Z`` is the exact count of entries strictly below
    ``K*``.  One ``np.partition`` yields the pivot, and ``Z`` is recovered
    by counting pivot-exceeding entries in the *upper tail only* (positions
    ``>= q - 1``; the lower partition is ``<= pivot`` by construction), so
    the full-matrix ``maxima < K*`` comparison of the unfused path -- and
    its ``(rows, trials)`` boolean temporary -- disappear.

    Returns int64 arrays, unclamped: callers apply the ``K* >= 1`` /
    ``Z in [0.5, t - 0.5]`` clamps of the Lemma 5.2 boundary handling.
    Rows that are entirely ``EMPTY_MAX`` come out as ``K* = 0, Z = t``.
    """
    if maxima.ndim != 2:
        raise ValueError("expected a (rows, trials) matrix")
    rows, t = maxima.shape
    if t == 0:
        raise ValueError("empty fingerprints have no estimate")
    if q is None:
        q = threshold_index(t)
    part = np.partition(maxima, q - 1, axis=1)
    pivot = part[:, q - 1]
    k_star = pivot.astype(np.int64) + 1
    above = (part[:, q - 1 :] > pivot[:, None]).sum(axis=1)
    z = t - above.astype(np.int64)
    return k_star, z


def estimates_from_counts(
    k_star: np.ndarray,
    z: np.ndarray,
    trials: int,
    *,
    exact: bool = False,
    empty_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Lemma 5.2 estimates ``d_hat = ln(Z/t) / ln(1 - 2^-K*)`` from raw
    integer order statistics.

    The boundary clamps (``K* >= 1``, ``Z`` clipped to ``[0.5, t - 0.5]``)
    are applied here, matching :func:`~repro.sketch.fingerprint\
.estimate_cardinality` exactly.  Two final-math forms:

    * ``exact=False`` -- the vectorized ``log1p``/``exp2`` expression,
      within one ulp of the scalar estimator (the buddy predicate's form);
    * ``exact=True`` -- the scalar ``math.log`` expression of the per-vertex
      estimator, evaluated once per *distinct* ``(K*, Z)`` pair (both are
      small integers, so whole edge arrays share a handful of pairs) and
      scattered back -- bitwise-identical to per-row
      :func:`~repro.sketch.fingerprint.estimate_cardinality` at a fraction
      of the scalar-loop cost (the form of
      :func:`~repro.sketch.fingerprint.batch_count_estimates`).

    ``empty_rows`` marks rows whose underlying set was empty; their
    estimate is forced to exactly ``0.0``.
    """
    t = int(trials)
    if t <= 0:
        raise ValueError("trials must be positive")
    k_eff = np.maximum(k_star.astype(np.int64), 1)
    z_eff = np.clip(z.astype(np.float64), 0.5, t - 0.5)
    if exact:
        pair = k_eff * (t + 1) + np.clip(z.astype(np.int64), 0, t)
        uniq, inverse = np.unique(pair, return_inverse=True)
        uk = uniq // (t + 1)
        uz = np.clip((uniq % (t + 1)).astype(np.float64), 0.5, t - 0.5)
        table = np.fromiter(
            (
                math.log(zi / t) / math.log(1.0 - 2.0 ** (-int(ki)))
                for zi, ki in zip(uz, uk)
            ),
            dtype=np.float64,
            count=uniq.size,
        )
        estimates = table[inverse].reshape(k_eff.shape)
    else:
        estimates = np.log(z_eff / t) / np.log1p(
            -np.exp2(-k_eff.astype(np.float64))
        )
    if empty_rows is not None:
        estimates[empty_rows] = 0.0
    return estimates


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(rows, words)`` uint64 matrix."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


class UnionPlanes:
    """Packed threshold bit-planes answering pairwise union-cardinality
    queries without materializing union fingerprints (Lemma 5.8 fused).

    Built from a ``(rows, trials)`` matrix of per-row maxima (typically the
    neighborhood fingerprints of every vertex).  Plane ``k`` stores, packed
    64 trials per word, the bits ``Y^r_i < k``; since
    ``max(a, b) < k  iff  a < k and b < k``, the union's ``Z_k`` is the
    popcount of two ANDed plane rows.  ``K*`` of the union is found by an
    escalating probe from the per-edge lower bound
    ``max(K*_left, K*_right)`` (unions only shrink ``Z_k``, so ``K*`` never
    decreases under merging) -- one popcount round for almost every edge,
    bounded by the global value range.

    Memory: ``O(rows * planes * trials / 64)`` words for the planes plus
    ``O(chunk)`` probe temporaries -- nothing scales with the number of
    queried pairs.  The order statistics are exactly the integers
    :func:`fused_topk_counts` yields on the materialized union matrix, and
    the estimates use the ``log1p`` form of :func:`estimates_from_counts`.
    """

    def __init__(self, rows: np.ndarray):
        if rows.ndim != 2:
            raise ValueError("expected a (rows, trials) matrix")
        n, t = rows.shape
        if t == 0:
            raise ValueError("empty fingerprints have no estimate")
        self.trials = int(t)
        self.q = threshold_index(t)
        self.row_k, self.row_z = fused_topk_counts(rows, self.q)
        self.empty_rows = np.all(rows == EMPTY_MAX, axis=1)
        # plane k covers threshold k_lo + k; K* of any union lies in
        # [min row K*, global max value + 1] and Z at the top plane is t,
        # so the probe always terminates inside the plane range.
        self._k_lo = int(self.row_k.min()) if n else 0
        k_hi = (int(rows.max()) + 1) if n else 0
        self._n_planes = max(1, k_hi - self._k_lo + 1)
        self._words = (t + 63) // 64
        planes = np.zeros((n, self._n_planes, self._words * 8), dtype=np.uint8)
        packed_width = (t + 7) // 8
        for k in range(self._n_planes):
            planes[:, k, :packed_width] = np.packbits(
                rows < (self._k_lo + k), axis=1
            )
        self._planes = planes.view(np.uint64).reshape(
            n, self._n_planes, self._words
        )

    def row_estimates(self) -> np.ndarray:
        """Lemma 5.2 estimates of the rows themselves (no union), from the
        order statistics already computed at construction."""
        return estimates_from_counts(
            self.row_k, self.row_z, self.trials, empty_rows=self.empty_rows
        )

    def union_order_statistics(
        self, left: np.ndarray, right: np.ndarray, *, chunk_rows: int = 1 << 16
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw ``(K*, Z)`` of ``max(rows[left], rows[right])`` per pair.

        Identical integers to :func:`fused_topk_counts` on the materialized
        union matrix; pairs are processed in chunks of ``chunk_rows`` so the
        working set stays ``O(chunk * trials / 64)`` words.
        """
        left = np.asarray(left, dtype=np.int64).reshape(-1)
        right = np.asarray(right, dtype=np.int64).reshape(-1)
        if left.shape != right.shape:
            raise ValueError("left/right pair arrays must align")
        m = left.size
        k_star = np.empty(m, dtype=np.int64)
        z = np.empty(m, dtype=np.int64)
        planes, q = self._planes, self.q
        for start in range(0, m, chunk_rows):
            cl = left[start : start + chunk_rows]
            cr = right[start : start + chunk_rows]
            kcur = np.maximum(self.row_k[cl], self.row_k[cr]) - self._k_lo
            todo = np.arange(cl.size)
            ck = np.empty(cl.size, dtype=np.int64)
            cz = np.empty(cl.size, dtype=np.int64)
            while todo.size:
                sel_k = kcur[todo]
                counts = _popcount_rows(
                    planes[cl[todo], sel_k] & planes[cr[todo], sel_k]
                )
                done = counts >= q
                hit = todo[done]
                ck[hit] = sel_k[done] + self._k_lo
                cz[hit] = counts[done]
                todo = todo[~done]
                kcur[todo] += 1
                if todo.size and int(kcur[todo].max()) >= self._n_planes:
                    raise AssertionError(
                        "union probe escaped the plane range"
                    )  # unreachable: the top plane counts every trial
            k_star[start : start + cl.size] = ck
            z[start : start + cl.size] = cz
        return k_star, z

    def union_estimates(
        self, left: np.ndarray, right: np.ndarray, *, chunk_rows: int = 1 << 16
    ) -> np.ndarray:
        """Cardinality estimates of ``N(left) ∪ N(right)`` per pair, from
        :meth:`union_order_statistics` -- no ``(pairs, trials)``
        intermediate."""
        k_star, z = self.union_order_statistics(
            left, right, chunk_rows=chunk_rows
        )
        left = np.asarray(left, dtype=np.int64).reshape(-1)
        right = np.asarray(right, dtype=np.int64).reshape(-1)
        empty = self.empty_rows[left] & self.empty_rows[right]
        return estimates_from_counts(k_star, z, self.trials, empty_rows=empty)

