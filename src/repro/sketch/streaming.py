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
  its provable lower bound ``K* >= max(K*_u, K*_v)`` and ends in one or two
  rounds; a matching upper bound limits the index to the planes a probe
  can reach, and the rows' own ``(K*, Z)`` are read off those planes'
  popcounts.
* :func:`neighborhood_planes` builds those planes for every vertex's
  neighborhood maximum without the maxima themselves: ``[M_v >= k]`` is the
  OR of the neighbors' own planes ``[row_u >= k]``, over the few levels
  Lemma 5.2 predicts from the degrees.

The estimator contract -- which variants agree bit-for-bit, and where the
sanctioned one-ulp divergence lives -- is documented in
``docs/ESTIMATORS.md`` and enforced by ``tests/test_streaming.py``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.graphcore import kernels

if TYPE_CHECKING:
    from repro.graphcore import CSRAdjacency

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
    A rank ``q`` outside ``[1, t]`` raises ``ValueError``.
    """
    if maxima.ndim != 2:
        raise ValueError("expected a (rows, trials) matrix")
    rows, t = maxima.shape
    if t == 0:
        raise ValueError("empty fingerprints have no estimate")
    if q is None:
        q = threshold_index(t)
    if not 1 <= q <= t:
        raise ValueError(f"threshold rank q={q} outside [1, {t}]")
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
    """Per-row popcount of a ``(..., words)`` uint64 array, as float32.

    The per-word counts go through one matvec against ones, which BLAS
    runs far faster than an integer ``sum`` along the rows.  It is exact:
    every partial sum is an integer of at most ``64 * words`` (4,096 at
    the 4,096-trial cap), below float32's ``2^24``.
    """
    return np.bitwise_count(words) @ np.ones(words.shape[-1], dtype=np.float32)


def _and_popcounts(
    planes: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Per-pair popcount of ``planes[left] & planes[right]``: two row
    gathers, ANDed in place.  The gathers clip instead of checking each
    id: the caller validates the pair ids, and the plane range bounds the
    levels."""
    both = planes.take(left, axis=0, mode="clip")
    np.bitwise_and(both, planes.take(right, axis=0, mode="clip"), out=both)
    return _popcount_rows(both)


def _first_level(degree: int, fraction: float, top: int) -> int:
    """Smallest ``k`` in ``[1, top]`` with ``(1 - 2^-k)^degree >= fraction``
    (``top`` when none is): the level at which the expected ``Z_k / t`` of
    a ``degree``-element neighborhood first reaches ``fraction``
    (Lemma 5.2's ``P[max < k]``)."""
    target = math.log(fraction)
    k = 1
    while k < top and degree * math.log1p(-(2.0 ** -k)) < target:
        k += 1
    return min(k, top)


def _or_levels(
    rows: np.ndarray, indptr: np.ndarray, indices: np.ndarray, levels, mask
) -> np.ndarray:
    """Packed planes ``[M_v < k]`` of every vertex for each ``k`` in
    ``levels``, ``M_v`` the neighborhood maximum of ``rows``.

    Each vertex's own planes ``[row_u >= k]`` are packed one level at a
    time through one reused bool buffer and stacked in one row; a
    per-vertex ``bitwise_or.reduce`` over the neighbor block gives
    ``[M_v >= k]`` for all levels at once, and the complement within the
    ``t`` trial bits (``mask``) is ``[M_v < k]``.  Isolated vertices OR
    nothing, so their planes come out all ones: the empty set's maximum is
    below every level.

    Memory: the own and the OR-ed planes, two ``(n, levels, words)``
    uint64 arrays, plus one bool buffer for a block of rows that holds as
    many bytes as a ``_GATHER_CHUNK`` gather of int64 entries (not one
    byte per trial bit of every row), and one neighbor row's gathered
    planes at a time.  The gathers clip instead of checking each id, so
    ``indices`` must lie in ``[0, n)``: :func:`neighborhood_planes`
    checks that once.
    """
    n, t = rows.shape
    words = mask.size
    own = np.empty((n, len(levels), words), dtype=np.uint64)
    step = max(1, 8 * kernels._GATHER_CHUNK // (words * 64))
    # trials padded to whole words; the padding bits stay False
    buf = np.zeros((min(n, step), words * 64), dtype=bool)
    for start in range(0, n, step):
        block = rows[start : start + step]
        bits = buf[: block.shape[0]]
        for j, k in enumerate(levels):
            np.greater_equal(block, k, out=bits[:, :t])
            own[start : start + block.shape[0], j] = np.packbits(
                bits, axis=1
            ).view(np.uint64)
    flat = own.reshape(n, -1)
    out = np.zeros_like(own)
    flat_out = out.reshape(n, -1)
    bounds = indptr.tolist()
    for v in range(n):
        start, stop = bounds[v], bounds[v + 1]
        if stop > start:
            np.bitwise_or.reduce(
                flat.take(indices[start:stop], axis=0, mode="clip"),
                axis=0,
                out=flat_out[v],
            )
    np.bitwise_not(out, out=out)
    out &= mask
    return out


def neighborhood_planes(
    csr: CSRAdjacency, rows: np.ndarray
) -> tuple[np.ndarray, int]:
    """Packed threshold planes ``[M_v < k]`` of every vertex's neighborhood
    maximum ``M_v = max over u in N(v) of rows[u]``, over a level range
    that brackets every row's ``K*`` and ``U`` -- the input of
    :class:`UnionPlanes`.

    ``[M_v >= k]`` is the OR over ``u in N(v)`` of ``[row_u >= k]``: the
    threshold form of the max-convergecast (Lemmas 5.2/5.8), so the
    ``(n, t)`` matrix of maxima is never built.  The range starts where
    Lemma 5.2 expects it: one below the smallest ``k`` with
    ``(1 - 2^-k)^d_min >= q/t`` and up to the smallest ``k`` with
    ``(1 - 2^-k)^d_max >= cap/t`` (``cap = ceil((t + q) / 2)``, degrees of
    the non-isolated vertices).  It then extends downward, one OR pass per
    level, while a non-isolated row holds ``q`` bits at its lowest level,
    and upward while a row holds fewer than ``cap`` at its top, so the
    start only affects speed.  Returns ``(planes, first)``: a
    ``(rows, levels, ceil(t / 64))`` uint64 array whose plane ``j`` is
    level ``first + j``.  ``rows`` holds values ``>= EMPTY_MAX``.  A
    neighbor id outside ``[0, rows)`` raises ``IndexError``.
    """
    n, t = rows.shape
    indices = csr.indices
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n):
        raise IndexError(f"neighbor ids must lie in [0, {n})")
    words = (t + 63) // 64
    mask = np.packbits(np.arange(words * 64) < t).view(np.uint64)
    degree = csr.degrees
    live = degree > 0
    if not live.any():
        return np.zeros((n, 0, words), dtype=np.uint64), 0
    q = threshold_index(t)
    cap = (t + q + 1) // 2
    # every neighborhood maximum is below this level, so Z reaches t there
    top = int(rows.max()) + 1
    lo = max(_first_level(int(degree[live].min()), q / t, top) - 1, 0)
    hi = _first_level(int(degree.max()), cap / t, top)

    def at(levels):
        return _or_levels(rows, csr.indptr, indices, levels, mask)

    planes = at(range(lo, hi + 1))
    while lo > 0 and (_popcount_rows(planes[live, 0]) >= q).any():
        lo -= 1
        planes = np.concatenate([at([lo]), planes], axis=1)
    while (_popcount_rows(planes[:, -1]) < cap).any():
        hi += 1
        planes = np.concatenate([planes, at([hi])], axis=1)
    return planes, lo


class UnionPlanes:
    """Packed threshold bit-planes answering pairwise union-cardinality
    queries without materializing union fingerprints (Lemma 5.8 fused).

    Built from packed planes of per-row maxima (typically the neighborhood
    fingerprints of every vertex, from :func:`neighborhood_planes`).
    Plane ``k`` of a row stores, 64 trials per word, the bits
    ``Y^r_i < k``; since ``max(a, b) < k  iff  a < k and b < k``, the
    union's ``Z_k`` is the popcount of two ANDed plane rows.  ``K*`` of
    the union is found by an escalating probe from the per-pair lower bound
    ``max(K*_a, K*_b)`` (unions only shrink ``Z_k``, so ``K*`` never
    decreases under merging) -- one or two popcount rounds for almost
    every pair.

    The probe also has an upper bound.  Let ``U_r`` be the row's
    ``ceil((t + q) / 2)``-th smallest value plus one.  By inclusion-exclusion
    ``Z_k(a ∪ b) >= Z_k(a) + Z_k(b) - t``, which at ``k = max(U_a, U_b)`` is
    at least ``q``; so a union's ``K*`` is at most ``max(U_a, U_b)``.  Each
    row's ``Z_k`` is its plane's popcount: the first level with
    ``Z_k >= q`` gives ``(K*, Z)`` and the first with
    ``Z_k >= ceil((t + q) / 2)`` gives ``U``.  Only the planes ``k`` in
    ``[min K*, max U]`` (over the non-empty rows) are ever probed, and only
    those are kept.  Empty rows -- all of whose planes are all ones -- get
    ``K* = U = 0``, ``Z = t``, and a pair of them is answered without a
    probe.

    ``planes`` is a ``(rows, levels, ceil(trials / 64))`` uint64 array,
    plane ``j`` holding level ``first + j`` with the padding bits clear;
    ``empty_rows`` marks the rows whose set is empty.  Unless ``first`` is
    0, every non-empty row must hold fewer than ``q`` bits at the first
    plane, and every row at least ``ceil((t + q) / 2)`` at the last, or
    ``ValueError`` is raised: the planes must bracket every ``K*`` and
    ``U``.

    Memory: one ``(rows * planes, ceil(trials / 64))`` uint64 array, row
    ``v * planes + (k - min K*)`` holding plane ``k`` of row ``v``, plus
    ``O(chunk * trials / 64)`` probe temporaries.  A query's own arrays
    (ids, ``(K*, Z)``, estimates) are a few words per queried pair, so the
    buddy predicate queries its edges in blocks of ``_GATHER_CHUNK`` pairs
    and nothing it holds scales with the edge count beyond the YES edges.
    The order statistics are exactly the integers
    :func:`fused_topk_counts` yields on the rows and on the materialized
    union matrix, and the estimates use the ``log1p`` form of
    :func:`estimates_from_counts`.
    """

    def __init__(
        self, planes: np.ndarray, first: int, trials: int, empty_rows: np.ndarray
    ):
        if planes.ndim != 3:
            raise ValueError("expected a (rows, levels, words) plane array")
        n, levels, words = planes.shape
        if trials < 1:
            raise ValueError("empty fingerprints have no estimate")
        if words != (trials + 63) // 64:
            raise ValueError(f"{trials} trials do not pack into {words} words")
        t = self.trials = int(trials)
        self.q = threshold_index(t)
        cap = (t + self.q + 1) // 2
        self.empty_rows = np.asarray(empty_rows, dtype=bool).reshape(-1)
        if self.empty_rows.size != n:
            raise ValueError("empty_rows must flag every row")
        live = ~self.empty_rows
        z = _popcount_rows(planes)  # (n, levels)
        if live.any() and (
            levels == 0
            or (first > 0 and (z[live, 0] >= self.q).any())
            or (z[live, -1] < cap).any()
        ):
            raise ValueError("the planes must bracket every row's K* and U")
        self.row_k = np.zeros(n, dtype=np.int64)
        self.row_z = np.full(n, t, dtype=np.int64)
        #: Per row, the ``ceil((t + q) / 2)``-th smallest value plus one:
        #: no union with this row has a larger ``K*`` than ``max(U, U')``.
        self.row_u = np.zeros(n, dtype=np.int64)
        self._k_lo = self._n_planes = 0
        self._planes = np.zeros((0, words), dtype=np.uint64)
        if not live.any():
            return
        z = z[live]
        at_k = np.argmax(z >= self.q, axis=1)
        self.row_k[live] = first + at_k
        self.row_z[live] = z[np.arange(z.shape[0]), at_k]
        self.row_u[live] = first + np.argmax(z >= cap, axis=1)
        # no probe reads a plane below the smallest non-empty row's K*
        self._k_lo = int(self.row_k[live].min())
        k_hi = int(self.row_u.max())
        self._n_planes = k_hi - self._k_lo + 1
        kept = planes[:, self._k_lo - first : k_hi - first + 1]
        self._planes = np.ascontiguousarray(kept).reshape(n * self._n_planes, words)

    def row_estimates(self) -> np.ndarray:
        """Lemma 5.2 estimates of the rows themselves (no union), from the
        order statistics already computed at construction."""
        return estimates_from_counts(
            self.row_k, self.row_z, self.trials, empty_rows=self.empty_rows
        )

    def union_order_statistics(
        self, left: np.ndarray, right: np.ndarray, *, chunk_rows: int = 1 << 11
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw ``(K*, Z)`` of ``max(rows[left], rows[right])`` per pair.

        Identical integers to :func:`fused_topk_counts` on the materialized
        union matrix; a pair of empty rows gives ``K* = 0, Z = t`` without
        a probe.  Pairs are processed in chunks of ``chunk_rows``; each
        probe round gathers one plane row per side with ``take``, ANDs them
        in place and popcounts, so the working set stays
        ``O(chunk * trials / 64)`` words.  Misaligned pair arrays, ids
        outside ``[0, rows)`` and a non-positive ``chunk_rows`` raise
        ``ValueError``.
        """
        left = np.asarray(left, dtype=np.int64).reshape(-1)
        right = np.asarray(right, dtype=np.int64).reshape(-1)
        if left.shape != right.shape:
            raise ValueError("left/right pair arrays must align")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        m = left.size
        n = self.row_k.size
        if m and (
            min(left.min(), right.min()) < 0 or max(left.max(), right.max()) >= n
        ):
            raise ValueError(f"pair ids must lie in [0, {n})")
        both_empty = self.empty_rows[left] & self.empty_rows[right]
        if both_empty.any():
            # the union of two empty sets: K* = 0, Z = t, nothing to probe
            k_star = np.zeros(m, dtype=np.int64)
            z = np.full(m, self.trials, dtype=np.int64)
            rest = np.flatnonzero(~both_empty)
            k_star[rest], z[rest] = self.union_order_statistics(
                left[rest], right[rest], chunk_rows=chunk_rows
            )
            return k_star, z
        k_star = np.empty(m, dtype=np.int64)
        z = np.empty(m, dtype=np.int64)
        planes, n_planes, q = self._planes, self._n_planes, self.q
        for start in range(0, m, chunk_rows):
            cl = left[start : start + chunk_rows]
            cr = right[start : start + chunk_rows]
            # level = k - min K*; the flat plane row of (v, k) is
            # v * planes + level
            level = np.maximum(self.row_k[cl], self.row_k[cr]) - self._k_lo
            at_l = cl * n_planes + level
            at_r = cr * n_planes + level
            counts = _and_popcounts(planes, at_l, at_r)
            # escalate the pairs whose union fell short of q, one plane up
            short = np.flatnonzero(counts < q)
            at_l, at_r, up = at_l[short], at_r[short], level[short]
            while short.size:
                at_l += 1
                at_r += 1
                up += 1
                if int(up.max()) >= n_planes:
                    raise AssertionError(
                        "union probe escaped the plane range"
                    )  # unreachable: a union's K* is at most max(U_a, U_b)
                got = _and_popcounts(planes, at_l, at_r)
                counts[short] = got
                level[short] = up
                rest = np.flatnonzero(got < q)
                short, at_l, at_r, up = short[rest], at_l[rest], at_r[rest], up[rest]
            k_star[start : start + cl.size] = level + self._k_lo
            z[start : start + cl.size] = counts
        return k_star, z

    def union_estimates(
        self, left: np.ndarray, right: np.ndarray, *, chunk_rows: int = 1 << 11
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
