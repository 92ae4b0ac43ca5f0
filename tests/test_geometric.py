"""Geometric variables and maxima (Claim 5.1, Lemmas 5.3/5.4)."""

import numpy as np
import pytest

from repro.sketch import (
    EMPTY_MAX,
    argmax_with_uniqueness,
    geometric_half_from_uniform,
    merge_maxima,
    non_unique_max_bound,
    prob_max_below,
    sample_geometric,
    sample_geometric_half,
    sample_max_of_geometrics,
)


class TestGeometricSampling:
    def test_support_starts_at_zero(self, rng):
        xs = sample_geometric(rng, 10_000)
        assert xs.min() == 0

    def test_mean_matches_lambda_half(self, rng):
        # E[X] = lam/(1-lam) = 1 at lam = 1/2
        xs = sample_geometric(rng, 50_000)
        assert np.mean(xs) == pytest.approx(1.0, abs=0.05)

    def test_tail_halves(self, rng):
        xs = sample_geometric(rng, 100_000)
        p1 = np.mean(xs >= 1)
        p2 = np.mean(xs >= 2)
        assert p1 == pytest.approx(0.5, abs=0.02)
        assert p2 == pytest.approx(0.25, abs=0.02)

    def test_invalid_lambda(self, rng):
        with pytest.raises(ValueError):
            sample_geometric(rng, 4, lam=1.5)


def geometric_search_half(u: float) -> int:
    """Pure-Python port of numpy's ``random_geometric_search`` at
    ``p = 1/2``, shifted to support ``{0, 1, ...}``."""
    x, total, prod = 1, 0.5, 0.5
    while u > total:
        prod *= 0.5
        total += prod
        x += 1
    return x - 1


def same_state(a, b) -> bool:
    """Bit-generator states equal (MT19937 keeps an array in its state)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestHalfGeometricKernel:
    """The int8 kernel behind fingerprint rows must replay
    ``rng.geometric(0.5) - 1`` bit for bit, RNG end state included."""

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64],
    )
    @pytest.mark.parametrize("seed", range(20))
    def test_replays_numpy_geometric(self, bit_generator, seed):
        ours = np.random.Generator(bit_generator(seed))
        ref = np.random.Generator(bit_generator(seed))
        for size in (0, 1, 65_535, 65_536, 65_537, (5, 70_001)):
            got = sample_geometric_half(ours, size)
            want = ref.geometric(0.5, size) - 1
            assert got.dtype == np.int8
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert same_state(ours.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize(
        "u, value",
        [
            (0.0, 0),
            (0.5, 0),
            (np.nextafter(0.5, 1.0), 1),
            (0.75, 1),
            (1.0 - 2.0**-53, 52),  # the largest double below 1: int8 bound
        ],
    )
    def test_uniform_map_matches_search(self, u, value):
        assert geometric_search_half(u) == value
        got = geometric_half_from_uniform(np.array([u]))
        assert got.dtype == np.int8
        assert int(got[0]) == value

    def test_uniform_map_at_every_boundary(self):
        """Both sides of each threshold ``1 - 2^-k`` the search compares."""
        edges = 1.0 - 2.0 ** -np.arange(1, 54, dtype=np.float64)
        u = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)[:-1]]
        )
        u = u[u < 1.0]
        got = geometric_half_from_uniform(u)
        assert [int(x) for x in got] == [geometric_search_half(x) for x in u]
        assert int(got.max()) == 52


class TestMaxDistribution:
    def test_cdf_formula_claim_5_1(self):
        # P(Y < k) = (1 - 2^-k)^d
        assert prob_max_below(3, 4) == pytest.approx((1 - 2**-3) ** 4)
        assert prob_max_below(0, 7) == 0.0
        assert prob_max_below(5, 0) == 1.0

    def test_direct_sampler_matches_cdf(self, rng):
        d = 64
        ys = sample_max_of_geometrics(rng, d, 40_000)
        for k in [4, 6, 8, 10]:
            empirical = np.mean(ys < k)
            assert empirical == pytest.approx(prob_max_below(k, d), abs=0.02)

    def test_direct_sampler_matches_elementwise_max(self, rng):
        """The O(1) direct sampler and the max of d explicit variables must
        agree in distribution (two-sample mean/var comparison)."""
        d, t = 32, 20_000
        direct = sample_max_of_geometrics(rng, d, t)
        explicit = sample_geometric(rng, (t, d)).max(axis=1)
        assert np.mean(direct) == pytest.approx(np.mean(explicit), abs=0.1)
        assert np.std(direct) == pytest.approx(np.std(explicit), abs=0.15)

    def test_empty_set_sentinel(self, rng):
        ys = sample_max_of_geometrics(rng, 0, 5)
        assert (ys == EMPTY_MAX).all()

    def test_huge_d_stable(self, rng):
        ys = sample_max_of_geometrics(rng, 10**12, 100)
        assert np.isfinite(ys).all()
        # maximum concentrates near log2(d) = ~40
        assert 30 < np.mean(ys) < 50


class TestUniqueMaximum:
    def test_lemma_5_3_bound(self, rng):
        """P(non-unique max) <= (1-lam)/(1+lam) = 1/3, for any d."""
        assert non_unique_max_bound(0.5) == pytest.approx(1 / 3)
        for d in [2, 8, 64, 512]:
            xs = sample_geometric(rng, (4000, d))
            non_unique = 0
            for row in xs:
                _idx, unique = argmax_with_uniqueness(row)
                non_unique += not unique
            assert non_unique / 4000 <= 1 / 3 + 0.03, f"failed at d={d}"

    def test_lemma_5_4_uniform_argmax(self, rng):
        """Conditioned on uniqueness, the argmax is uniform over [d]."""
        d, reps = 8, 12_000
        xs = sample_geometric(rng, (reps, d))
        counts = np.zeros(d)
        total = 0
        for row in xs:
            idx, unique = argmax_with_uniqueness(row)
            if unique:
                counts[idx] += 1
                total += 1
        frequencies = counts / total
        assert np.allclose(frequencies, 1 / d, atol=0.02)

    def test_argmax_ignores_sentinels(self):
        row = np.array([EMPTY_MAX, 3, EMPTY_MAX, 3])
        idx, unique = argmax_with_uniqueness(row)
        assert idx == 1 and not unique
        row2 = np.array([EMPTY_MAX, EMPTY_MAX])
        assert argmax_with_uniqueness(row2) == (-1, False)


class TestMergeSemantics:
    def test_idempotent_commutative_associative(self, rng):
        a = sample_geometric(rng, 50)
        b = sample_geometric(rng, 50)
        c = sample_geometric(rng, 50)
        assert (merge_maxima(a, a) == a).all()
        assert (merge_maxima(a, b) == merge_maxima(b, a)).all()
        lhs = merge_maxima(merge_maxima(a, b), c)
        rhs = merge_maxima(a, merge_maxima(b, c))
        assert (lhs == rhs).all()

    def test_empty_is_identity(self, rng):
        a = sample_geometric(rng, 30)
        empty = np.full(30, EMPTY_MAX, dtype=np.int64)
        assert (merge_maxima(a, empty) == a).all()
