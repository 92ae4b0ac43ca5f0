"""Fingerprints and the Lemma 5.2 estimator."""

import numpy as np
import pytest

from repro.sketch import (
    EMPTY_MAX,
    Fingerprint,
    FingerprintTable,
    direct_count_fingerprint,
    estimate_cardinality,
    estimates_from_counts,
    failure_probability_bound,
    fused_topk_counts,
    trials_for,
)
from tests.conftest import neighborhood_maxima, set_fingerprint


def batched_estimates(rows, *, exact=False):
    """Lemma 5.2 over a ``(rows, t)`` matrix: fused order statistics plus
    the requested final-math form."""
    k_star, z = fused_topk_counts(rows)
    empty = np.all(rows == EMPTY_MAX, axis=1)
    return estimates_from_counts(
        k_star, z, rows.shape[1], exact=exact, empty_rows=empty
    )


class TestEstimator:
    @pytest.mark.parametrize("d", [1, 5, 37, 256, 4096])
    def test_unbiased_within_lemma_bound(self, rng, d):
        """Lemma 5.2 with xi = 0.5 and t = 800: failure prob ~ 6e^-1 is
        weak, so we check the *average* over repetitions instead."""
        t = 800
        estimates = [
            direct_count_fingerprint(rng, d, t).estimate() for _ in range(40)
        ]
        assert np.mean(estimates) == pytest.approx(d, rel=0.12)

    def test_error_shrinks_with_trials(self, rng):
        d = 500
        errors = {}
        for t in (100, 400, 1600):
            ests = [direct_count_fingerprint(rng, d, t).estimate() for _ in range(40)]
            errors[t] = np.std(ests) / d
        assert errors[1600] < errors[400] < errors[100]

    def test_empty_set_estimates_zero(self):
        fp = Fingerprint.empty(64)
        assert fp.estimate() == 0.0

    def test_singleton(self, rng):
        ests = [direct_count_fingerprint(rng, 1, 800).estimate() for _ in range(30)]
        assert np.mean(ests) == pytest.approx(1.0, abs=0.25)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_cardinality(np.zeros(0, dtype=np.int64))

    def test_failure_bound_formula(self):
        assert failure_probability_bound(1.0, 200) == pytest.approx(
            6 * np.exp(-1.0)
        )

    def test_trials_for_inverts_bound(self):
        t = trials_for(0.5, 0.01)
        assert failure_probability_bound(0.5, t) <= 0.01


class TestBatchEstimate:
    def test_matches_scalar_estimator(self, rng):
        rows = np.stack(
            [direct_count_fingerprint(rng, d, 256).maxima for d in (3, 50, 700)]
        )
        batch = batched_estimates(rows)
        scalar = [estimate_cardinality(r) for r in rows]
        assert np.allclose(batch, scalar, rtol=1e-9)

    def test_empty_rows_zero(self):
        rows = np.full((2, 64), EMPTY_MAX, dtype=np.int64)
        assert (batched_estimates(rows) == 0).all()


class TestFingerprintObject:
    def test_merge_is_union_semantics(self, rng):
        """merge(fp(A), fp(B)) == fp(A ∪ B) when built from shared
        variables -- the property that defeats double counting."""
        table = FingerprintTable(100, 128, rng)
        a = set_fingerprint(table, range(0, 60))
        b = set_fingerprint(table, range(40, 100))  # overlaps A
        union = set_fingerprint(table, range(0, 100))
        merged = a.merge(b)
        assert (merged.maxima == union.maxima).all()

    def test_merge_with_empty(self, rng):
        table = FingerprintTable(10, 32, rng)
        a = set_fingerprint(table, range(10))
        assert (a.merge(Fingerprint.empty(32)).maxima == a.maxima).all()

    def test_encoded_bits_positive_and_linear_ish(self, rng):
        table = FingerprintTable(500, 256, rng)
        fp = set_fingerprint(table, range(500))
        bits = fp.encoded_bits()
        # Lemma 5.6: O(t + loglog d); generous envelope check
        assert 2 * 256 <= bits <= 20 * 256


class TestArgmaxPerTrial:
    def test_consistency_with_rows(self, rng):
        table = FingerprintTable(50, 64, rng)
        values, argmax, unique = table.argmax_per_trial(range(50))
        block = table.rows[:50].astype(np.int64)
        assert (values == block.max(axis=0)).all()
        for i in range(64):
            attained = np.flatnonzero(block[:, i] == values[i])
            assert argmax[i] == attained[0]
            assert unique[i] == (len(attained) == 1)

    def test_empty_vertex_set(self, rng):
        table = FingerprintTable(10, 16, rng)
        values, argmax, unique = table.argmax_per_trial([])
        assert (values == EMPTY_MAX).all()
        assert (argmax == -1).all()
        assert not unique.any()


class TestNeighborhoodMaxima:
    def test_matches_bruteforce(self, rng):
        import networkx as nx

        g = nx.gnp_random_graph(40, 0.2, seed=9)
        table = FingerprintTable(40, 32, rng)
        src, dst = [], []
        for u, v in g.edges():
            src += [u, v]
            dst += [v, u]
        out = neighborhood_maxima(
            table.rows, np.array(src), np.array(dst), 40
        )
        for v in range(40):
            nbrs = list(g.neighbors(v))
            if not nbrs:
                assert (out[v] == EMPTY_MAX).all()
            else:
                expected = table.rows[nbrs].max(axis=0)
                assert (out[v] == expected).all()


class TestBatchSampling:
    """The batched direct-count path must replay the per-vertex loop's RNG
    stream and estimates bitwise -- the decomposition vectorization's
    contract."""

    def test_batch_maxima_replay_loop_bitwise(self, rng):
        from repro.sketch import sample_max_of_geometrics, sample_max_of_geometrics_batch

        counts = np.random.default_rng(0).integers(0, 300, size=120)
        state = rng.bit_generator.state
        loop = np.stack(
            [sample_max_of_geometrics(rng, int(d), 33) for d in counts]
        )
        rng2 = np.random.default_rng()
        rng2.bit_generator.state = state
        batch = sample_max_of_geometrics_batch(rng2, counts, 33)
        assert np.array_equal(loop, batch)
        # both generators must land on the same stream position too
        assert rng.bit_generator.state == rng2.bit_generator.state

    def test_batch_estimate_exact_is_bitwise(self, rng):
        counts = np.random.default_rng(1).integers(0, 5000, size=400)
        rows = np.stack(
            [direct_count_fingerprint(rng, int(d), 64).maxima for d in counts]
        )
        exact = batched_estimates(rows, exact=True)
        scalar = np.array([estimate_cardinality(r) for r in rows])
        # array_equal, not allclose: the exact variant promises the last bit
        assert np.array_equal(exact, scalar)

    def test_batch_count_estimates_replays_loop(self, rng):
        from repro.sketch import batch_count_estimates

        counts = np.random.default_rng(2).integers(0, 200, size=80)
        state = rng.bit_generator.state
        loop = np.array(
            [direct_count_fingerprint(rng, int(d), 41).estimate() for d in counts]
        )
        rng2 = np.random.default_rng()
        rng2.bit_generator.state = state
        batch = batch_count_estimates(rng2, counts, 41)
        assert np.array_equal(loop, batch)

    @pytest.mark.parametrize("trials", [1, 41, 1682, 4096, 70_000])
    def test_blocked_count_estimates_equal_one_matrix(self, trials):
        """Blocked ``batch_count_estimates`` equals the one-matrix path
        (one draw, one fused pass, exact final math) and a per-row
        ``direct_count_fingerprint(...).estimate()`` loop bitwise, RNG end
        state included (the loop is skipped at ``t = 1``, where its 196,613
        scalar rows would take seconds); 70,000 trials force one-row
        blocks, and 41 and 1682 do not divide ``2**16``."""
        from repro.sketch import (
            batch_count_estimates,
            sample_max_of_geometrics_batch,
        )

        block = max(1, (1 << 16) // trials)
        counts = np.random.default_rng(trials).integers(1, 5000, 3 * block + 5)
        counts[max(0, block - 2) : block + 2] = 0  # a zero run across an edge
        counts[2 * block : 3 * block] = 0  # a whole block of zeros
        counts[0] = counts[-1] = 0
        for case in (counts, np.zeros(0, dtype=np.int64)):
            ref_rng = np.random.default_rng(99)
            maxima = sample_max_of_geometrics_batch(ref_rng, case, trials)
            k_star, z = fused_topk_counts(maxima)
            want = estimates_from_counts(
                k_star,
                z,
                trials,
                exact=True,
                empty_rows=np.all(maxima == EMPTY_MAX, axis=1),
            )
            rng = np.random.default_rng(99)
            got = batch_count_estimates(rng, case, trials)
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if trials == 1:
                continue  # 196,613 rows: the per-row loop alone takes ~10 s
            loop_rng = np.random.default_rng(99)
            loop = [
                direct_count_fingerprint(loop_rng, int(d), trials).estimate()
                for d in case
            ]
            assert np.array_equal(got, np.array(loop, dtype=np.float64))
            assert loop_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_in_place_inversion_matches_the_reference_at_the_edges(self):
        """The count blocks' in-place chain maps uniforms to the maxima the
        reference computes, at the clamps too: ``U = 0`` and subnormal
        ``U`` (tail exactly 1, so the raw value is -1 and clamps to 0), the
        largest ``U`` below 1, and huge set sizes."""
        from repro.sketch import sample_max_of_geometrics_batch
        from repro.sketch.fingerprint import _count_block_maxima

        edges = np.array(
            [0.0, 5e-324, 1e-300, 5e-17, 0.25, 0.5, np.nextafter(1.0, 0.0)]
        )
        counts = np.array([1, 2, 7, 10**6, 2**40])
        u = np.tile(edges, (counts.size, 1))

        class Replay:
            def random(self, shape):
                return u.copy()

        want = sample_max_of_geometrics_batch(Replay(), counts, edges.size)
        got = np.empty(u.shape, dtype=np.int16)
        _count_block_maxima(u.copy(), counts.astype(np.float64)[:, None], got)
        assert np.array_equal(got, want)
        assert want[0, 0] == 0 and want.max() > 50

    @pytest.mark.parametrize("trials", [1, 8, 421, 4096])
    def test_count_estimate_equals_the_fingerprint_estimate(self, trials):
        from repro.sketch.fingerprint import count_estimate

        for d in (0, 1, 2, 37, 10**6):
            ref = np.random.default_rng(d)
            got = np.random.default_rng(d)
            want = direct_count_fingerprint(ref, d, trials).estimate()
            assert count_estimate(got, d, trials) == want
            assert got.bit_generator.state == ref.bit_generator.state

    def test_negative_counts_rejected(self, rng):
        from repro.sketch import sample_max_of_geometrics_batch

        with pytest.raises(ValueError):
            sample_max_of_geometrics_batch(rng, np.array([3, -1]), 8)

    def test_zero_counts_draw_nothing(self, rng):
        from repro.sketch import sample_max_of_geometrics_batch

        state = rng.bit_generator.state
        out = sample_max_of_geometrics_batch(rng, np.zeros(5, dtype=np.int64), 16)
        assert (out == EMPTY_MAX).all()
        assert rng.bit_generator.state == state  # untouched stream
