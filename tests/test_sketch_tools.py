"""Min-wise hashing (App. C) and representative sets (Def. C.5)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketch import MinwiseHash, RepresentativeFamily, sample_minwise
from repro.sketch.minwise import _mix, mix64

#: the largest index a multicolor-trial family draws from: n^2 at n = 10^6
_TOP_INDEX = RepresentativeFamily.for_multicolor_trial(0.1, 10**6).family_size - 1


class TestMix64:
    """The SplitMix64 array kernel against the scalar finalizer (the
    oracle), and both of its callers against their scalar forms."""

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @example([0, 2**63 - 1, 2**64 - 1, _TOP_INDEX])
    @settings(max_examples=100)
    def test_kernel_equals_scalar_oracle(self, xs):
        got = mix64(np.array(xs, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [_mix(x) for x in xs]

    @given(
        st.integers(0, 2**63 - 2),
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),
    )
    @example(0, [0, 2**63 - 1, -1, _TOP_INDEX])
    def test_minwise_values_equal_value(self, seed, xs):
        h = MinwiseHash(seed)
        got = h.values(np.array(xs, dtype=np.int64))
        assert got.tolist() == [h.value(x) for x in xs]

    @given(
        st.integers(0, _TOP_INDEX),
        st.lists(st.integers(0, 5000), max_size=60),
        st.integers(1, 70),
    )
    @example(_TOP_INDEX, [0, 1, 1, 2], 3)
    @example(0, [2**63 - 1, 0, 7], 2)
    def test_materialize_equals_sorted_key_oracle(self, index, universe, size):
        from repro.sketch import RepresentativeSet

        ranked = sorted(
            universe, key=lambda c: _mix(c * 0x9E3779B97F4A7C15 ^ index)
        )
        member = RepresentativeSet(index=index, size=size)
        assert member.materialize(universe) == ranked[:size]


class TestMinwise:
    def test_deterministic_given_seed(self):
        h1, h2 = MinwiseHash(42), MinwiseHash(42)
        assert h1.value(123) == h2.value(123)
        assert MinwiseHash(43).value(123) != h1.value(123)

    def test_argmin_member(self, rng):
        h = sample_minwise(rng)
        xs = [3, 17, 99, 4]
        assert h.argmin(xs) in xs

    def test_argmin_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_minwise(rng).argmin([])

    def test_near_uniform_argmin(self, rng):
        """Definition C.1's property: each element wins ~1/|X| of the time
        over random functions."""
        xs = list(range(10))
        wins = np.zeros(10)
        for _ in range(5000):
            h = sample_minwise(rng)
            wins[h.argmin(xs)] += 1
        freqs = wins / wins.sum()
        assert np.allclose(freqs, 0.1, atol=0.03)

    def test_descriptor_bits_formula(self):
        bits = MinwiseHash.descriptor_bits(1024, 0.25)
        assert bits == 10 * 2  # log2(1024) * log2(4)


class TestRepresentativeSets:
    def test_materialize_deterministic_subset(self):
        family = RepresentativeFamily(set_size=5, family_size=100)
        member = family.sample(np.random.default_rng(0))
        universe = list(range(40))
        s1 = member.materialize(universe)
        s2 = member.materialize(universe)
        assert s1 == s2
        assert len(s1) == 5
        assert set(s1) <= set(universe)

    def test_small_universe_truncates(self):
        family = RepresentativeFamily(set_size=10, family_size=100)
        member = family.sample(np.random.default_rng(1))
        assert len(member.materialize([1, 2, 3])) == 3
        assert member.materialize([]) == []

    def test_definition_c5_hit_rate(self, rng):
        """Random members intersect a delta-fraction target proportionally
        (Def. C.5 Equation (22), alpha = 1/2 tolerance)."""
        family = RepresentativeFamily.for_multicolor_trial(gamma=0.25, n=1024)
        universe = list(range(200))
        target = set(range(0, 100))  # half the universe
        hits = []
        for _ in range(400):
            member = family.sample(rng)
            s = member.materialize(universe)
            hits.append(len(target & set(s)) / len(s))
        assert np.mean(hits) == pytest.approx(0.5, abs=0.05)

    def test_mct_family_size_scales_with_gamma(self):
        loose = RepresentativeFamily.for_multicolor_trial(0.5, 1024)
        tight = RepresentativeFamily.for_multicolor_trial(0.05, 1024)
        assert tight.set_size > loose.set_size
