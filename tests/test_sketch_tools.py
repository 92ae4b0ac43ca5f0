"""Min-wise hashing (App. C) and representative sets (Def. C.5)."""

import numpy as np
import pytest

from repro.sketch import MinwiseHash, RepresentativeFamily, sample_minwise


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
