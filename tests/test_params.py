"""Parameter formulas (Equation (1), Equation (2), derived quantities)."""

import math

import pytest

from repro.params import AlgorithmParameters, log2ceil, log_star, paper, scaled


class TestLogStar:
    def test_small_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_tower_bound(self):
        # 2^65536 would be log* = 5; any practical n is <= 5
        assert log_star(1e9) == 5
        assert log_star(1e18) == 5

    def test_monotone(self):
        values = [log_star(n) for n in [1, 3, 10, 100, 10**6, 10**12]]
        assert values == sorted(values)


class TestLog2Ceil:
    def test_exact_powers(self):
        assert log2ceil(1) == 1
        assert log2ceil(2) == 1
        assert log2ceil(4) == 2
        assert log2ceil(1024) == 10

    def test_between_powers(self):
        assert log2ceil(5) == 3
        assert log2ceil(1000) == 10


class TestPresets:
    def test_paper_constants_match_equation_1(self):
        p = paper()
        assert p.eps == pytest.approx(1 / 2000)
        assert p.reserved_multiplier == 250
        assert p.reserved_cap_mult == 300
        assert p.ell_exp == pytest.approx(1.1)
        assert p.delta_low_exp == 21

    def test_paper_delta_low_is_astronomical(self):
        # log^21 n at n = 10^6 -- the reason a scaled preset exists
        p = paper()
        assert p.delta_low(10**6) > 10**25

    def test_scaled_regimes_reachable(self):
        s = scaled()
        # a few-hundred-machine instance can clear the high-degree bar
        assert s.delta_low(660) < 100

    def test_tau_is_4_eps(self):
        for preset in (paper(), scaled()):
            assert preset.tau() == pytest.approx(4 * preset.eps)


class TestReservedColors:
    def test_multiplier_applied(self):
        s = scaled()
        n, delta = 1000, 10_000  # huge Delta so the cap is inactive
        ell = s.ell(n)
        assert s.reserved_colors(0.0, n, delta) == int(s.reserved_multiplier * ell)

    def test_cap_at_eps_delta(self):
        s = scaled()
        n, delta = 1000, 20
        cap = s.reserved_cap_mult * s.eps * delta
        assert s.reserved_colors(1e9, n, delta) <= cap

    def test_at_least_one(self):
        assert scaled().reserved_colors(0.0, 4, 1) >= 1

    def test_grows_with_external_degree(self):
        s = scaled()
        low = s.reserved_colors(1.0, 1000, 10**6)
        high = s.reserved_colors(1000.0, 1000, 10**6)
        assert high > low


class TestDerivedSizes:
    def test_ell_monotone_in_n(self):
        s = scaled()
        values = [s.ell(n) for n in [10, 100, 1000, 10**5]]
        assert values == sorted(values)

    def test_fingerprint_trials_cap(self):
        s = scaled()
        assert s.fingerprint_trials(10**6, xi=1e-6) == s.trials_cap

    def test_fingerprint_trials_xi_floor(self):
        s = scaled()
        # below the floor, tighter xi must not increase the trial count
        assert s.fingerprint_trials(1000, xi=0.01) == s.fingerprint_trials(
            1000, xi=s.xi_floor
        )

    def test_bandwidth_is_theta_log_n(self):
        s = scaled()
        assert s.bandwidth_bits(2**10) == s.bandwidth_coeff * 10

    def test_block_size_clamped_to_palette(self):
        s = scaled()
        assert s.donor_block_size(1000, delta=50) <= 51

    def test_block_count_cap(self):
        s = scaled()
        b = s.donor_block_size(1000, delta=1000)
        assert math.ceil(1001 / b) <= s.donor_max_blocks

    def test_donation_samples_reasonable(self):
        s = scaled()
        k = s.donation_samples(10**6)
        assert 4 <= k <= 32
