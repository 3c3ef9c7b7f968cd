"""Tests for the retention-time model (paper Fig. 2)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.reliability.retention import (
    BER_AT_1S,
    BER_AT_64MS,
    JEDEC_REFRESH_PERIOD_S,
    RetentionModel,
    SLOW_REFRESH_PERIOD_S,
)

MODEL = RetentionModel()


class TestAnchors:
    def test_jedec_anchor(self):
        """BER at 64 ms is 1e-9 (paper Sec. II-B)."""
        assert MODEL.bit_failure_probability(JEDEC_REFRESH_PERIOD_S) == pytest.approx(
            BER_AT_64MS, rel=1e-9
        )

    def test_one_second_anchor(self):
        """BER at 1 s is 10^-4.5 (the paper's default)."""
        assert MODEL.bit_failure_probability(SLOW_REFRESH_PERIOD_S) == pytest.approx(
            BER_AT_1S, rel=1e-12
        )

    @pytest.mark.parametrize("period,ber", [
        (0.064, 1e-09),
        (0.128, 1.36366029655e-08),
        (0.256, 1.8595694044e-07),
        (0.512, 2.53582096547e-06),
        (1.0, 3.16227766017e-05),
    ])
    def test_ber_at_doubled_refresh_periods(self, period, ber):
        """Fig. 2's curve at each doubling of the refresh period."""
        assert MODEL.ber_at_refresh_period(period) == pytest.approx(ber, rel=1e-9)

    def test_expected_failed_bits_at_1s(self):
        """Paper: ~32K failed bits per 1Gb, ~256K per 1GB at BER 10^-4.5."""
        from repro.reliability.failure import expected_failed_bits

        per_gbit = expected_failed_bits(BER_AT_1S, 1 << 30)
        per_gbyte = expected_failed_bits(BER_AT_1S, 8 << 30)
        assert 30_000 < per_gbit < 36_000
        assert 250_000 < per_gbyte < 280_000


class TestShape:
    def test_monotone_increasing(self):
        times = [0.01, 0.064, 0.2, 1.0, 5.0, 20.0]
        probs = [MODEL.bit_failure_probability(t) for t in times]
        assert probs == sorted(probs)
        assert all(p1 < p2 for p1, p2 in zip(probs, probs[1:]))

    def test_clamped_at_one(self):
        assert MODEL.bit_failure_probability(1e6) == 1.0

    def test_zero_time(self):
        assert MODEL.bit_failure_probability(0) == 0.0
        assert MODEL.bit_failure_probability(-1) == 0.0

    def test_curve_matches_point_queries(self):
        for t, p in MODEL.curve(points=11):
            assert p == pytest.approx(MODEL.bit_failure_probability(t))

    def test_curve_spans_requested_range(self):
        curve = MODEL.curve(t_min_s=0.01, t_max_s=100.0, points=5)
        assert curve[0][0] == pytest.approx(0.01)
        assert curve[-1][0] == pytest.approx(100.0)

    def test_curve_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            MODEL.curve(t_min_s=1.0, t_max_s=0.5)


class TestInverse:
    def test_refresh_period_for_ber_roundtrip(self):
        for ber in (1e-9, 1e-6, BER_AT_1S):
            period = MODEL.refresh_period_for_ber(ber)
            assert MODEL.ber_at_refresh_period(period) == pytest.approx(ber, rel=1e-6)

    def test_rejects_bad_ber(self):
        with pytest.raises(ConfigurationError):
            MODEL.refresh_period_for_ber(0.0)
        with pytest.raises(ConfigurationError):
            MODEL.refresh_period_for_ber(1.5)


class TestSampling:
    def test_sample_count(self):
        samples = MODEL.sample_retention_times(100, random.Random(0))
        assert len(samples) == 100
        assert all(s > 0 for s in samples)

    def test_sample_distribution_matches_cdf(self):
        """Empirical P(retention < 1 s) should approximate BER_AT_1S scale.

        BER_AT_1S ~ 3e-5 is too rare for 1e5 samples, so test at a longer
        time where the probability is material.
        """
        rng = random.Random(7)
        samples = MODEL.sample_retention_times(20_000, rng)
        t_test = 30.0
        expected = MODEL.bit_failure_probability(t_test)
        empirical = sum(1 for s in samples if s < t_test) / len(samples)
        assert empirical == pytest.approx(expected, rel=0.15)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            MODEL.sample_retention_times(-1, random.Random(0))


class TestValidation:
    def test_rejects_bad_anchor(self):
        with pytest.raises(ConfigurationError):
            RetentionModel(anchor_time_s=-1)
        with pytest.raises(ConfigurationError):
            RetentionModel(anchor_ber=0.0)
        with pytest.raises(ConfigurationError):
            RetentionModel(slope=-2.0)


@given(st.floats(min_value=0.001, max_value=1000.0),
       st.floats(min_value=0.001, max_value=1000.0))
@settings(max_examples=100)
def test_property_monotonicity(t1, t2):
    p1 = MODEL.bit_failure_probability(t1)
    p2 = MODEL.bit_failure_probability(t2)
    if t1 < t2:
        assert p1 <= p2
    elif t1 > t2:
        assert p1 >= p2


class TestTemperature:
    """Extension: retention halves per +10 C (JEDEC extended-temp basis)."""

    def test_hotter_means_higher_ber(self):
        nominal = RetentionModel()
        hot = nominal.at_temperature_offset(20.0)
        assert hot.ber_at_refresh_period(1.0) > nominal.ber_at_refresh_period(1.0)

    def test_exact_halving_relation(self):
        """+10 C at period P equals nominal at period 2P."""
        nominal = RetentionModel()
        hot = nominal.at_temperature_offset(10.0)
        assert hot.ber_at_refresh_period(0.5) == pytest.approx(
            nominal.ber_at_refresh_period(1.0), rel=1e-9
        )

    def test_cooling_helps(self):
        nominal = RetentionModel()
        cold = nominal.at_temperature_offset(-10.0)
        assert cold.ber_at_refresh_period(1.0) < nominal.ber_at_refresh_period(1.0)

    def test_zero_offset_identity(self):
        nominal = RetentionModel()
        same = nominal.at_temperature_offset(0.0)
        assert same.ber_at_refresh_period(0.7) == pytest.approx(
            nominal.ber_at_refresh_period(0.7)
        )

    def test_temperature_compensated_divider(self):
        """At +20 C, keeping the paper's BER budget requires shrinking the
        slow period 4x (1.024 s -> 0.256 s): the 4-bit divider drops to
        2 effective bits, and the refresh saving falls from 16x to 4x."""
        from repro.reliability.provisioning import required_strength_for_refresh_period

        hot = RetentionModel().at_temperature_offset(20.0)
        assert required_strength_for_refresh_period(1.024, hot) > 6
        # 0.25 s at +20 C is exactly nominal 1.0 s: ECC-6 suffices.
        assert required_strength_for_refresh_period(0.25, hot) == 6


class TestMonteCarloLineFailure:
    """The batched-codec Monte-Carlo cross-checks the binomial tail."""

    @pytest.mark.slow
    def test_matches_analytic_binomial_tail(self):
        from repro.reliability.failure import line_failure_probability
        from repro.reliability.retention import monte_carlo_line_failure

        model = RetentionModel(anchor_ber=0.02)
        period = 1.024
        estimate = monte_carlo_line_failure(
            model, period, ecc_t=2, trials=6000, seed=7, data_bits=64
        )
        from repro.ecc.bch import BchCode

        ber = model.bit_failure_probability(period)
        # Same stored size the campaign used: 64 data + 14 parity bits
        # (t=2 over GF(2^7)).
        line_bits = BchCode(t=2, data_bits=64).codeword_bits
        analytic = line_failure_probability(ber, 2, line_bits=line_bits)
        sigma = math.sqrt(analytic * (1 - analytic) / estimate.trials)
        assert abs(estimate.failure_probability - analytic) < 4 * sigma

    def test_deterministic_with_seed(self):
        from repro.reliability.retention import monte_carlo_line_failure

        a = monte_carlo_line_failure(MODEL, 1.0, ecc_t=2, trials=50, seed=3)
        b = monte_carlo_line_failure(MODEL, 1.0, ecc_t=2, trials=50, seed=3)
        assert a == b

    def test_fast_refresh_never_fails(self):
        from repro.reliability.retention import monte_carlo_line_failure

        estimate = monte_carlo_line_failure(
            MODEL, JEDEC_REFRESH_PERIOD_S, ecc_t=6, trials=200, seed=1
        )
        assert estimate.failures == 0
        assert estimate.failure_probability == 0.0

    def test_rejects_bad_arguments(self):
        from repro.reliability.retention import monte_carlo_line_failure

        with pytest.raises(ConfigurationError):
            monte_carlo_line_failure(MODEL, 1.0, ecc_t=2, trials=0)
        with pytest.raises(ConfigurationError):
            monte_carlo_line_failure(MODEL, 0.0, ecc_t=2, trials=1)


class TestSparseFlipSampler:
    def test_edge_probabilities(self):
        from repro.reliability.retention import _sample_sparse_flips

        rng = random.Random(0)
        assert _sample_sparse_flips(rng, 100, 0.0) == []
        assert _sample_sparse_flips(rng, 5, 1.0) == [0, 1, 2, 3, 4]

    def test_matches_dense_bernoulli_rate(self):
        from repro.reliability.retention import _sample_sparse_flips

        rng = random.Random(42)
        p, n_bits, rounds = 0.01, 1000, 200
        total = sum(len(_sample_sparse_flips(rng, n_bits, p)) for _ in range(rounds))
        expected = p * n_bits * rounds
        assert abs(total - expected) < 5 * math.sqrt(expected)

    def test_positions_strictly_increasing_in_range(self):
        from repro.reliability.retention import _sample_sparse_flips

        rng = random.Random(9)
        for _ in range(50):
            flips = _sample_sparse_flips(rng, 64, 0.1)
            assert flips == sorted(set(flips))
            assert all(0 <= f < 64 for f in flips)
