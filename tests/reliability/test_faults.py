"""Fault-injection campaign tests on the real line codec."""

import pytest

from repro.errors import ConfigurationError
from repro.reliability.faults import FaultInjectionCampaign, InjectionOutcome
from repro.reliability.retention import BER_AT_1S
from repro.types import EccMode


@pytest.fixture(scope="module")
def campaign():
    return FaultInjectionCampaign(seed=42)


class TestStrongMode:
    def test_six_errors_always_corrected(self, campaign):
        stats = campaign.run_fixed_errors(EccMode.STRONG, 6, trials=25)
        assert stats.count(InjectionOutcome.CORRECTED) == 25
        assert stats.silent_corruption_rate == 0.0
        assert stats.corrected_bits_total == 25 * 6

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_fewer_errors_corrected(self, campaign, n):
        stats = campaign.run_fixed_errors(EccMode.STRONG, n, trials=10)
        assert stats.count(InjectionOutcome.CORRECTED) == 10

    def test_zero_errors_clean(self, campaign):
        stats = campaign.run_fixed_errors(EccMode.STRONG, 0, trials=5)
        assert stats.count(InjectionOutcome.CLEAN) == 5

    def test_seven_errors_never_silent(self, campaign):
        """Beyond t the code may detect or (rarely) land on another
        correctable coset — but with 7-error detection it must not return
        wrong data while claiming success for these trials."""
        stats = campaign.run_fixed_errors(EccMode.STRONG, 7, trials=15)
        assert stats.count(InjectionOutcome.SILENT_DATA_CORRUPTION) == 0
        assert stats.count(InjectionOutcome.DETECTED) >= 13

    @pytest.mark.slow
    def test_paper_ber_campaign(self, campaign):
        """At BER 10^-4.5 a 576-bit line sees ~0.018 errors on average:
        nearly all trials are clean or corrected, none silently corrupt."""
        stats = campaign.run_ber(EccMode.STRONG, BER_AT_1S, trials=300)
        assert stats.trials == 300
        assert stats.silent_corruption_rate == 0.0
        corrected = stats.count(InjectionOutcome.CORRECTED)
        clean = stats.count(InjectionOutcome.CLEAN)
        assert clean + corrected == 300


class TestWeakMode:
    def test_single_error_corrected(self, campaign):
        stats = campaign.run_fixed_errors(EccMode.WEAK, 1, trials=25)
        assert stats.count(InjectionOutcome.CORRECTED) == 25

    def test_double_error_detected(self, campaign):
        stats = campaign.run_fixed_errors(EccMode.WEAK, 2, trials=25)
        assert stats.count(InjectionOutcome.DETECTED) == 25

    def test_eligible_positions_exclude_unused_field_bits(self, campaign):
        positions = campaign._eligible_positions(EccMode.WEAK)
        # Field bits 15..63 are unused in weak mode (paper Fig. 6 ii).
        assert all(not (15 <= p < 64) for p in positions)
        # 4 mode bits + 11 checks + 512 data bits are all eligible.
        assert len(positions) == 4 + 11 + 512

    def test_strong_mode_covers_everything(self, campaign):
        assert len(campaign._eligible_positions(EccMode.STRONG)) == 576


class TestValidation:
    def test_too_many_errors_rejected(self, campaign):
        with pytest.raises(ConfigurationError):
            campaign.run_fixed_errors(EccMode.STRONG, 600, trials=1)

    def test_negative_errors_rejected(self, campaign):
        with pytest.raises(ConfigurationError):
            campaign.run_fixed_errors(EccMode.STRONG, -1, trials=1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, campaign, trials):
        with pytest.raises(ConfigurationError):
            campaign.run_fixed_errors(EccMode.STRONG, 1, trials=trials)
        with pytest.raises(ConfigurationError):
            campaign.run_ber(EccMode.STRONG, 1e-3, trials=trials)

    def test_bad_ber_rejected(self, campaign):
        for ber in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigurationError):
                campaign.run_ber(EccMode.STRONG, ber, trials=1)

    def test_deterministic_with_seed(self):
        a = FaultInjectionCampaign(seed=9).run_ber(EccMode.STRONG, 1e-3, trials=50)
        b = FaultInjectionCampaign(seed=9).run_ber(EccMode.STRONG, 1e-3, trials=50)
        assert a.outcomes == b.outcomes
