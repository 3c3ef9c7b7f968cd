"""Tests for the analytic-vs-Monte-Carlo validation battery."""

import pytest

from repro.analysis.validation import (
    ValidationResult,
    run_all_validations,
    validate_line_failure,
    validate_refresh_linearity,
    validate_retention_inverse,
)
from repro.errors import ConfigurationError


class TestValidationResult:
    def test_relative_error(self):
        result = ValidationResult("x", analytic=0.1, empirical=0.11, trials=100)
        assert result.relative_error == pytest.approx(0.1)

    def test_agrees_within_tolerance(self):
        result = ValidationResult("x", analytic=0.1, empirical=0.105, trials=10_000)
        assert result.agrees(0.1)

    def test_agrees_via_counting_noise(self):
        """A rare event measured with few expected counts passes on the
        4-sigma band even when the relative error is large."""
        result = ValidationResult("x", analytic=1e-4, empirical=2e-4, trials=10_000)
        assert result.relative_error == pytest.approx(1.0)
        assert result.agrees(0.1)

    def test_disagreement_detected(self):
        result = ValidationResult("x", analytic=0.5, empirical=0.9, trials=10_000)
        assert not result.agrees(0.1)


class TestBattery:
    def test_line_failure_validates(self):
        result = validate_line_failure(trials=15_000, seed=3)
        assert result.agrees(0.25)
        assert result.analytic > 0

    def test_retention_inverse_validates(self):
        result = validate_retention_inverse(samples=30_000)
        assert result.agrees(0.15)

    def test_refresh_linearity_is_exact(self):
        result = validate_refresh_linearity()
        assert result.empirical == pytest.approx(1.0, rel=1e-9)

    def test_run_all(self):
        results = run_all_validations()
        assert len(results) == 3
        for result in results:
            assert result.agrees(0.25), result.what

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            validate_line_failure(trials=0)
        with pytest.raises(ConfigurationError):
            validate_retention_inverse(samples=0)
        with pytest.raises(ConfigurationError):
            validate_refresh_linearity(periods_s=(0.064,))


class TestLineFailureMemo:
    def test_second_identical_call_returns_the_same_object(self, monkeypatch):
        from types import SimpleNamespace

        from repro.analysis import validation

        validate_line_failure.cache_clear()
        first = validate_line_failure(trials=500, seed=11)

        def no_draws(seed):
            raise AssertionError("a memoized call must not sample again")

        monkeypatch.setattr(validation, "random", SimpleNamespace(Random=no_draws))
        assert validate_line_failure(trials=500, seed=11) is first
        with pytest.raises(AssertionError):
            validate_line_failure(trials=501, seed=11)  # new arguments do draw
