"""Tests for statistics helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.stats import arithmetic_mean, geometric_mean, normalize


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_below_arithmetic(self):
        values = [0.5, 1.0, 2.0, 4.0]
        assert geometric_mean(values) <= arithmetic_mean(values)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])


class TestNormalize:
    def test_divides_by_baseline(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_missing_baseline(self):
        with pytest.raises(ConfigurationError):
            normalize({"a": 1.0}, "z")

    def test_zero_baseline(self):
        with pytest.raises(ConfigurationError):
            normalize({"a": 0.0}, "a")


class TestArithmeticMean:
    def test_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            arithmetic_mean([])
