"""Small statistics helpers shared by the analysis harness."""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import ConfigurationError


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's 'ALL' bar in Fig. 7)."""
    values = list(values)
    if not values:
        raise ConfigurationError("geometric mean of zero values")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(values: Mapping[str, float], baseline_key: str) -> dict[str, float]:
    """Divide every value by the baseline entry's value."""
    if baseline_key not in values:
        raise ConfigurationError(f"baseline key {baseline_key!r} missing")
    base = values[baseline_key]
    if base == 0:
        raise ConfigurationError("baseline value is zero")
    return {k: v / base for k, v in values.items()}


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ConfigurationError("mean of zero values")
    return sum(values) / len(values)
