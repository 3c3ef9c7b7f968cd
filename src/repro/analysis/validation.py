"""Cross-validation: analytic models vs. Monte-Carlo ground truth.

The reproduction leans on three closed-form models — the binomial
failure analysis (Table I), the retention power law (Fig. 2), and the
linear refresh-power relation (Fig. 8).  Each function here checks one
of them against independent sampling so a silent modeling bug cannot
survive: if the closed form and the simulation ever disagree, these
fail loudly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.power.calculator import DramPowerCalculator
from repro.reliability.failure import line_failure_probability
from repro.reliability.retention import RetentionModel


@dataclass(frozen=True)
class ValidationResult:
    """One analytic-vs-empirical comparison."""

    what: str
    analytic: float
    empirical: float
    trials: int

    @property
    def relative_error(self) -> float:
        if self.analytic == 0:
            return abs(self.empirical)
        return abs(self.empirical - self.analytic) / self.analytic

    def agrees(self, tolerance: float, sigmas: float = 4.0) -> bool:
        """Within tolerance, or within ``sigmas``-sigma counting noise.

        ``sigmas=0`` disables the noise fallback, so a deliberately
        impossible tolerance is guaranteed to disagree — the CLI's
        ``--sigma 0`` uses this to audit its own failure path.
        """
        import math

        if self.relative_error <= tolerance:
            return True
        if sigmas <= 0:
            return False
        expected = self.analytic * self.trials
        noise = sigmas * math.sqrt(max(expected, 1.0)) / self.trials
        return abs(self.empirical - self.analytic) <= noise


@lru_cache(maxsize=None)
def validate_line_failure(
    ber: float = 0.004,
    ecc_t: int = 6,
    line_bits: int = 576,
    trials: int = 40_000,
    seed: int = 0,
) -> ValidationResult:
    """Table I's binomial tail vs. per-bit sampling.

    The default BER is exaggerated so the tail event (> 6 errors) is
    observable within the trial budget; the binomial math is identical
    at the paper's 10^-4.5.  The draw is seeded, so the result is a pure
    function of the arguments and is memoized per process.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    draw = random.Random(seed).random
    bits = range(line_bits)
    analytic = line_failure_probability(ber, ecc_t, line_bits)
    failures = 0
    for _ in range(trials):
        # Sample the error count directly (sum of Bernoulli draws).
        count = 0
        for _ in bits:
            if draw() < ber:
                count += 1
                if count > ecc_t:
                    break
        if count > ecc_t:
            failures += 1
    return ValidationResult(
        what=f"P(line failure) at BER {ber:g}, ECC-{ecc_t}",
        analytic=analytic,
        empirical=failures / trials,
        trials=trials,
    )


def validate_retention_inverse(
    samples: int = 50_000,
    test_time_s: float = 5.0,
    seed: int = 1,
) -> ValidationResult:
    """Fig. 2's CDF vs. inverse-transform sampling of cell retention."""
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    model = RetentionModel()
    rng = random.Random(seed)
    drawn = model.sample_retention_times(samples, rng)
    empirical = sum(1 for t in drawn if t < test_time_s) / samples
    return ValidationResult(
        what=f"P(retention < {test_time_s:g} s)",
        analytic=model.bit_failure_probability(test_time_s),
        empirical=empirical,
        trials=samples,
    )


def validate_refresh_linearity(
    periods_s: tuple[float, ...] = (0.064, 0.128, 0.256, 0.512, 1.024),
) -> ValidationResult:
    """Fig. 8's premise: refresh power scales exactly with refresh rate.

    Checks that P_refresh(k * T) * k == P_refresh(T) across the sweep;
    the 'empirical' value is the worst-case deviation factor.
    """
    if len(periods_s) < 2:
        raise ConfigurationError("need at least two periods")
    calc = DramPowerCalculator()
    base = calc.refresh_power_idle(periods_s[0]) * periods_s[0]
    worst = 1.0
    for period in periods_s[1:]:
        product = calc.refresh_power_idle(period) * period
        worst = max(worst, product / base, base / product)
    return ValidationResult(
        what="refresh power x period invariance",
        analytic=1.0,
        empirical=worst,
        trials=len(periods_s),
    )


def run_all_validations(
    trials: int = 40_000, samples: int = 50_000
) -> list[ValidationResult]:
    """The full cross-check battery (validation bench + ``repro validate``)."""
    return [
        validate_line_failure(trials=trials),
        validate_retention_inverse(samples=samples),
        validate_refresh_linearity(),
    ]
