"""Cross-validation: analytic models vs. Monte-Carlo ground truth.

The reproduction leans on three closed-form models — the binomial
failure analysis (Table I), the retention power law (Fig. 2), and the
linear refresh-power relation (Fig. 8).  Each function here checks one
of them against independent sampling so a silent modeling bug cannot
survive: if the closed form and the simulation ever disagree, these
fail loudly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from struct import unpack_from

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
        if self.relative_error <= tolerance:
            return True
        if sigmas <= 0:
            return False
        expected = self.analytic * self.trials
        noise = sigmas * math.sqrt(max(expected, 1.0)) / self.trials
        return abs(self.empirical - self.analytic) <= noise


#: Draws fetched per block of the line-failure stream.  Each draw is two
#: 32-bit Mersenne-Twister words, so a block is at most 256 KB.
_DRAW_BLOCK = 1 << 15


def _count_line_failures(
    getrandbits, ber: float, ecc_t: int, line_bits: int, trials: int
) -> int:
    """Failed lines among ``trials`` lines sampled bit by bit from one stream.

    Counts exactly what the per-bit loop counts: each line draws
    ``random()`` once per bit, a draw below ``ber`` flips the bit, and
    the line stops drawing as soon as more than ``ecc_t`` bits flipped.
    The next line starts at the next draw.

    The stream is scanned in blocks instead of drawn one float at a time.
    CPython's ``random()`` builds draw *j* from Mersenne-Twister words
    ``2j`` and ``2j+1`` as ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``,
    and ``getrandbits(64 * n)`` returns the same words in the same order,
    least significant first.  So draw *j* flips its bit exactly when
    that 53-bit integer is below ``ceil(ber * 2**53)``, and only a draw
    whose first word's top byte is at most the limit's top byte can.
    ``bytes.find`` locates those rare bytes; each is then checked with
    both words.  ``ecc_t`` must be ``>= 0``.
    """
    if ber != ber or ber <= 0.0:  # NaN compares false: no draw flips
        return 0
    limit = math.ceil(min(ber, 1.0) * (1 << 53))  # exact: scales by 2**53
    top = (limit - 1) >> 45  # the top byte of w0 is the draw's top 8 bits
    table = bytes(1 if byte <= top else 0 for byte in range(256))  # translate
    hits: list[int] = []  # sorted positions of flipping draws
    first = 0  # index of the first hit at or after the line's start
    fetched = 0  # draws read from the stream so far
    start = 0  # position of the current line's first draw
    failures = 0
    for left in range(trials, 0, -1):
        end = start + line_bits
        while fetched < end:
            del hits[:first]
            first = 0
            block = min(_DRAW_BLOCK, start + left * line_bits - fetched)
            raw = getrandbits(64 * block).to_bytes(8 * block, "little")
            tops = raw[3::8]
            flags = tops.translate(table)
            j = flags.find(1)
            while j >= 0:
                if tops[j] < top:
                    hits.append(fetched + j)
                else:
                    w0, w1 = unpack_from("<II", raw, 8 * j)
                    if ((w0 >> 5) << 26 | w1 >> 6) < limit:
                        hits.append(fetched + j)
                j = flags.find(1, j + 1)
            fetched += block
        first = bisect_left(hits, start, first)
        last = first + ecc_t
        if last < len(hits) and hits[last] < end:
            failures += 1
            start = hits[last] + 1
        else:
            start = end
    return failures


@lru_cache(maxsize=None)
def _line_failure(
    ber: float, ecc_t: int, line_bits: int, trials: int, seed: int
) -> ValidationResult:
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    analytic = line_failure_probability(ber, ecc_t, line_bits)
    failures = _count_line_failures(
        random.Random(seed).getrandbits, ber, ecc_t, line_bits, trials
    )
    return ValidationResult(
        what=f"P(line failure) at BER {ber:g}, ECC-{ecc_t}",
        analytic=analytic,
        empirical=failures / trials,
        trials=trials,
    )


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
    function of the arguments and is memoized per process, keyed on all
    five values however the call spells them.
    """
    return _line_failure(ber, ecc_t, line_bits, trials, seed)


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
