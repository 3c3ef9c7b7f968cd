"""Stored-bit fault processes: retention failures and soft errors.

Two physical processes corrupt stored lines:

* **Retention failures** — a cell whose retention time is shorter than
  the refresh period loses its value once per refresh window.  The
  per-bit flip probability over an idle interval is the BER at the
  refresh period (each weak cell fails essentially immediately at the
  longer period; the population is what matters, per the paper's
  uniform-independent-failure assumption).
* **Soft errors** — alpha-particle strikes at a small constant rate per
  bit per second, independent of refresh (the reason MECC's weak mode is
  SECDED rather than no-ECC, paper Sec. III-A).

Both are sampled per line with a Poisson approximation of the binomial
(n = 576 bits, tiny p), which keeps whole-memory simulation cheap.

Retention decay of a stored line goes through
:meth:`FaultProcess.retention_decay`: the line's weak-cell population
(:class:`LineFaultState`) is sampled from the line's own RNG, and that
RNG is seeded only when the population must grow (the first slow window,
or a slower refresh period than any before).  Settling the same line
again at an unchanged period draws nothing and builds no RNG.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.reliability.retention import RetentionModel

#: Soft-error rate per bit per second.  Chosen so a 1 GB memory sees a
#: few hundred FIT-scale events per month — large enough to exercise the
#: SECDED path in accelerated tests, small vs. retention failures.
DEFAULT_SOFT_ERROR_RATE_PER_BIT_S = 1e-13


@dataclass(frozen=True)
class SoftErrorModel:
    """Constant-rate single-bit upsets."""

    rate_per_bit_s: float = DEFAULT_SOFT_ERROR_RATE_PER_BIT_S

    def __post_init__(self) -> None:
        if self.rate_per_bit_s < 0:
            raise ConfigurationError("soft-error rate must be non-negative")

    def flip_probability(self, duration_s: float) -> float:
        """Per-bit flip probability over a time interval."""
        if duration_s < 0:
            raise ConfigurationError("duration must be non-negative")
        return -math.expm1(-self.rate_per_bit_s * duration_s)


@dataclass
class FaultProcess:
    """Sample bit flips for stored lines over simulated time.

    Attributes:
        retention: the retention model (paper Fig. 2).
        soft_errors: the soft-error model.
        line_bits: stored bits per line (576 for the (72,64) layout).
        seed: RNG seed.
    """

    retention: RetentionModel = field(default_factory=RetentionModel)
    soft_errors: SoftErrorModel = field(default_factory=SoftErrorModel)
    line_bits: int = 576
    seed: int = 0

    def __post_init__(self) -> None:
        if self.line_bits < 1:
            raise ConfigurationError("line_bits must be >= 1")
        self._rng = random.Random(self.seed)

    def retention_flip_probability(self, refresh_period_s: float) -> float:
        """Per-bit corruption probability while refreshed at a period.

        A cell weaker than the period fails; the failure materializes the
        first time the slow refresh window passes, so for any idle
        interval of at least one period the probability is the BER at
        that period (the paper's model).
        """
        return self.retention.ber_at_refresh_period(refresh_period_s)

    def line_state(self) -> "LineFaultState":
        """Fresh per-line weak-cell state (see :class:`LineFaultState`)."""
        return LineFaultState(self.line_bits)

    def rng_for_line(self, line_index: int) -> random.Random:
        """Deterministic per-line RNG (independent of access order)."""
        return random.Random((self.seed << 32) ^ line_index)

    def retention_decay(
        self, state: "LineFaultState", line_index: int, f: float
    ) -> list[tuple[int, int]]:
        """(position, decay bit) of every cell of a line failing at ``f``.

        Grows the line's weak population up to ``f`` first, from the
        line's RNG, which is seeded only when ``f`` exceeds what the
        population has already sampled: a fresh RNG would draw nothing
        otherwise.
        """
        if f > state.sampled_f:
            state.extend(f, self.rng_for_line(line_index))
        return state.decayed_cells(f)

    def sample_line_flips(
        self, refresh_period_s: float, duration_s: float
    ) -> list[int]:
        """Bit positions (within one stored line) flipped over an interval.

        One-shot i.i.d. sample: correct for a *single* interval (as used
        by the analytical studies), but not for repeated settling of the
        same stored line — persistent storage must use the weak-cell
        model (:meth:`line_state`), where the same cells decay each
        window.  Retention flips apply once the interval covers a refresh
        window; soft-error flips accumulate with time.
        """
        if duration_s < 0:
            raise ConfigurationError("duration must be non-negative")
        p = self.soft_errors.flip_probability(duration_s)
        if duration_s >= refresh_period_s:
            p = min(1.0, p + self.retention_flip_probability(refresh_period_s))
        return self._sample_positions(p)

    def sample_soft_error_flips(self, duration_s: float) -> list[int]:
        """Soft-error-only flips (active mode at the 64 ms safe period)."""
        return self._sample_positions(self.soft_errors.flip_probability(duration_s))

    def sample_soft_error_flips_batch(self, durations_s) -> list[list[int]]:
        """Per-line soft-error flips for many lines in one call.

        Draws from the shared RNG in list order, so the result is
        bit-identical to ``[sample_soft_error_flips(d) for d in
        durations_s]`` — batch settling must not change a seeded run.
        """
        flip_probability = self.soft_errors.flip_probability
        sample = self._sample_positions
        return [sample(flip_probability(d)) for d in durations_s]

    def _sample_positions(self, p: float) -> list[int]:
        if p <= 0.0:
            return []
        count = _sample_binomial(self._rng, self.line_bits, p)
        if count == 0:
            return []
        return self._rng.sample(range(self.line_bits), min(count, self.line_bits))

    def expected_flips_per_line(
        self, refresh_period_s: float, duration_s: float
    ) -> float:
        """Mean flips per stored line over an interval (for test sizing)."""
        p = self.soft_errors.flip_probability(duration_s)
        if duration_s >= refresh_period_s:
            p += self.retention_flip_probability(refresh_period_s)
        return p * self.line_bits


class LineFaultState:
    """Fixed weak-cell population of one stored line.

    Physically, a cell whose retention is below the refresh period loses
    its charge every slow window — the *same* cells, every time, decaying
    to the same per-cell discharge value.  Errors therefore do not
    accumulate without bound on unread lines: they are capped by the
    line's weak-cell count at the period in force.

    Each weak cell carries a uniform draw ``u``; the cell fails at period
    P iff ``u < F(P)`` (the inverse-CDF construction), so the weak set is
    consistent across period changes: slower periods strictly grow it.
    """

    __slots__ = ("_weak", "_sampled_f", "_line_bits")

    def __init__(self, line_bits: int):
        self._weak: dict[int, tuple[float, int]] = {}  # pos -> (u, decay bit)
        self._sampled_f = 0.0
        self._line_bits = line_bits

    def extend(self, f: float, rng: random.Random) -> None:
        """Ensure the weak population is sampled up to failure prob ``f``."""
        if f <= self._sampled_f:
            return
        increment = f - self._sampled_f
        count = _sample_binomial(rng, self._line_bits, increment)
        for _ in range(count):
            position = rng.randrange(self._line_bits)
            if position not in self._weak:
                u = self._sampled_f + rng.random() * increment
                self._weak[position] = (u, rng.getrandbits(1))
        self._sampled_f = f

    @property
    def sampled_f(self) -> float:
        """Failure probability the weak population is sampled up to."""
        return self._sampled_f

    def decayed_cells(self, f: float) -> list[tuple[int, int]]:
        """(position, decay bit) for every cell failing at probability f."""
        return [
            (position, decay)
            for position, (u, decay) in self._weak.items()
            if u < f
        ]

    @property
    def weak_count(self) -> int:
        return len(self._weak)


def _sample_binomial(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p) via the Knuth Poisson sampler (small n*p regime)."""
    if p <= 0:
        return 0
    if p >= 1:
        return n
    mean = n * p
    if mean < 10.0:
        limit = math.exp(-mean)
        if limit >= 1.0:
            return 0
        count = -1
        product = 1.0
        while product > limit:
            count += 1
            product *= rng.random()
        return max(0, min(count, n))
    return sum(1 for _ in range(n) if rng.random() < p)
