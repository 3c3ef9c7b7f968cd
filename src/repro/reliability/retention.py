"""DRAM retention-time model (paper Fig. 2).

The paper derives its bit-failure-probability-vs-retention-time curve from
Kim & Lee's 60 nm measurements and uses exactly two operating points:

* at the JEDEC 64 ms refresh period the bit error rate is ~1e-9 (weak
  bits at this level are repaired with spare rows before shipping);
* at a 1 second refresh period the BER is 10^-4.5 (the paper's default).

Between (and beyond) those anchors, Fig. 2's cumulative curve is close to
a straight line on log-log axes, i.e. a power law
``P(t) = P1 * (t / t1)**slope``.  We fit the slope through the two anchors
and clamp to [0, 1].  This preserves everything the paper's experiments
need and gives a smooth curve for sensitivity sweeps (refresh period vs.
required ECC strength).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: JEDEC-standard refresh period in seconds.
JEDEC_REFRESH_PERIOD_S = 0.064
#: Paper's slow refresh period in idle mode, in seconds.
SLOW_REFRESH_PERIOD_S = 1.0
#: BER at the JEDEC period (after factory repair of weak bits).
BER_AT_64MS = 1e-9
#: The paper's default raw BER at a 1 second refresh period.
BER_AT_1S = 10.0 ** -4.5


@dataclass(frozen=True)
class RetentionModel:
    """Power-law retention-failure model anchored on the paper's two points.

    Attributes:
        anchor_time_s: retention time of the second anchor (default 1 s).
        anchor_ber: bit failure probability at ``anchor_time_s``.
        slope: log-log slope; default fits the (64 ms, 1e-9) anchor.
    """

    anchor_time_s: float = SLOW_REFRESH_PERIOD_S
    anchor_ber: float = BER_AT_1S
    slope: float = (
        (math.log10(BER_AT_1S) - math.log10(BER_AT_64MS))
        / (math.log10(SLOW_REFRESH_PERIOD_S) - math.log10(JEDEC_REFRESH_PERIOD_S))
    )

    def __post_init__(self) -> None:
        if self.anchor_time_s <= 0:
            raise ConfigurationError("anchor_time_s must be positive")
        if not 0 < self.anchor_ber <= 1:
            raise ConfigurationError("anchor_ber must be in (0, 1]")
        if self.slope <= 0:
            raise ConfigurationError("slope must be positive")

    def bit_failure_probability(self, retention_time_s: float) -> float:
        """P(cell retention < retention_time_s), clamped to [0, 1]."""
        if retention_time_s <= 0:
            return 0.0
        log_p = math.log10(self.anchor_ber) + self.slope * (
            math.log10(retention_time_s) - math.log10(self.anchor_time_s)
        )
        return min(1.0, 10.0 ** log_p)

    def ber_at_refresh_period(self, period_s: float) -> float:
        """Raw bit error rate when refreshing every ``period_s`` seconds.

        A cell fails iff its retention time is below the refresh period, so
        this equals :meth:`bit_failure_probability` at the period.
        """
        return self.bit_failure_probability(period_s)

    def refresh_period_for_ber(self, ber: float) -> float:
        """Longest refresh period (seconds) whose raw BER stays <= ber."""
        if not 0 < ber <= 1:
            raise ConfigurationError("ber must be in (0, 1]")
        log_t = math.log10(self.anchor_time_s) + (
            math.log10(ber) - math.log10(self.anchor_ber)
        ) / self.slope
        return 10.0 ** log_t

    def sample_retention_times(self, n: int, rng) -> list[float]:
        """Sample per-cell retention times (seconds) by inverting the CDF.

        Useful for Monte-Carlo studies; ``rng`` is a ``random.Random``.
        The inverse of ``P(t)`` is ``t(P) = t1 * (P / P1)**(1/slope)``.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        inv_slope = 1.0 / self.slope
        return [
            self.anchor_time_s * (rng.random() / self.anchor_ber) ** inv_slope
            for _ in range(n)
        ]

    def at_temperature_offset(self, delta_celsius: float) -> "RetentionModel":
        """Model shifted by a temperature change (extension).

        DRAM retention roughly halves for every 10 °C of temperature
        rise (the basis of JEDEC's extended-temperature 2x refresh-rate
        requirement).  A +ΔT shift scales every cell's retention time by
        ``2^(-ΔT/10)``, which in this parametric model is equivalent to
        scaling the anchor time the same way.

        The paper's numbers correspond to the nominal operating point
        (ΔT = 0); this knob supports hot-device sensitivity studies.
        """
        factor = 2.0 ** (-delta_celsius / 10.0)
        return RetentionModel(
            anchor_time_s=self.anchor_time_s * factor,
            anchor_ber=self.anchor_ber,
            slope=self.slope,
        )

    def curve(self, t_min_s: float = 0.01, t_max_s: float = 100.0, points: int = 41):
        """(retention_time, failure_probability) samples for plotting Fig. 2."""
        if t_min_s <= 0 or t_max_s <= t_min_s or points < 2:
            raise ConfigurationError("invalid curve range")
        log_min = math.log10(t_min_s)
        log_max = math.log10(t_max_s)
        step = (log_max - log_min) / (points - 1)
        times = [10.0 ** (log_min + i * step) for i in range(points)]
        return [(t, self.bit_failure_probability(t)) for t in times]


# -- Monte-Carlo validation on the real codec --------------------------------


@dataclass(frozen=True)
class LineFailureEstimate:
    """Empirical line-failure tally from :func:`monte_carlo_line_failure`.

    Attributes:
        trials: lines simulated.
        detected: decodes that raised (data loss, but flagged).
        miscorrected: decodes that "succeeded" with wrong data.
        corrected_bits: total bits corrected across surviving lines.
    """

    trials: int
    detected: int
    miscorrected: int
    corrected_bits: int

    @property
    def failures(self) -> int:
        return self.detected + self.miscorrected

    @property
    def failure_probability(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


def _sample_sparse_flips(rng: random.Random, n_bits: int, p: float) -> list[int]:
    """Positions of independent Bernoulli(p) flips via geometric skipping.

    O(expected flips) instead of O(n_bits), which is what makes
    million-line sweeps at BER ~1e-4 affordable.
    """
    if p <= 0.0:
        return []
    if p >= 1.0:
        return list(range(n_bits))
    flips = []
    log_q = math.log1p(-p)
    position = -1
    while True:
        skip = int(math.log(1.0 - rng.random()) / log_q)
        position += 1 + skip
        if position >= n_bits:
            return flips
        flips.append(position)


def monte_carlo_line_failure(
    model: RetentionModel,
    period_s: float,
    ecc_t: int,
    trials: int,
    seed: int = 0,
    data_bits: int = 512,
    extended: bool = False,
) -> LineFailureEstimate:
    """Empirically measure P(line failure) with the real batched BCH codec.

    Each trial encodes a random ``data_bits``-bit line, flips every stored
    bit independently with the model's BER at ``period_s``, and decodes.
    The whole campaign runs through ``encode_batch``/``decode_batch`` —
    this is the cross-check for the closed-form binomial tail in
    :func:`repro.reliability.failure.line_failure_probability` (paper
    Table I), now feasible at Monte-Carlo scale thanks to the matrix
    fast path.
    """
    from repro.ecc.bch import BchCode, DecodeResult

    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    if period_s <= 0:
        raise ConfigurationError("period_s must be positive")
    code = BchCode(t=ecc_t, data_bits=data_bits, extended=extended)
    ber = model.ber_at_refresh_period(period_s)
    rng = random.Random(seed)
    # Draw every line up front, then flip in encode order: the RNG draw
    # sequence is independent of the chunk size below, so chunked and
    # monolithic campaigns with one seed are bit-identical.
    datas = [rng.getrandbits(data_bits) for _ in range(trials)]
    detected = 0
    miscorrected = 0
    corrected_bits = 0
    chunk = 8192  # bounds the live codewords of one chunk
    for start in range(0, trials, chunk):
        chunk_datas = datas[start:start + chunk]
        received = []
        for word in code.encode_batch(chunk_datas):
            for position in _sample_sparse_flips(rng, code.codeword_bits, ber):
                word ^= 1 << position
            received.append(word)
        for data, result in zip(chunk_datas, code.decode_batch(received)):
            if not isinstance(result, DecodeResult):
                detected += 1
            elif result.data != data:
                miscorrected += 1
            else:
                corrected_bits += result.errors_corrected
    return LineFailureEstimate(
        trials=trials,
        detected=detected,
        miscorrected=miscorrected,
        corrected_bits=corrected_bits,
    )
