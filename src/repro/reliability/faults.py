"""Monte-Carlo fault injection on the real MECC line codec.

Validates, end to end, the claims the analytical model makes:

* lines stored with ECC-6 survive up to 6 random bit flips anywhere in the
  576 stored bits (data, mode replicas, parity);
* the 4-way-replicated ECC-mode bit is resolved correctly even when
  replicas are hit (paper Sec. III-D: on replica mismatch, try both
  decoders and keep the self-consistent one);
* error patterns beyond the correction strength are overwhelmingly
  *detected* rather than silently corrupting data.

Each trial encodes a random line, flips a sampled number of bits (either a
fixed count or Binomial(576, BER)), decodes, and classifies the outcome.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.ecc.layout import LineCodec
from repro.errors import ConfigurationError, DecodingError, ModeBitError
from repro.types import EccMode


class InjectionOutcome(enum.Enum):
    """Classification of one fault-injection trial."""

    CLEAN = "clean"  # no errors injected, decoded fine
    CORRECTED = "corrected"  # data and mode both recovered
    DETECTED = "detected"  # decoder raised (no silent corruption)
    SILENT_DATA_CORRUPTION = "sdc"  # decode "succeeded" with wrong data
    MODE_CONFUSION = "mode_confusion"  # decoded under the wrong ECC mode


@dataclass
class CampaignStats:
    """Aggregated outcome counts of a fault-injection campaign."""

    trials: int = 0
    outcomes: dict = field(default_factory=dict)
    corrected_bits_total: int = 0
    trial_decodes: int = 0

    def record(self, outcome: InjectionOutcome) -> None:
        self.trials += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def count(self, outcome: InjectionOutcome) -> int:
        return self.outcomes.get(outcome, 0)

    @property
    def silent_corruption_rate(self) -> float:
        if self.trials == 0:
            return 0.0
        bad = self.count(InjectionOutcome.SILENT_DATA_CORRUPTION) + self.count(
            InjectionOutcome.MODE_CONFUSION
        )
        return bad / self.trials

    def as_dict(self) -> dict:
        """Plain-dict outcome breakdown (metrics export / chaos reports).

        Every outcome class appears, zero-filled, so downstream tables
        have a stable column set regardless of what a campaign hit.
        """
        return {
            "trials": self.trials,
            "outcomes": {o.value: self.count(o) for o in InjectionOutcome},
            "corrected_bits_total": self.corrected_bits_total,
            "trial_decodes": self.trial_decodes,
            "silent_corruption_rate": self.silent_corruption_rate,
        }


class FaultInjectionCampaign:
    """Run repeated encode→flip→decode trials against a :class:`LineCodec`.

    Args:
        codec: the line codec under test (default: the paper's 64B/ECC-6).
        seed: RNG seed for reproducibility.
    """

    def __init__(self, codec: LineCodec | None = None, seed: int = 0):
        self.codec = codec or LineCodec()
        self.rng = random.Random(seed)

    def _eligible_positions(self, mode: EccMode) -> list[int]:
        """Stored-bit positions an error can meaningfully land on.

        In weak mode the field bits above the SEC-DED checks are unused
        (paper Fig. 6(ii)), so flips there are invisible by construction;
        we exclude them so injected counts mean what they say.
        """
        codec = self.codec
        if mode is EccMode.STRONG:
            return list(range(codec.stored_bits))
        used_field_bits = codec.layout.mode_bits + codec.weak_code.check_bits
        positions = list(range(used_field_bits))
        positions.extend(range(codec.layout.field_bits, codec.stored_bits))
        return positions

    def run_fixed_errors(
        self, mode: EccMode, n_errors: int, trials: int
    ) -> CampaignStats:
        """Inject exactly ``n_errors`` random flips per trial.

        Raises:
            ConfigurationError: if ``trials < 1`` or ``n_errors`` lies
                outside ``[0, eligible positions]``.
        """
        _check_trials(trials)
        eligible = self._eligible_positions(mode)
        if not 0 <= n_errors <= len(eligible):
            raise ConfigurationError(
                f"errors must be in [0, {len(eligible)}], got {n_errors}"
            )
        stats = CampaignStats()
        datas = [self.rng.getrandbits(self.codec.data_bits) for _ in range(trials)]
        for data, stored in zip(datas, self.codec.encode_batch(datas, mode)):
            for pos in self.rng.sample(eligible, n_errors):
                stored ^= 1 << pos
            self._decode_and_classify(stats, stored, data, mode, n_errors)
        return stats

    def run_ber(self, mode: EccMode, ber: float, trials: int) -> CampaignStats:
        """Inject Binomial(eligible_bits, ber) flips per trial.

        Raises:
            ConfigurationError: if ``trials < 1`` or ``ber`` is outside
                ``[0, 1]`` (NaN included).
        """
        _check_trials(trials)
        if not 0.0 <= ber <= 1.0:
            raise ConfigurationError("ber must be in [0, 1]")
        stats = CampaignStats()
        eligible = self._eligible_positions(mode)
        datas = [self.rng.getrandbits(self.codec.data_bits) for _ in range(trials)]
        for data, stored in zip(datas, self.codec.encode_batch(datas, mode)):
            flips = [p for p in eligible if self.rng.random() < ber]
            for pos in flips:
                stored ^= 1 << pos
            self._decode_and_classify(stats, stored, data, mode, len(flips))
        return stats

    def _decode_and_classify(
        self,
        stats: CampaignStats,
        stored: int,
        data: int,
        mode: EccMode,
        n_errors: int,
    ) -> None:
        try:
            result = self.codec.decode(stored)
        except (DecodingError, ModeBitError):
            stats.record(InjectionOutcome.DETECTED)
            return
        if result.used_trial_decode:
            stats.trial_decodes += 1
        if result.mode is not mode:
            stats.record(InjectionOutcome.MODE_CONFUSION)
            return
        if result.data != data:
            stats.record(InjectionOutcome.SILENT_DATA_CORRUPTION)
            return
        stats.corrected_bits_total += result.errors_corrected
        stats.record(
            InjectionOutcome.CLEAN if n_errors == 0 else InjectionOutcome.CORRECTED
        )


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
