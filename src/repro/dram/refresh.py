"""Refresh machinery: modes, self-refresh divider, upgrade-time helpers.

Covers the paper's Sec. II-A refresh modes and the Sec. III-B device hook:
a small internal counter that divides the refresh pulse rate so the
self-refresh period can be stretched from 64 ms to 1 s (a 4-bit counter
gives the 16x division).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.types import RefreshMode

#: JEDEC base refresh period, seconds.
BASE_REFRESH_PERIOD_S = 0.064
#: Refresh commands per refresh period (JEDEC 8K refresh cycles).
REFRESH_COMMANDS_PER_PERIOD = 8192


@dataclass
class RefreshDivider:
    """The paper's in-device refresh frequency divider (Sec. III-B).

    An internal counter increments on every incoming refresh pulse and
    forwards a pulse to the array only on overflow, so an n-bit counter
    divides the refresh rate by 2^n.  A 4-bit counter turns 64 ms into
    1.024 s (the paper rounds to "1 second" / "16x").
    """

    counter_bits: int = 4
    _count: int = field(default=0, repr=False)
    pulses_in: int = field(default=0, repr=False)
    pulses_out: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.counter_bits <= 16:
            raise ConfigurationError("counter_bits must be in [0, 16]")

    @property
    def division_factor(self) -> int:
        return 1 << self.counter_bits

    @property
    def effective_period_s(self) -> float:
        return BASE_REFRESH_PERIOD_S * self.division_factor

    def pulse(self) -> bool:
        """Feed one refresh pulse; returns True if forwarded to the array."""
        self.pulses_in += 1
        self._count = (self._count + 1) % self.division_factor
        if self._count == 0:
            self.pulses_out += 1
            return True
        return False

    def reset(self) -> None:
        self._count = 0


@dataclass
class SelfRefreshController:
    """Mode bookkeeping for the device's refresh state (Sec. II-A).

    Tracks which refresh mode the device is in, which fraction of the
    array is retained, and the effective refresh period — the inputs the
    idle-power model needs.  PASR retains only ``pasr_fraction`` of the
    array; DPD retains nothing.
    """

    mode: RefreshMode = RefreshMode.AUTO_REFRESH
    divider: RefreshDivider = field(default_factory=RefreshDivider)
    divider_enabled: bool = False
    pasr_fraction: float = 0.5
    #: Fault-injection latch: when True, mode-transition requests are
    #: ignored (a stuck refresh-mode fault, see repro.chaos).
    stuck: bool = field(default=False, repr=False, compare=False)
    #: Optional :class:`repro.obs.trace.EventTracer`; None = no tracing.
    tracer: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.pasr_fraction <= 1.0:
            raise ConfigurationError("pasr_fraction must be in (0, 1]")

    def inject_stuck(self) -> None:
        """Fault-inject: freeze the refresh machinery in its current mode."""
        self.stuck = True
        if self.tracer is not None:
            self.tracer.emit("refresh", "fault-stuck", mode=self.mode.value)

    def enter(self, mode: RefreshMode, use_divider: bool = False) -> None:
        """Transition to a refresh mode; the divider only applies in SR."""
        if use_divider and mode is not RefreshMode.SELF_REFRESH:
            raise ConfigurationError("the refresh divider only applies in self refresh")
        if self.stuck:
            if self.tracer is not None:
                self.tracer.emit(
                    "refresh",
                    "stuck-ignored",
                    requested=mode.value,
                    mode=self.mode.value,
                )
            return
        previous = self.mode
        self.mode = mode
        self.divider_enabled = use_divider
        if use_divider:
            self.divider.reset()
        if self.tracer is not None:
            self.tracer.emit(
                "refresh",
                "mode",
                mode=mode.value,
                previous=previous.value,
                divided=use_divider,
                period_s=self.refresh_period_s,
            )

    @property
    def refresh_period_s(self) -> float:
        """Effective refresh period of the retained array, or inf if none."""
        if self.mode is RefreshMode.DEEP_POWER_DOWN:
            return float("inf")
        if self.mode is RefreshMode.SELF_REFRESH and self.divider_enabled:
            return self.divider.effective_period_s
        return BASE_REFRESH_PERIOD_S

    @property
    def retained_fraction(self) -> float:
        """Fraction of memory contents preserved in this mode."""
        if self.mode is RefreshMode.DEEP_POWER_DOWN:
            return 0.0
        if self.mode is RefreshMode.PARTIAL_ARRAY_SELF_REFRESH:
            return self.pasr_fraction
        return 1.0

    @property
    def refresh_rate_relative(self) -> float:
        """Refresh operations relative to baseline AR at 64 ms.

        Accounts for both the period stretch and (for PASR) the reduced
        refreshed fraction.
        """
        if self.mode is RefreshMode.DEEP_POWER_DOWN:
            return 0.0
        rate = BASE_REFRESH_PERIOD_S / self.refresh_period_s
        return rate * self.retained_fraction
