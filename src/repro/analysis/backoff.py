"""Decorrelated-jitter retry backoff for the experiment runner's retries.

Deterministic exponential doubling synchronizes retry storms: when many
jobs fail together (a dead worker pool, say), they
all come back at exactly ``base * 2**k`` and hammer the recovering
resource in lockstep.  The decorrelated-jitter scheme breaks that
alignment — each delay is drawn uniformly from ``[base, 3 * previous]``
and capped — so a thundering herd spreads itself out while the expected
delay still grows geometrically.

The RNG is injectable so tests stay deterministic: pass
``rng=random.Random(seed)`` for reproducible delays.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError


class DecorrelatedJitter:
    """Stateful delay sequence: ``delay = min(cap, U(base, 3 * last))``.

    Args:
        base_s: minimum (and first-draw lower bound) delay; 0 disables
            backoff entirely (every delay is 0.0, handy in tests).
        cap_s: upper bound on any single delay.
        rng: random source exposing ``uniform``; defaults to a private
            unseeded :class:`random.Random` so concurrent sweeps do not
            share (and thus correlate through) the global RNG state.
    """

    def __init__(
        self,
        base_s: float = 0.25,
        cap_s: float = 30.0,
        rng: random.Random | None = None,
    ):
        if base_s < 0:
            raise ConfigurationError("base_s must be >= 0")
        if cap_s < base_s:
            raise ConfigurationError("cap_s must be >= base_s")
        self.base_s = base_s
        self.cap_s = cap_s
        self._rng = rng if rng is not None else random.Random()
        self._last = base_s

    def reset(self) -> None:
        """Start the sequence over (call after a success)."""
        self._last = self.base_s

    def next_delay(self) -> float:
        """Draw the next delay and advance the sequence."""
        if self.base_s == 0:
            return 0.0
        self._last = min(self.cap_s, self._rng.uniform(self.base_s, self._last * 3))
        return self._last
