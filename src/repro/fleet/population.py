"""Persona-driven device populations, sampled deterministically at scale.

A fleet is millions of devices, each a jittered instance of one of the
:mod:`repro.workloads.personas` profiles.  Sampling is *counter-based*:
device ``i``'s attributes are a pure function of ``(seed, i)`` through a
splitmix64 hash, never of any shared RNG stream, so

* the same seed always yields the same fleet,
* shard boundaries and chunk sizes cannot change any device, and
* shards can be sampled independently (and in parallel) by index range.

This is the property the streamed-aggregation layer leans on: a 1M
fleet simulated in ten 100k shards is *the same fleet* as one simulated
in a single pass.

The hash runs lane-parallel: :meth:`PopulationModel.columns` packs
every counter of a :data:`SAMPLE_CHUNK`-device chunk into one big
integer, 128 bits apart, and applies each splitmix64 step to all lanes
at once, one big-int add, shift, XOR or multiply per step, masking
each lane back to its low 64 bits so no carry crosses into the next.
Each lane reads back exactly the value a scalar splitmix64 gives its
counter, and ``device()``, ``devices()`` and the fleet pass are all
views of those columns.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.workloads.personas import ALL_PERSONAS_BY_NAME, Persona

#: Default population mix (shares of the installed base per persona).
DEFAULT_MIX: dict[str, float] = {
    "light": 0.45,
    "moderate": 0.35,
    "heavy": 0.20,
}

#: Per-device jitter applied around the persona's idle fraction.
IDLE_JITTER = 0.015

#: Sessions-per-day jitter band (multiplicative, +/- 25%).
SESSION_JITTER = 0.25

#: idle_fraction is clamped to this open interval after jitter (a phone
#: that is never idle, or always idle, is outside the model).
IDLE_BOUNDS = (0.50, 0.995)

#: Devices hashed per lane pass.  Bounds the lane integers (three
#: 128-bit lanes per device, 192 KB per chunk) and the column buffers.
SAMPLE_CHUNK = 4096

_MASK64 = (1 << 64) - 1
_TWO64 = float(1 << 64)


def _splitmix64(x: int) -> int:
    """One splitmix64 round (the fleet seed's hash; counters hash in lanes)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_lanes(x: int, ones: int, mask: int) -> int:
    """:func:`_splitmix64` of every 128-bit lane of ``x`` at once.

    Each lane holds a value below ``2**64``; ``ones`` has a 1 and
    ``mask`` has 64 set bits at the bottom of every lane.  A lane's
    64-bit product fits in its 128 bits, and the bits a right shift
    pulls down from the next lane land above bit 64, so masking each
    lane before each multiply keeps the lanes apart.
    """
    x = (x + 0x9E3779B97F4A7C15 * ones) & mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


def _unit_lanes(seed_hash: int, first: int, count: int) -> list[float]:
    """Uniform floats for the counters ``first .. first + count - 1``.

    Counter ``c`` maps to ``splitmix64(seed_hash ^ splitmix64(c)) / 2**64``,
    where ``seed_hash`` is ``splitmix64(seed mod 2**64)`` and counters
    wrap modulo ``2**64``.  Counter ``3 * i + s`` is device ``i``'s
    attribute stream ``s``.
    """
    first &= _MASK64
    wrap = max(0, first + count - (1 << 64))
    counters = array("Q", range(first, first + count - wrap))
    counters.extend(range(wrap))
    lanes = array("Q", bytes(16 * count))
    lanes[0::2] = counters
    if sys.byteorder == "big":
        lanes.byteswap()
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    mask = ones * _MASK64
    x = _splitmix64_lanes(int.from_bytes(lanes, "little"), ones, mask)
    x = _splitmix64_lanes(x ^ seed_hash * ones, ones, mask)
    words = array("Q", x.to_bytes(16 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return [word / _TWO64 for word in words[0::2]]


@dataclass(frozen=True)
class DeviceSample:
    """One sampled device: a persona instance with jittered duty cycle."""

    index: int
    persona: Persona
    idle_fraction: float
    sessions_per_day: int


class PopulationModel:
    """Seeded sampler over a weighted persona mix.

    Args:
        mix: persona name -> weight (any positive scale; normalized
            internally).  Personas come from
            :data:`repro.workloads.personas.ALL_PERSONAS_BY_NAME`.
        seed: fleet seed; same seed, same fleet, independent of chunking.
        idle_jitter: half-width of the uniform idle-fraction jitter.
        session_jitter: multiplicative sessions-per-day jitter band.
    """

    def __init__(
        self,
        mix: dict[str, float] | None = None,
        seed: int = 0,
        idle_jitter: float = IDLE_JITTER,
        session_jitter: float = SESSION_JITTER,
    ):
        mix = DEFAULT_MIX if mix is None else mix
        if not mix:
            raise ConfigurationError("population mix must name at least one persona")
        unknown = sorted(set(mix) - set(ALL_PERSONAS_BY_NAME))
        if unknown:
            raise ConfigurationError(
                f"unknown personas in mix: {unknown}; choose from "
                f"{', '.join(sorted(ALL_PERSONAS_BY_NAME))}"
            )
        if any(weight < 0 for weight in mix.values()):
            raise ConfigurationError("mix weights must be non-negative")
        total = float(sum(mix.values()))
        if total <= 0.0:
            raise ConfigurationError("mix weights must sum to a positive total")
        if not 0.0 <= idle_jitter < 0.25:
            raise ConfigurationError("idle_jitter must be in [0, 0.25)")
        if not 0.0 <= session_jitter < 1.0:
            raise ConfigurationError("session_jitter must be in [0, 1)")
        self.seed = seed
        self.idle_jitter = idle_jitter
        self.session_jitter = session_jitter
        # Stable persona order -> stable cumulative thresholds.
        self._personas = tuple(
            ALL_PERSONAS_BY_NAME[name] for name in sorted(mix)
        )
        weights = [mix[p.name] / total for p in self._personas]
        self._cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0  # guard float drift at the top end
        self.mix = {p.name: w for p, w in zip(self._personas, weights)}

    @property
    def personas(self) -> tuple[Persona, ...]:
        return self._personas

    def device(self, index: int) -> DeviceSample:
        """Sample device ``index`` — a pure function of (seed, index)."""
        if index < 0:
            raise ConfigurationError("device index must be >= 0")
        return next(self.devices(index, index + 1))

    def devices(self, start: int, stop: int) -> Iterator[DeviceSample]:
        """Stream devices ``start <= index < stop`` (a shard's range)."""
        personas = self._personas
        for indices, kinds, idles, sessions in self.columns(start, stop):
            for index, kind, idle, count in zip(indices, kinds, idles, sessions):
                yield DeviceSample(index, personas[kind], idle, count)

    def columns(
        self, start: int, stop: int
    ) -> Iterator[tuple[range, list[int], list[float], list[int]]]:
        """Devices ``[start, stop)`` as columns, ``SAMPLE_CHUNK`` at a time.

        Yields ``(indices, persona positions, idle fractions, sessions
        per day)`` per chunk; a persona position indexes
        :attr:`personas`.  Device ``i`` draws ``_unit(seed_hash, i, s)``
        for its persona pick (``s = 0``), idle jitter (1) and session
        jitter (2), all hashed in lanes by :func:`_unit_lanes`.
        """
        if start < 0 or stop < start:
            raise ConfigurationError("need 0 <= start <= stop")
        seed_hash = _splitmix64(self.seed & _MASK64)
        # The first threshold above the pick wins; past them all, the last.
        thresholds = self._cumulative[:-1]
        bases = [persona.idle_fraction for persona in self._personas]
        rates = [persona.sessions_per_day for persona in self._personas]
        idle_jitter, session_jitter = self.idle_jitter, self.session_jitter
        lo, hi = IDLE_BOUNDS
        for first in range(start, stop, SAMPLE_CHUNK):
            last = min(first + SAMPLE_CHUNK, stop)
            units = _unit_lanes(seed_hash, 3 * first, 3 * (last - first))
            kinds = [bisect_right(thresholds, pick) for pick in units[0::3]]
            # min(max(idle, lo), hi) and max(1, sessions), without the calls.
            idles = [
                lo if (idle := bases[kind] + idle_jitter * (2.0 * unit - 1.0)) < lo
                else hi if idle > hi else idle
                for kind, unit in zip(kinds, units[1::3])
            ]
            sessions = [
                count if (
                    count := round(
                        rates[kind] * (1.0 + session_jitter * (2.0 * unit - 1.0))
                    )
                ) > 1 else 1
                for kind, unit in zip(kinds, units[2::3])
            ]
            yield range(first, last), kinds, idles, sessions

    def describe(self) -> dict:
        """JSON-native form (artifact provenance)."""
        return {
            "mix": dict(sorted(self.mix.items())),
            "seed": self.seed,
            "idle_jitter": self.idle_jitter,
            "session_jitter": self.session_jitter,
        }


def parse_mix(text: str) -> dict[str, float]:
    """Parse a CLI mix string like ``light:0.5,moderate:0.3,heavy:0.2``."""
    mix: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition(":")
        name = name.strip()
        if not name:
            raise ConfigurationError(f"bad mix component {part!r}")
        try:
            mix[name] = float(weight) if weight else 1.0
        except ValueError as exc:
            raise ConfigurationError(
                f"bad mix weight in {part!r}: {weight!r}"
            ) from exc
    if not mix:
        raise ConfigurationError("empty population mix")
    return mix
