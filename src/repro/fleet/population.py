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
"""

from __future__ import annotations

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

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 round: the per-device counter hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _unit(seed_hash: int, index: int, stream: int) -> float:
    """Uniform float in [0, 1) for (hashed seed, device index, attribute stream).

    ``seed_hash`` is ``_splitmix64(seed & _MASK64)``, hashed once per
    device (or per shard) rather than once per attribute.
    """
    word = _splitmix64(seed_hash ^ _splitmix64(index * 3 + stream))
    return word / float(1 << 64)


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
        return self._sample(index, _splitmix64(self.seed & _MASK64))

    def _sample(self, index: int, seed_hash: int) -> DeviceSample:
        pick = _unit(seed_hash, index, 0)
        persona = self._personas[-1]
        for cursor, threshold in enumerate(self._cumulative):
            if pick < threshold:
                persona = self._personas[cursor]
                break
        lo, hi = IDLE_BOUNDS
        idle = persona.idle_fraction + self.idle_jitter * (
            2.0 * _unit(seed_hash, index, 1) - 1.0
        )
        idle = min(max(idle, lo), hi)
        scale = 1.0 + self.session_jitter * (2.0 * _unit(seed_hash, index, 2) - 1.0)
        sessions = max(1, round(persona.sessions_per_day * scale))
        return DeviceSample(
            index=index,
            persona=persona,
            idle_fraction=idle,
            sessions_per_day=sessions,
        )

    def devices(self, start: int, stop: int) -> Iterator[DeviceSample]:
        """Stream devices ``start <= index < stop`` (a shard's range)."""
        if start < 0 or stop < start:
            raise ConfigurationError("need 0 <= start <= stop")
        seed_hash = _splitmix64(self.seed & _MASK64)
        sample = self._sample
        for index in range(start, stop):
            yield sample(index, seed_hash)

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
