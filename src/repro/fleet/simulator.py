"""Fleet-scale population simulation with sharded streaming aggregation.

The paper's Fig. 10 answers "how much energy does MECC save one device
at 95% idle?".  The deployment question is a population one: over
millions of heterogeneous users, what is the *distribution* of savings,
slowdowns, and failure exposure, and which policy should each traffic
profile run?  Simulating a million devices cycle-accurately is absurd;
the trick is that a fleet has very few *cohorts*:

1. **Cohort pass** — every distinct (benchmark, policy) pair appearing
   in any sampled persona's app mix is one :class:`JobSpec` through the
   cached :class:`repro.analysis.runner.ExperimentRunner` — parallel,
   content-hash cached, manifest-recorded.  A 1M-device fleet over five
   personas costs the same simulation work as a handful of figure
   sweeps (and is usually a pure cache hit).
2. **Device pass** — each sampled device is then pure arithmetic: its
   persona's cohort profile (mean burst energy/length, normalized IPC,
   per-line failure odds, idle power at the scheme's self-refresh
   period) evaluated at the device's own duty cycle, exactly the
   energy-ledger model of :class:`repro.sim.device.DeviceSimulator`.
3. **Aggregation** — per-device results stream into mergeable
   :class:`repro.fleet.aggregates.FleetAggregate` shards; no per-device
   record ever materializes.

Determinism: device attributes are counter-hashed from ``(seed,
index)`` (see :mod:`repro.fleet.population`) and cohort simulations are
seeded, so the same seed yields bit-identical aggregates at any shard
size and any runner parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.analysis.runner import JobSpec, get_runner
from repro.errors import ConfigurationError
from repro.fleet.aggregates import FleetAggregate, merge_aggregates
from repro.fleet.population import DeviceSample, PopulationModel
from repro.power.calculator import DramPowerCalculator
from repro.reliability.failure import line_failure_probability
from repro.reliability.retention import RetentionModel
from repro.sim.device import DeviceSimulator
from repro.sim.system import ScaledRun, SystemConfig
from repro.workloads.personas import Persona
from repro.workloads.spec import BENCHMARKS_BY_NAME

#: Idle-mode ECC strength per scheme (failure-exposure model).
SCHEME_STRENGTH = {
    "baseline": 0,
    "secded": 1,
    "ecc6": 6,
    "mecc": 6,
    "mecc+smd": 6,
}

#: Schemes evaluated per device by default.
DEFAULT_SCHEMES = ("baseline", "secded", "mecc")

SECONDS_PER_DAY = 24 * 3600.0

#: Histogram ranges per metric family (fixed so shards merge exactly).
_ENERGY_RANGE = (0.0, 25_000.0)
_IPC_RANGE = (0.0, 1.25)
_SAVING_RANGE = (-0.5, 1.0)
_FAILURE_RANGE = (0.0, 1.0)
_HIST_BINS = 96

#: Devices scored per column fold in the device pass (bounds the
#: per-metric buffers; chunking never changes a value or its order).
_FOLD_CHUNK = 4096


@dataclass(frozen=True)
class CohortProfile:
    """Precomputed per-(persona, scheme) constants for the device pass."""

    persona: str
    scheme: str
    #: Mean active energy per session at paper scale (J).
    burst_energy_j: float
    #: Mean session length at paper scale (s).
    burst_seconds: float
    #: MECC idle-entry ECC-Upgrade energy per session (J; 0 otherwise).
    upgrade_energy_j: float
    #: Geometric-mean IPC ratio vs. the no-ECC baseline.
    normalized_ipc: float
    #: Self-refresh power at the scheme's idle refresh period (W).
    idle_power_w: float
    #: Probability the device sees an uncorrectable line in one day idle.
    failure_prob_day: float

    def day_energy_j(self, idle_fraction: float, sessions_per_day: int) -> float:
        """One device-day of memory energy for the given duty cycle."""
        idle_seconds = SECONDS_PER_DAY * idle_fraction
        active = sessions_per_day * self.burst_energy_j
        upgrade = sessions_per_day * self.upgrade_energy_j
        return active + upgrade + idle_seconds * self.idle_power_w

    def device_energy_j(self, device: DeviceSample) -> float:
        """One device-day of memory energy under this scheme."""
        return self.day_energy_j(device.idle_fraction, device.sessions_per_day)


@dataclass(frozen=True)
class _PersonaRow:
    """One persona's cohort profiles, in the simulator's scheme order."""

    profiles: tuple[CohortProfile, ...]
    #: Positions of the schemes that keep the IPC floor.
    eligible: tuple[int, ...]
    #: Best position when no eligible scheme has a finite energy.
    fallback: int

    def best_position(self, energies) -> int:
        """Min-energy eligible position (first wins ties), else the fallback."""
        best, best_energy = self.fallback, math.inf
        for pos in self.eligible:
            if energies[pos] < best_energy:
                best, best_energy = pos, energies[pos]
        return best


@dataclass(frozen=True)
class FleetReport:
    """One fleet simulation's merged aggregate plus its provenance."""

    aggregate: FleetAggregate
    population: dict
    schemes: tuple[str, ...]
    devices: int
    shards: int
    shard_size: int
    cohort_jobs: int
    cohort_cache_hits: int

    def as_dict(self) -> dict:
        """JSON-native artifact; deterministic for a fixed seed."""
        return {
            "population": self.population,
            "schemes": list(self.schemes),
            "devices": self.devices,
            "shards": self.shards,
            "shard_size": self.shard_size,
            "cohort_jobs": self.cohort_jobs,
            "cohort_cache_hits": self.cohort_cache_hits,
            "aggregate": self.aggregate.as_dict(),
        }

    def summary(self) -> dict:
        """Flat headline numbers (CLI table, metrics export)."""
        out: dict[str, object] = {
            "devices": self.devices,
            "shards": self.shards,
            "cohort_jobs": self.cohort_jobs,
        }
        for name, agg in sorted(self.aggregate.metrics.items()):
            if agg.moments.count:
                out[f"{name}.mean"] = agg.moments.mean
                out[f"{name}.p95"] = agg.percentile(0.95)
        for scheme, count in sorted(self.aggregate.best_policy_counts.items()):
            out[f"best_policy.{scheme}"] = count / max(1, self.devices)
        return out


class FleetSimulator:
    """Simulate a persona-mixed device population under several schemes.

    Args:
        population: the seeded device sampler.
        schemes: ECC/refresh policies evaluated per device; ``baseline``
            is always simulated (normalization denominator) even when
            not listed.
        run: scaled-run configuration for the cohort simulations.
        config: system configuration (Table II defaults).
        shard_size: devices per aggregation shard.
        ipc_floor: minimum normalized IPC a scheme must keep to be
            eligible as a device's best policy.
    """

    def __init__(
        self,
        population: PopulationModel | None = None,
        schemes: tuple[str, ...] = DEFAULT_SCHEMES,
        run: ScaledRun | None = None,
        config: SystemConfig | None = None,
        shard_size: int = 100_000,
        ipc_floor: float = 0.95,
    ):
        if shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        if not schemes:
            raise ConfigurationError("need at least one scheme")
        unknown = sorted(set(schemes) - set(SCHEME_STRENGTH))
        if unknown:
            raise ConfigurationError(
                f"unknown schemes: {unknown}; choose from "
                f"{', '.join(sorted(SCHEME_STRENGTH))}"
            )
        if not 0.0 < ipc_floor <= 1.0:
            raise ConfigurationError("ipc_floor must be in (0, 1]")
        self.population = population or PopulationModel()
        self.schemes = tuple(dict.fromkeys(schemes))
        self.run = run or ScaledRun(instructions=100_000)
        self.config = config or SystemConfig()
        self.shard_size = shard_size
        self.ipc_floor = ipc_floor
        self._profiles: dict[tuple[str, str], CohortProfile] | None = None
        self._calculator = DramPowerCalculator(self.config.power)
        self._retention = RetentionModel()

    # -- cohort pass -----------------------------------------------------------

    def _policy_schemes(self) -> tuple[str, ...]:
        """Schemes whose cohorts must simulate (baseline always, for IPC)."""
        return tuple(dict.fromkeys(("baseline",) + self.schemes))

    def cohort_jobs(self) -> list[JobSpec]:
        """Every distinct (benchmark, policy) job this fleet needs."""
        benchmarks = dict.fromkeys(
            name
            for persona in self.population.personas
            for name in persona.app_mix
        )
        return [
            JobSpec.build(BENCHMARKS_BY_NAME[name], self.run, scheme, self.config)
            for name in benchmarks
            for scheme in self._policy_schemes()
        ]

    def _failure_prob_day(self, persona: Persona, scheme: str) -> float:
        """Uncorrectable-line odds for one day at the idle refresh period."""
        period = DeviceSimulator.IDLE_PERIODS[scheme]
        ber = self._retention.ber_at_refresh_period(period)
        p_line = line_failure_probability(ber, SCHEME_STRENGTH[scheme])
        lines = int(persona.total_footprint_mb * (1 << 20)) // (
            self.config.org.line_bytes
        )
        if p_line <= 0.0 or lines == 0:
            return 0.0
        return -math.expm1(lines * math.log1p(-min(p_line, 1.0)))

    def build_profiles(self) -> dict[tuple[str, str], CohortProfile]:
        """Run (or fetch) the cohort jobs and derive per-persona profiles."""
        if self._profiles is not None:
            return self._profiles
        jobs = self.cohort_jobs()
        outcomes = get_runner().run(jobs)
        by_key = {
            (spec.benchmark.name, spec.policy): outcome
            for spec, outcome in outcomes.items()
        }
        profiles: dict[tuple[str, str], CohortProfile] = {}
        for persona in self.population.personas:
            for scheme in self.schemes:
                burst_energy = 0.0
                burst_seconds = 0.0
                upgrade_energy = 0.0
                log_ratio = 0.0
                for name in persona.app_mix:
                    result = by_key[(name, scheme)].result
                    baseline = by_key[(name, "baseline")].result
                    burst_energy += result.energy.total * self.run.scale_factor
                    burst_seconds += self.run.to_paper_seconds(result.cycles)
                    log_ratio += math.log(result.ipc / baseline.ipc)
                    if scheme.startswith("mecc"):
                        spec = BENCHMARKS_BY_NAME[name]
                        regions = max(1, int(spec.footprint_mb + 0.5))
                        upgrade_energy += (
                            ((regions << 20) // self.config.org.line_bytes)
                            * self.config.strong_scheme().encode_energy_pj
                            * 1e-12
                        )
                n_apps = len(persona.app_mix)
                idle = self._calculator.idle_power(
                    DeviceSimulator.IDLE_PERIODS[scheme]
                )
                profiles[(persona.name, scheme)] = CohortProfile(
                    persona=persona.name,
                    scheme=scheme,
                    burst_energy_j=burst_energy / n_apps,
                    burst_seconds=burst_seconds / n_apps,
                    upgrade_energy_j=upgrade_energy / n_apps,
                    normalized_ipc=math.exp(log_ratio / n_apps),
                    idle_power_w=idle.total,
                    failure_prob_day=self._failure_prob_day(persona, scheme),
                )
        self._profiles = profiles
        return profiles

    # -- device pass -----------------------------------------------------------

    def simulate_shard(self, start: int, stop: int) -> FleetAggregate:
        """Stream devices ``[start, stop)`` into one mergeable aggregate.

        Devices are scored ``_FOLD_CHUNK`` at a time into one column per
        metric, and each column is folded with ``extend``.  Every metric
        therefore sees the same values in the same order as it would
        one device at a time, so moments and bins are bit-identical at
        any shard size.
        """
        profiles = self.build_profiles()
        schemes = self.schemes
        aggregate = FleetAggregate()
        saving = aggregate.metric("saving_fraction", *_SAVING_RANGE, _HIST_BINS)
        per_scheme = [
            (
                aggregate.metric(f"energy_j.{scheme}", *_ENERGY_RANGE, _HIST_BINS),
                aggregate.metric(f"normalized_ipc.{scheme}", *_IPC_RANGE, _HIST_BINS),
                aggregate.metric(f"failure_prob.{scheme}", *_FAILURE_RANGE, _HIST_BINS),
            )
            for scheme in schemes
        ]
        reference = "baseline" if "baseline" in schemes else schemes[0]
        comparison = next(
            (s for s in schemes if s.startswith("mecc")),
            schemes[-1],
        )
        ref_pos, cmp_pos = schemes.index(reference), schemes.index(comparison)
        rows = {
            persona.name: self._persona_row(persona.name, profiles)
            for persona in self.population.personas
        }
        devices = self.population.devices(start, stop)
        while chunk := list(islice(devices, _FOLD_CHUNK)):
            chunk_rows = [rows[device.persona.name] for device in chunk]
            energies = [
                [
                    row.profiles[pos].device_energy_j(device)
                    for device, row in zip(chunk, chunk_rows)
                ]
                for pos in range(len(schemes))
            ]
            for pos, (energy_agg, ipc_agg, failure_agg) in enumerate(per_scheme):
                energy_agg.extend(energies[pos])
                ipc_agg.extend([row.profiles[pos].normalized_ipc for row in chunk_rows])
                failure_agg.extend(
                    [row.profiles[pos].failure_prob_day for row in chunk_rows]
                )
            for device, row, device_energies in zip(chunk, chunk_rows, zip(*energies)):
                aggregate.count_device(device.persona.name)
                aggregate.count_best_policy(schemes[row.best_position(device_energies)])
            if reference != comparison:
                saving.extend([
                    1.0 - compared / referenced
                    for referenced, compared in zip(energies[ref_pos], energies[cmp_pos])
                ])
        return aggregate

    def _persona_row(
        self, persona: str, profiles: dict[tuple[str, str], CohortProfile]
    ) -> _PersonaRow:
        """One persona's profiles in scheme order, resolved once per shard."""
        row = tuple(profiles[(persona, scheme)] for scheme in self.schemes)
        return _PersonaRow(
            profiles=row,
            eligible=tuple(
                pos
                for pos, profile in enumerate(row)
                if profile.normalized_ipc >= self.ipc_floor
            ),
            # Nothing met the IPC floor; least-slowdown scheme wins.
            fallback=max(range(len(row)), key=lambda pos: row[pos].normalized_ipc),
        )

    def shard_ranges(self, devices: int) -> Iterator[tuple[int, int]]:
        """The shard index ranges covering ``devices``."""
        if devices < 1:
            raise ConfigurationError("devices must be >= 1")
        for start in range(0, devices, self.shard_size):
            yield start, min(start + self.shard_size, devices)

    def simulate(self, devices: int) -> FleetReport:
        """Simulate the whole fleet: cohort pass, sharded device pass, merge."""
        shards = [
            self.simulate_shard(start, stop)
            for start, stop in self.shard_ranges(devices)
        ]
        runner = get_runner()
        return FleetReport(
            aggregate=merge_aggregates(shards),
            population=self.population.describe(),
            schemes=self.schemes,
            devices=devices,
            shards=len(shards),
            shard_size=self.shard_size,
            cohort_jobs=len(self.cohort_jobs()),
            cohort_cache_hits=runner.cache_hits,
        )
