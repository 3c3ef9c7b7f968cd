"""Design-space exploration over the MECC operating-point grid.

:class:`DesignSpaceExplorer` expands a :class:`repro.dse.grid.GridSpec`
into jobs for the shared cached :class:`repro.analysis.runner`
(:func:`~repro.analysis.runner.get_runner`), then scores every operating point on three minimized
objectives:

* ``energy_j_day`` — one device-day of memory energy under the fleet
  duty-cycle model (sessions x burst energy + MDT-geometry-dependent
  ECC-Upgrade energy + idle self-refresh at the point's period).
* ``slowdown`` — ``1 - geomean(IPC / baseline IPC)`` over the workload
  benchmarks at the point's strong strength and SMD threshold.
* ``failure_prob_day`` — probability of an uncorrectable line during
  one day idle at the point's refresh period and strength (same
  retention/BCH model as :mod:`repro.fleet.simulator`).

Only distinct ``(ecc_t, threshold)`` pairs hit the simulator; refresh
period and MDT geometry are analytic, so the default 64-point grid
costs 8 simulated configurations per benchmark plus one baseline.

The resulting :class:`FrontierReport` carries the Pareto frontier, the
knee point, and one-at-a-time sensitivity around the knee, and renders
to canonical JSON: floats rounded to 12 significant digits, sorted
keys, no whitespace.  Identical grid + workload therefore yields
byte-identical frontier files across ``--jobs`` settings and runner
backends (the determinism suite enforces this).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from repro.analysis.runner import JobSpec, get_runner
from repro.dse import pareto
from repro.dse.grid import AXES, GridSpec, OperatingPoint
from repro.errors import ConfigurationError
from repro.fleet.simulator import SECONDS_PER_DAY
from repro.power.calculator import DramPowerCalculator
from repro.reliability.failure import line_failure_probability
from repro.reliability.retention import RetentionModel
from repro.sim.system import ScaledRun, SystemConfig
from repro.workloads.spec import BENCHMARKS_BY_NAME

#: Objective names, in vector order (all minimized).
OBJECTIVES = ("energy_j_day", "slowdown", "failure_prob_day")

#: The paper's chosen operating point (ECC-6, 1.024 s, ~1 MPKC).
PAPER_POINT = OperatingPoint(
    ecc_t=6, refresh_period_s=1.024, threshold_mpkc=1.0, mdt_entries=1024
)

#: Significant digits kept in canonical frontier JSON.  Twelve drops the
#: last-ulp noise a different libm can leave in a double, so the JSON is
#: byte-identical across platforms as well as across --jobs values.
FRONTIER_SIG_DIGITS = 12

#: Default workload mix: one low-MPKI and one high-MPKI benchmark.
DEFAULT_BENCHMARKS = ("povray", "libq")

#: Default duty cycle (a moderate persona's day).
DEFAULT_IDLE_FRACTION = 0.95
DEFAULT_SESSIONS_PER_DAY = 60

FRONTIER_SCHEMA = 1


def round_floats(value, sig_digits: int = FRONTIER_SIG_DIGITS):
    """Round floats recursively to significant digits (canonical JSON)."""
    if isinstance(value, float):
        if value == 0.0 or not math.isfinite(value):
            return value
        digits = sig_digits - 1 - int(math.floor(math.log10(abs(value))))
        return round(value, digits)
    if isinstance(value, dict):
        return {key: round_floats(item, sig_digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(item, sig_digits) for item in value]
    return value


@dataclass(frozen=True)
class PointResult:
    """One operating point's scored objectives plus their ingredients."""

    point: OperatingPoint
    energy_j_day: float
    slowdown: float
    failure_prob_day: float
    normalized_ipc: float
    burst_energy_j: float
    upgrade_energy_j: float
    idle_power_w: float

    def objectives(self) -> tuple[float, float, float]:
        return (self.energy_j_day, self.slowdown, self.failure_prob_day)

    def as_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["point"] = self.point.as_dict()
        payload["key"] = self.point.key()
        return payload


@dataclass(frozen=True)
class FrontierReport:
    """A scored grid: every point, its frontier, knee, and sensitivity."""

    grid: dict
    workload: dict
    results: tuple[PointResult, ...]
    frontier_keys: tuple[str, ...]
    knee_key: str
    sensitivity: dict
    sim_jobs: int

    # -- lookups ---------------------------------------------------------------

    def result(self, key: str) -> PointResult:
        for item in self.results:
            if item.point.key() == key:
                return item
        raise ConfigurationError(
            f"unknown operating point {key!r}; choose from "
            f"{', '.join(r.point.key() for r in self.results)}"
        )

    @property
    def knee(self) -> PointResult:
        return self.result(self.knee_key)

    def frontier(self) -> tuple[PointResult, ...]:
        return tuple(self.result(key) for key in self.frontier_keys)

    def best_key(
        self, slowdown_cap: float = 0.05, failure_cap: float | None = None
    ) -> str:
        """Min-energy point meeting the slowdown (and failure) caps.

        Falls back to the lowest-slowdown point when nothing qualifies,
        mirroring the fleet simulator's ``ipc_floor`` best-policy vote.
        """
        eligible = [
            r
            for r in self.results
            if r.slowdown <= slowdown_cap
            and (failure_cap is None or r.failure_prob_day <= failure_cap)
        ]
        if not eligible:
            return min(
                self.results,
                key=lambda r: (r.slowdown, r.energy_j_day, r.point.key()),
            ).point.key()
        return min(
            eligible, key=lambda r: (r.energy_j_day, r.point.key())
        ).point.key()

    def energies(self) -> dict[str, float]:
        """Point key -> energy objective (the tuner's regret surface)."""
        return {r.point.key(): r.energy_j_day for r in self.results}

    # -- serialization ---------------------------------------------------------

    def summary(self) -> dict:
        """Flat headline scalars (CLI table, ``dse.*`` metrics)."""
        knee = self.knee
        energies = [r.energy_j_day for r in self.results]
        return {
            "points": len(self.results),
            "frontier_size": len(self.frontier_keys),
            "sim_jobs": self.sim_jobs,
            "knee": self.knee_key,
            "knee_energy_j_day": knee.energy_j_day,
            "knee_slowdown": knee.slowdown,
            "knee_failure_prob_day": knee.failure_prob_day,
            "energy_min_j_day": min(energies),
            "energy_max_j_day": max(energies),
            "paper_point_on_frontier": PAPER_POINT.key() in self.frontier_keys,
        }

    def as_dict(self) -> dict:
        return {
            "schema": FRONTIER_SCHEMA,
            "kind": "dse-frontier",
            "grid": self.grid,
            "workload": self.workload,
            "objectives": list(OBJECTIVES),
            "results": [r.as_dict() for r in self.results],
            "frontier": list(self.frontier_keys),
            "knee": self.knee_key,
            "sensitivity": self.sensitivity,
            "sim_jobs": self.sim_jobs,
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON (rounded, sorted, no whitespace)."""
        return (
            json.dumps(
                round_floats(self.as_dict()), sort_keys=True, separators=(",", ":")
            )
            + "\n"
        )


class DesignSpaceExplorer:
    """Score a sweep grid through the shared experiment runner.

    Args:
        grid: the operating-point grid (default: the 64-point
            4 strengths x 4 periods x 2 thresholds x 2 MDT geometries).
        benchmarks: workload mix names (energy/IPC are mixed by mean /
            geometric mean, like a fleet persona's app mix).
        run: scaled-run configuration for the cycle simulations.
        config: base system configuration; ``strong_t`` is overridden
            per grid point.
        idle_fraction: fraction of the day spent idle.
        sessions_per_day: active bursts per day.
    """

    def __init__(
        self,
        grid: GridSpec | None = None,
        benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
        run: ScaledRun | None = None,
        config: SystemConfig | None = None,
        idle_fraction: float = DEFAULT_IDLE_FRACTION,
        sessions_per_day: int = DEFAULT_SESSIONS_PER_DAY,
    ):
        if not benchmarks:
            raise ConfigurationError("need at least one benchmark")
        unknown = sorted(set(benchmarks) - set(BENCHMARKS_BY_NAME))
        if unknown:
            raise ConfigurationError(
                f"unknown benchmarks: {', '.join(unknown)}; choose from "
                f"{', '.join(sorted(BENCHMARKS_BY_NAME))}"
            )
        if not 0.0 < idle_fraction <= 1.0:
            raise ConfigurationError("idle_fraction must be in (0, 1]")
        if sessions_per_day < 1:
            raise ConfigurationError("sessions_per_day must be >= 1")
        self.grid = grid or GridSpec()
        self.benchmarks = tuple(dict.fromkeys(benchmarks))
        self.run = run or ScaledRun(instructions=100_000)
        self.config = config or SystemConfig()
        self.idle_fraction = idle_fraction
        self.sessions_per_day = sessions_per_day
        self._calculator = DramPowerCalculator(self.config.power)
        self._retention = RetentionModel()

    # -- job fan-out -----------------------------------------------------------

    def _config_for(self, ecc_t: int) -> SystemConfig:
        return dataclasses.replace(self.config, strong_t=ecc_t)

    def jobs(self) -> list[JobSpec]:
        """Baseline per benchmark + one job per (sim pair, benchmark)."""
        specs = [
            JobSpec.build(
                BENCHMARKS_BY_NAME[name], self.run, "baseline", self.config
            )
            for name in self.benchmarks
        ]
        for ecc_t, threshold in self.grid.sim_pairs():
            for name in self.benchmarks:
                specs.append(
                    JobSpec.build(
                        BENCHMARKS_BY_NAME[name],
                        self.run,
                        self.grid.policy,
                        self._config_for(ecc_t),
                        threshold_mpkc=threshold,
                    )
                )
        return specs

    # -- analytic ingredients --------------------------------------------------

    def _upgrade_energy_j(self, ecc_t: int, mdt_entries: int) -> float:
        """Per-session ECC-Upgrade energy under one MDT geometry.

        On idle entry every MDT region touched by the workload upgrades
        whole: coarser regions (fewer entries) over-track and re-encode
        more lines, which is exactly the geometry tradeoff the axis
        sweeps.
        """
        org = self.grid.org
        region_bytes = org.capacity_bytes // mdt_entries
        encode_energy_pj = self._config_for(ecc_t).strong_scheme().encode_energy_pj
        total = 0.0
        for name in self.benchmarks:
            footprint = BENCHMARKS_BY_NAME[name].footprint_bytes
            regions = min(
                mdt_entries, (footprint + region_bytes - 1) // region_bytes
            )
            lines = regions * (region_bytes // org.line_bytes)
            total += lines * encode_energy_pj * 1e-12
        return total / len(self.benchmarks)

    def _failure_prob_day(self, ecc_t: int, period_s: float) -> float:
        """Uncorrectable-line odds for one day idle at the given period."""
        ber = self._retention.ber_at_refresh_period(period_s)
        p_line = line_failure_probability(ber, ecc_t)
        footprint = sum(
            BENCHMARKS_BY_NAME[name].footprint_bytes for name in self.benchmarks
        )
        lines = footprint // self.grid.org.line_bytes
        if p_line <= 0.0 or lines == 0:
            return 0.0
        return -math.expm1(lines * math.log1p(-min(p_line, 1.0)))

    # -- exploration -----------------------------------------------------------

    def explore(self) -> FrontierReport:
        """Run the grid and assemble the scored frontier report."""
        specs = self.jobs()
        outcomes = get_runner().run(specs)
        by_key = {
            (spec.policy, spec.config.strong_t, spec.threshold_mpkc, spec.benchmark.name): outcome
            for spec, outcome in outcomes.items()
        }

        def sim_metrics(ecc_t: int, threshold: float) -> tuple[float, float]:
            """(mean burst energy J, geomean normalized IPC) for one pair."""
            if self.grid.policy == "mecc":
                threshold = None
            burst = 0.0
            log_ratio = 0.0
            for name in self.benchmarks:
                result = by_key[(self.grid.policy, ecc_t, threshold, name)].result
                baseline = by_key[("baseline", self.config.strong_t, None, name)].result
                burst += result.energy.total * self.run.scale_factor
                log_ratio += math.log(result.ipc / baseline.ipc)
            n = len(self.benchmarks)
            return burst / n, math.exp(log_ratio / n)

        pair_metrics = {
            (ecc_t, threshold): sim_metrics(ecc_t, threshold)
            for ecc_t, threshold in self.grid.sim_pairs()
        }
        # Each analytic term depends on two axes at most: score it once
        # per axis combination, not once per point.
        grid = self.grid
        upgrades = {
            (ecc_t, entries): self._upgrade_energy_j(ecc_t, entries)
            for ecc_t in grid.ecc_strength
            for entries in grid.mdt_entries
        }
        idle_powers = {
            period: self._calculator.idle_power(period).total
            for period in grid.refresh_period_s
        }
        failures = {
            (ecc_t, period): self._failure_prob_day(ecc_t, period)
            for ecc_t in grid.ecc_strength
            for period in grid.refresh_period_s
        }
        idle_seconds = SECONDS_PER_DAY * self.idle_fraction
        results = []
        for point in grid.points():
            pair = (point.ecc_t, point.threshold_mpkc)
            if pair not in pair_metrics:  # mecc: thresholds share one sim
                pair = (point.ecc_t, grid.threshold_mpkc[0])
            burst_energy, normalized_ipc = pair_metrics[pair]
            upgrade = upgrades[(point.ecc_t, point.mdt_entries)]
            idle_power = idle_powers[point.refresh_period_s]
            energy = (
                self.sessions_per_day * (burst_energy + upgrade)
                + idle_seconds * idle_power
            )
            results.append(
                PointResult(
                    point=point,
                    energy_j_day=energy,
                    slowdown=1.0 - normalized_ipc,
                    failure_prob_day=failures[(point.ecc_t, point.refresh_period_s)],
                    normalized_ipc=normalized_ipc,
                    burst_energy_j=burst_energy,
                    upgrade_energy_j=upgrade,
                    idle_power_w=idle_power,
                )
            )
        results.sort(key=lambda r: r.point.key())
        vectors = [r.objectives() for r in results]
        frontier = pareto.pareto_indices(vectors)
        knee = pareto.knee_index(vectors)
        return FrontierReport(
            grid=self.grid.describe(),
            workload={
                "benchmarks": list(self.benchmarks),
                "instructions": self.run.instructions,
                "idle_fraction": self.idle_fraction,
                "sessions_per_day": self.sessions_per_day,
            },
            results=tuple(results),
            frontier_keys=tuple(results[i].point.key() for i in frontier),
            knee_key=results[knee].point.key(),
            sensitivity=self._sensitivity(results, results[knee]),
            sim_jobs=len(specs),
        )

    def _sensitivity(
        self, results: list[PointResult], knee: PointResult
    ) -> dict:
        """One-at-a-time sweeps through the knee along each grid axis."""
        by_point = {r.point: r for r in results}
        out: dict[str, dict] = {}
        for axis in AXES:
            values = self.grid.axis_values(axis)
            if len(values) < 2:
                continue
            line = []
            for value in values:
                kwargs = knee.point.as_dict()
                kwargs.update(
                    {
                        "ecc_strength": {"ecc_t": value},
                        "refresh_period_s": {"refresh_period_s": value},
                        "threshold_mpkc": {"threshold_mpkc": value},
                        "mdt_entries": {"mdt_entries": value},
                    }[axis]
                )
                line.append(by_point[OperatingPoint(**kwargs)])
            entry: dict[str, object] = {"values": list(values)}
            for objective in OBJECTIVES:
                entry[objective] = pareto.sensitivity_spread(
                    [getattr(r, objective) for r in line]
                )
            out[axis] = entry
        return out


def explore_grid(grid: GridSpec | None = None, **kwargs) -> FrontierReport:
    """Convenience wrapper: build an explorer and run it."""
    return DesignSpaceExplorer(grid=grid, **kwargs).explore()
