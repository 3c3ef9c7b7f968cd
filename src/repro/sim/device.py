"""Whole-device simulation: cycle-accurate bursts inside a day of usage.

Combines every layer of the library: each active burst runs a real trace
through the cycle engine under the chosen ECC policy (fresh-from-idle
MECC state per burst), each idle period is charged self-refresh power at
the scheme's period, and MECC's idle entries pay the measured
ECC-Upgrade cost for the lines actually downgraded during the burst
(MDT-accurate).  The result is an energy/performance ledger for a
realistic mixed-app session — the device-scale version of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.device import DramDevice
from repro.errors import ConfigurationError
from repro.power.calculator import DramPowerCalculator
from repro.sim.engine import SimulationEngine
from repro.sim.system import ScaledRun, SystemConfig
from repro.types import SimResult
from repro.workloads.spec import BenchmarkSpec


@dataclass
class BurstOutcome:
    """One active burst's results (energies at represented wall-clock scale)."""

    benchmark: str
    result: SimResult
    burst_seconds: float
    active_energy_j: float
    upgrade_seconds: float
    upgrade_energy_j: float
    downgraded_bytes: int


@dataclass
class DeviceReport:
    """Full-session ledger."""

    scheme: str
    bursts: list[BurstOutcome] = field(default_factory=list)
    idle_seconds: float = 0.0
    idle_energy_j: float = 0.0

    @property
    def active_seconds(self) -> float:
        return sum(b.burst_seconds for b in self.bursts)

    @property
    def active_energy_j(self) -> float:
        return sum(b.active_energy_j for b in self.bursts)

    @property
    def upgrade_energy_j(self) -> float:
        return sum(b.upgrade_energy_j for b in self.bursts)

    @property
    def total_energy_j(self) -> float:
        return self.active_energy_j + self.idle_energy_j + self.upgrade_energy_j

    @property
    def total_seconds(self) -> float:
        return self.active_seconds + self.idle_seconds

    @property
    def total_instructions(self) -> int:
        return sum(b.result.instructions for b in self.bursts)

    @property
    def average_ipc(self) -> float:
        cycles = sum(b.result.cycles for b in self.bursts)
        if cycles == 0:
            raise ConfigurationError("no active cycles simulated")
        return self.total_instructions / cycles


class DeviceSimulator:
    """Simulate alternating app bursts and idle periods under one scheme.

    Args:
        scheme: ``baseline`` / ``secded`` / ``ecc6`` / ``mecc`` /
            ``mecc+smd``.
        config: the Table II system.
        run: scaled-run bookkeeping (burst length, SMD quantum).
        idle_seconds: idle period between bursts.
    """

    #: Idle self-refresh period per scheme.
    IDLE_PERIODS = {
        "baseline": 0.064,
        "secded": 0.064,
        "ecc6": 1.024,
        "mecc": 1.024,
        "mecc+smd": 1.024,
    }

    def __init__(
        self,
        scheme: str = "mecc",
        config: SystemConfig | None = None,
        run: ScaledRun | None = None,
        idle_seconds: float = 104.5,
    ):
        if scheme not in self.IDLE_PERIODS:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        if idle_seconds <= 0:
            raise ConfigurationError("idle_seconds must be positive")
        self.scheme = scheme
        self.config = config or SystemConfig()
        self.run = run or ScaledRun(instructions=200_000)
        self.idle_seconds = idle_seconds
        self.calculator = DramPowerCalculator(self.config.power)
        self.device = DramDevice(org=self.config.org)
        self.report = DeviceReport(scheme=scheme)

    # -- session steps ----------------------------------------------------------

    def run_burst(self, spec: BenchmarkSpec) -> BurstOutcome:
        """One active burst running ``spec``'s workload.

        The trace comes from the runner's per-process memo, so it is
        generated and calibrated once however many bursts, simulators and
        runner jobs use it.
        """
        from repro.analysis.runner import trace_for

        trace = trace_for(spec, self.run.instructions)
        if self.scheme == "mecc+smd":
            policy = self.config.policy_by_name(
                "mecc+smd", quantum_cycles=self.run.quantum_cycles
            )
        else:
            policy = self.config.policy_by_name(self.scheme)
        engine = SimulationEngine(policy=policy)
        result = engine.run(trace)
        # Wall-clock this burst stands for, at paper scale; energy scales
        # by the same factor (the simulated slice is a statistical sample
        # of the full burst).
        burst_seconds = self.run.to_paper_seconds(result.cycles)
        active_energy = result.energy.total * self.run.scale_factor
        upgrade_seconds = 0.0
        upgrade_energy = 0.0
        downgraded_bytes = 0
        if self.scheme.startswith("mecc"):
            # Idle entry: MDT-guided ECC-Upgrade.  The scaled trace's
            # working set underestimates the full-scale footprint, so the
            # upgrade scan is costed from the benchmark's Table III
            # footprint (1 MB MDT regions), as in Fig. 11.
            regions = max(1, int(spec.footprint_mb + 0.5))
            downgraded_bytes = regions << 20
            upgrade_seconds = self.device.upgrade_seconds_for_regions(regions, 1 << 20)
            upgrade_energy = (
                (downgraded_bytes // self.config.org.line_bytes)
                * self.config.strong_scheme().encode_energy_pj
                * 1e-12
            )
            policy.controller.enter_idle()
        outcome = BurstOutcome(
            benchmark=spec.name,
            result=result,
            burst_seconds=burst_seconds,
            active_energy_j=active_energy,
            upgrade_seconds=upgrade_seconds,
            upgrade_energy_j=upgrade_energy,
            downgraded_bytes=downgraded_bytes,
        )
        self.report.bursts.append(outcome)
        return outcome

    def run_idle(self, seconds: float | None = None) -> float:
        """One idle period; returns the energy charged."""
        seconds = self.idle_seconds if seconds is None else seconds
        if seconds <= 0:
            raise ConfigurationError("idle seconds must be positive")
        idle = self.calculator.idle_power(self.IDLE_PERIODS[self.scheme])
        energy = idle.total * seconds
        self.report.idle_seconds += seconds
        self.report.idle_energy_j += energy
        return energy

    def run_session(self, benchmarks: list[BenchmarkSpec], cycles: int = 1) -> DeviceReport:
        """Alternate bursts (round-robin over ``benchmarks``) and idles."""
        if not benchmarks:
            raise ConfigurationError("need at least one benchmark")
        if cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        for _ in range(cycles):
            for spec in benchmarks:
                self.run_burst(spec)
                self.run_idle()
        return self.report
