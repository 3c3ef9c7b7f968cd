"""Experiment runners for every data-bearing table and figure.

Each function regenerates the rows/series of one paper exhibit (see
DESIGN.md for the index).  All simulation jobs route through
:mod:`repro.analysis.runner`: results are memoized per job description
within the process so figures sharing the same runs — Fig. 3/7/9/10 all
reuse the per-benchmark policy suite — pay for them once, jobs fan out
over a process pool when the runner is configured with ``jobs > 1``, and
an on-disk cache (when enabled) shares results across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.runner import JobOutcome, JobSpec, get_runner
from repro.core.mdt import MemoryDowngradeTracker
from repro.core.smd import DEFAULT_THRESHOLD_MPKC
from repro.dram.config import PROC_HZ
from repro.dram.device import DramDevice
from repro.power.calculator import DramPowerCalculator
from repro.power.energy import energy_delay_product, total_energy_split
from repro.reliability.failure import FailureRow, table1_rows
from repro.reliability.retention import RetentionModel
from repro.sim.stats import geometric_mean
from repro.sim.system import ScaledRun, SystemConfig
from repro.sim.usage import SessionEvaluator, UsageModel
from repro.types import SimResult
from repro.workloads.spec import (
    ALL_BENCHMARKS,
    BenchmarkSpec,
    MpkiClass,
    benchmarks_in_class,
)
from repro.workloads.synth import LINE_BYTES

#: Policies evaluated in the performance figures, in paper order.
PERF_POLICIES = ("baseline", "secded", "ecc6", "mecc")

#: In-process memo: JobSpec -> JobOutcome (L1 above the runner's disk cache).
_result_cache: dict[JobSpec, JobOutcome] = {}


def _effective_config(
    config: SystemConfig | None, decode_cycles: int | None
) -> SystemConfig:
    config = config or SystemConfig()
    if decode_cycles is not None:
        config = SystemConfig(
            org=config.org,
            timings=config.timings,
            power=config.power,
            weak_decode_cycles=config.weak_decode_cycles,
            strong_decode_cycles=decode_cycles,
            strong_t=config.strong_t,
        )
    return config


def _run_jobs(jobs: list[JobSpec]) -> None:
    """Execute (or fetch) every job not already memoized in-process."""
    pending = [job for job in jobs if job not in _result_cache]
    if pending:
        _result_cache.update(get_runner().run(pending))


def run_policy_suites(
    benchmarks: tuple[BenchmarkSpec, ...],
    run: ScaledRun,
    policies: tuple[str, ...] = PERF_POLICIES,
    config: SystemConfig | None = None,
    decode_cycles: int | None = None,
) -> dict[str, dict[str, SimResult]]:
    """Simulate many benchmarks x policies as one batched fan-out.

    The batch form is what parallelizes: all missing jobs across every
    benchmark are submitted to the runner together, so a 4-worker pool
    keeps 4 simulations in flight instead of walking benchmarks serially.
    Returns ``{benchmark name: {policy name: SimResult}}``.
    """
    config = _effective_config(config, decode_cycles)
    jobs = [
        JobSpec.build(spec, run, name, config)
        for spec in benchmarks
        for name in policies
    ]
    _run_jobs(jobs)
    out: dict[str, dict[str, SimResult]] = {}
    job_iter = iter(jobs)
    for spec in benchmarks:
        out[spec.name] = {
            name: _result_cache[next(job_iter)].result for name in policies
        }
    return out


def run_policy_suite(
    spec: BenchmarkSpec,
    run: ScaledRun,
    policies: tuple[str, ...] = PERF_POLICIES,
    config: SystemConfig | None = None,
    decode_cycles: int | None = None,
) -> dict[str, SimResult]:
    """Simulate one benchmark under several policies (memoized).

    Args:
        spec: the benchmark.
        run: the run-scale configuration.
        policies: policy names accepted by ``SystemConfig.policy_by_name``.
        config: system configuration override.
        decode_cycles: strong-ECC decode-latency override (Fig. 12).
    """
    return run_policy_suites((spec,), run, policies, config, decode_cycles)[spec.name]


def run_smd_suite(
    run: ScaledRun,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
    threshold_mpkc: float = DEFAULT_THRESHOLD_MPKC,
    config: SystemConfig | None = None,
) -> dict[str, JobOutcome]:
    """MECC+SMD outcomes (result + disabled fraction) per benchmark.

    Shared by Fig. 14 and the SMD threshold sweep so that the sweep's
    per-threshold performance pass reuses the very same simulations that
    produced the disabled-time fractions.
    """
    config = config or SystemConfig()
    jobs = [
        JobSpec.build(spec, run, "mecc+smd", config, threshold_mpkc=threshold_mpkc)
        for spec in benchmarks
    ]
    _run_jobs(jobs)
    return {spec.name: _result_cache[job] for spec, job in zip(benchmarks, jobs)}


# ---------------------------------------------------------------------------
# Analytical exhibits (no cycle simulation)
# ---------------------------------------------------------------------------


def fig2_retention_curve(points: int = 41) -> list[tuple[float, float]]:
    """Fig. 2: bit failure probability vs. retention time, 10 ms – 100 s."""
    return RetentionModel().curve(t_min_s=0.01, t_max_s=100.0, points=points)


def table1_failure() -> list[FailureRow]:
    """Table I: line/system failure probability, ECC-0..6 at BER 10^-4.5."""
    return table1_rows()


# ---------------------------------------------------------------------------
# Performance exhibits (Figs. 3, 7, 12, 13)
# ---------------------------------------------------------------------------


@dataclass
class PerformanceResult:
    """Normalized-IPC table over benchmarks x policies (Figs. 3/7)."""

    run: ScaledRun
    per_benchmark: dict[str, dict[str, float]] = field(default_factory=dict)

    def normalized(self, benchmark: str, policy: str) -> float:
        """IPC of ``policy`` normalized to the no-ECC baseline."""
        row = self.per_benchmark[benchmark]
        return row[policy] / row["baseline"]

    def geomean(self, policy: str, benchmarks: list[str] | None = None) -> float:
        names = benchmarks or list(self.per_benchmark)
        return geometric_mean([self.normalized(b, policy) for b in names])

    def class_geomean(self, policy: str, cls: MpkiClass) -> float:
        names = [b.name for b in benchmarks_in_class(cls) if b.name in self.per_benchmark]
        return self.geomean(policy, names)


def fig7_performance(
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
    policies: tuple[str, ...] = PERF_POLICIES,
    config: SystemConfig | None = None,
    decode_cycles: int | None = None,
) -> PerformanceResult:
    """Fig. 7: per-benchmark normalized IPC of SECDED, ECC-6, MECC."""
    run = run or ScaledRun()
    result = PerformanceResult(run=run)
    suites = run_policy_suites(benchmarks, run, policies, config, decode_cycles)
    for spec in benchmarks:
        result.per_benchmark[spec.name] = {
            p: r.ipc for p, r in suites[spec.name].items()
        }
    return result


def fig3_ecc_overhead_by_class(run: ScaledRun | None = None) -> dict[str, dict[str, float]]:
    """Fig. 3: normalized IPC of SECDED and ECC-6, by MPKI class + ALL."""
    perf = fig7_performance(run, policies=("baseline", "secded", "ecc6"))
    out: dict[str, dict[str, float]] = {}
    for cls in MpkiClass:
        out[cls.value] = {
            "secded": perf.class_geomean("secded", cls),
            "ecc6": perf.class_geomean("ecc6", cls),
        }
    out["ALL"] = {"secded": perf.geomean("secded"), "ecc6": perf.geomean("ecc6")}
    return out


def fig12_latency_sensitivity(
    latencies: tuple[int, ...] = (15, 30, 45, 60),
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
) -> dict[int, dict[str, float]]:
    """Fig. 12: geomean normalized IPC of ECC-6 and MECC vs. decode latency."""
    run = run or ScaledRun()
    out: dict[int, dict[str, float]] = {}
    for latency in latencies:
        perf = fig7_performance(
            run, benchmarks, policies=("baseline", "ecc6", "mecc"), decode_cycles=latency
        )
        out[latency] = {
            "ecc6": perf.geomean("ecc6"),
            "mecc": perf.geomean("mecc"),
        }
    return out


def fig13_transition(
    slice_fractions: tuple[float, ...] = (0.125, 0.25, 0.5, 0.75, 1.0),
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
) -> dict[float, dict[str, float]]:
    """Fig. 13: MECC's normalized IPC vs. executed slice length.

    The paper's x-axis is 0.5B..4B instructions; slice fractions map onto
    it (1.0 = the full 4B-equivalent scaled run).  MECC's gap to SECDED
    shrinks as the slice grows because downgrades concentrate at the
    start.
    """
    run = run or ScaledRun()
    out: dict[float, dict[str, float]] = {}
    for fraction in slice_fractions:
        slice_run = ScaledRun(
            instructions=max(1000, int(run.instructions * fraction)),
            paper_instructions=run.paper_instructions,
        )
        perf = fig7_performance(
            slice_run, benchmarks, policies=("baseline", "secded", "mecc")
        )
        out[fraction] = {
            "secded": perf.geomean("secded"),
            "mecc": perf.geomean("mecc"),
            "paper_instructions": run.paper_instructions * fraction,
        }
    return out


# ---------------------------------------------------------------------------
# Power/energy exhibits (Figs. 1, 8, 9, 10)
# ---------------------------------------------------------------------------


def fig8_idle_power(
    calculator: DramPowerCalculator | None = None,
) -> dict[str, dict[str, float]]:
    """Fig. 8: refresh power and total idle power, baseline vs MECC/ECC-6.

    Baseline self-refreshes at 64 ms; MECC and ECC-6 at 1 s (16x fewer
    refresh operations).
    """
    calc = calculator or DramPowerCalculator()
    out: dict[str, dict[str, float]] = {}
    for name, period in (("Baseline", 0.064), ("MECC", 1.024), ("ECC-6", 1.024)):
        idle = calc.idle_power(period)
        out[name] = {
            "refresh_w": idle.refresh,
            "background_w": idle.background,
            "total_w": idle.total,
        }
    base = out["Baseline"]
    for row in out.values():
        row["refresh_norm"] = row["refresh_w"] / base["refresh_w"]
        row["total_norm"] = row["total_w"] / base["total_w"]
    return out


def fig9_active_metrics(
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
) -> dict[str, dict[str, float]]:
    """Fig. 9: active-mode power / energy / EDP (normalized to baseline).

    Power and energy are averaged across benchmarks; each benchmark's
    energy uses its own execution time (so ECC-6's longer runtime shows
    up as lower power but similar energy, as in the paper).
    """
    run = run or ScaledRun()
    sums: dict[str, dict[str, float]] = {
        p: {"power": 0.0, "energy": 0.0, "edp": 0.0} for p in ("baseline", "secded", "ecc6", "mecc")
    }
    suites = run_policy_suites(benchmarks, run)
    for spec in benchmarks:
        for policy, result in suites[spec.name].items():
            seconds = result.cycles / PROC_HZ
            energy = result.energy.total
            sums[policy]["power"] += energy / seconds
            sums[policy]["energy"] += energy
            sums[policy]["edp"] += energy_delay_product(energy, seconds)
    n = len(benchmarks)
    for row in sums.values():
        for k in row:
            row[k] /= n
    base = sums["baseline"]
    return {
        policy: {metric: row[metric] / base[metric] for metric in row}
        for policy, row in sums.items()
    }


def fig10_total_energy(
    run: ScaledRun | None = None,
    idle_time_fraction: float = 0.95,
    session_seconds: float = 3600.0,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
) -> dict[str, dict[str, float]]:
    """Fig. 10: total memory energy split into active and idle components.

    Active power comes from the cycle simulator (per-scheme average across
    benchmarks); idle power from the self-refresh model at each scheme's
    refresh period; the duty cycle is the paper's 95% idle.
    """
    run = run or ScaledRun()
    active = fig9_active_metrics(run, benchmarks)
    # Recover absolute baseline active power to de-normalize.
    base_power = _average_active_power(run, benchmarks)
    calc = DramPowerCalculator()
    periods = {"baseline": 0.064, "secded": 0.064, "ecc6": 1.024, "mecc": 1.024}
    out: dict[str, dict[str, float]] = {}
    for policy, period in periods.items():
        split = total_energy_split(
            active_power_w=base_power * active[policy]["power"],
            idle_power_w=calc.idle_power(period).total,
            total_time_s=session_seconds,
            idle_time_fraction=idle_time_fraction,
        )
        out[policy] = {
            "active_j": split.active_energy_j,
            "idle_j": split.idle_energy_j,
            "total_j": split.total_j,
        }
    base_total = out["baseline"]["total_j"]
    for row in out.values():
        row["total_norm"] = row["total_j"] / base_total
    return out


def _average_active_power(run: ScaledRun, benchmarks) -> float:
    suites = run_policy_suites(tuple(benchmarks), run, policies=("baseline",))
    total = 0.0
    for spec in benchmarks:
        result = suites[spec.name]["baseline"]
        total += result.energy.total / (result.cycles / PROC_HZ)
    return total / len(benchmarks)


def fig1_usage_timeline(
    total_s: float = 600.0,
    active_power_w: float | None = None,
    seed: int = 7,
):
    """Fig. 1: normalized power over a bursty usage period.

    Returns ``(samples, normalization)`` where samples are per-phase
    ``PhasePower`` entries and the normalization is the active power.
    """
    calc = DramPowerCalculator()
    if active_power_w is None:
        # ~9x idle, the ratio in the paper's Fig. 1 caption.
        active_power_w = 9.0 * calc.idle_power(0.064).total
    model = UsageModel(seed=seed)
    evaluator = SessionEvaluator(calculator=calc, active_power_w=active_power_w)
    samples = evaluator.evaluate(model.phases(total_s))
    return samples, active_power_w


# ---------------------------------------------------------------------------
# MECC-enhancement exhibits (Figs. 11, 14) and Table III
# ---------------------------------------------------------------------------


def track_read_stream(spec: BenchmarkSpec, coverage_factor: float, trackers) -> None:
    """Record ``spec``'s full-footprint read stream into every MDT tracker.

    The stream is the address-only generator's first ``coverage_factor``
    reads per footprint line, recorded one run at a time.  It stops early
    once every tracker has set the bit of each region the generator's
    extents can reach: no later read could change any table.
    """
    generator = spec.generator()
    extents = generator.footprint_extents()
    active = []
    for mdt in trackers:
        reach = MemoryDowngradeTracker(mdt.org, entries=mdt.entries)
        for start, count in extents:
            reach.record_span(start * LINE_BYTES, count * LINE_BYTES)
        if mdt.marked_count < reach.marked_count:
            active.append((mdt, reach.marked_count))
    if not active:
        return
    n_accesses = int(coverage_factor * spec.footprint_bytes / LINE_BYTES)
    for first, n_lines in generator.iter_read_runs(n_accesses):
        for mdt, _ in active:
            mdt.record_span(first * LINE_BYTES, n_lines * LINE_BYTES)
        if any(mdt.marked_count == reachable for mdt, reachable in active):
            active = [(m, r) for m, r in active if m.marked_count < r]
            if not active:
                return


def fig11_mdt_tracking(
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
    coverage_factor: float = 3.0,
    mdt_entries: int = 1024,
) -> dict[str, dict[str, float]]:
    """Fig. 11: memory tracked by a 1K-entry MDT, per benchmark (MB).

    Runs the address-only generator over each benchmark's full footprint
    (``coverage_factor`` accesses per footprint line, see
    :func:`track_read_stream`) and reports the MB the MDT would scan on
    idle entry, plus the resulting ECC-Upgrade time (the Sec. VI-A
    400 ms -> 50 ms claim).
    """
    device = DramDevice()
    out: dict[str, dict[str, float]] = {}
    for spec in benchmarks:
        mdt = MemoryDowngradeTracker(device.org, entries=mdt_entries)
        track_read_stream(spec, coverage_factor, (mdt,))
        tracked_mb = mdt.tracked_bytes / (1 << 20)
        out[spec.name] = {
            "tracked_mb": tracked_mb,
            "footprint_mb": spec.footprint_mb,
            "upgrade_ms": 1000.0
            * device.upgrade_seconds_for_regions(mdt.marked_count, mdt.region_bytes),
        }
    out["ALL"] = {
        "tracked_mb": sum(v["tracked_mb"] for v in out.values()) / len(out),
        "footprint_mb": sum(b.footprint_mb for b in benchmarks) / len(benchmarks),
        "upgrade_ms": sum(v["upgrade_ms"] for v in out.values()) / len(out),
    }
    return out


def fig14_smd_disabled(
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
    threshold_mpkc: float = DEFAULT_THRESHOLD_MPKC,
) -> dict[str, float]:
    """Fig. 14: fraction of execution time with ECC-Downgrade disabled.

    Uses MECC+SMD with the quantum scaled to the run length (the paper's
    64 ms quantum over a 4B-instruction slice).
    """
    run = run or ScaledRun()
    outcomes = run_smd_suite(run, benchmarks, threshold_mpkc=threshold_mpkc)
    return {
        name: outcome.smd_disabled_fraction for name, outcome in outcomes.items()
    }


def table3_characterization(
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
) -> dict[str, dict[str, float]]:
    """Table III: measured per-class averages (IPC, MPKI, footprint).

    IPC and MPKI are measured from baseline simulation of the scaled
    traces; footprint is the full-scale page count each benchmark model
    declares (``BenchmarkSpec.footprint_mb``), not a measurement.
    """
    run = run or ScaledRun()
    suites = run_policy_suites(tuple(benchmarks), run, policies=("baseline",))
    rows: dict[str, dict[str, float]] = {}
    for cls in MpkiClass:
        members = benchmarks_in_class(cls)
        members = [m for m in members if m in benchmarks]
        if not members:
            continue
        ipc = mpki = fp = 0.0
        for spec in members:
            result = suites[spec.name]["baseline"]
            ipc += result.ipc
            mpki += result.mpki
            fp += spec.footprint_mb
        n = len(members)
        rows[cls.value] = {"ipc": ipc / n, "mpki": mpki / n, "footprint_mb": fp / n}
    return rows


def clear_caches() -> None:
    """Drop memoized traces/results (tests use this for isolation)."""
    from repro.analysis.runner import clear_trace_memo

    _result_cache.clear()
    clear_trace_memo()
