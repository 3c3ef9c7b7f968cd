"""Ablation sweeps over MECC's design parameters.

Covers the design choices the paper fixes by fiat, so their sensitivity
can be checked:

* MDT table size (paper: 1K entries / 128 bytes).
* SMD traffic threshold (paper: MPKC = 2).
* ECC-mode-bit redundancy (paper: 4-way).
* Strong-ECC strength vs. achievable refresh period (paper: ECC-6 / 1 s).
* Refresh period vs. idle power (the 16x lever).
"""

from __future__ import annotations

from repro.core.mdt import MemoryDowngradeTracker
from repro.core.mode_bits import misresolve_probability, tie_probability
from repro.dram.device import DramDevice
from repro.power.calculator import DramPowerCalculator
from repro.reliability.provisioning import (
    max_refresh_period_for_strength,
    required_strength_for_refresh_period,
)
from repro.reliability.retention import RetentionModel
from repro.sim.system import ScaledRun
from repro.workloads.spec import ALL_BENCHMARKS, BenchmarkSpec


def mdt_entry_sweep(
    spec: BenchmarkSpec,
    entry_counts: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096),
    coverage_factor: float = 3.0,
) -> dict[int, dict[str, float]]:
    """Tracked MB and upgrade time vs. MDT size for one benchmark.

    Fewer entries mean coarser regions: the same footprint maps to more
    tracked bytes (false sharing of regions), so upgrade time rises.
    """
    from repro.analysis.experiments import track_read_stream

    device = DramDevice()
    trackers = [MemoryDowngradeTracker(device.org, entries=e) for e in entry_counts]
    track_read_stream(spec, coverage_factor, trackers)
    out: dict[int, dict[str, float]] = {}
    for entries, mdt in zip(entry_counts, trackers):
        out[entries] = {
            "storage_bytes": mdt.storage_bytes,
            "tracked_mb": mdt.tracked_bytes / (1 << 20),
            "upgrade_ms": 1000.0
            * device.upgrade_seconds_for_regions(mdt.marked_count, mdt.region_bytes),
        }
    return out


def smd_threshold_sweep(
    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0),
    run: ScaledRun | None = None,
    benchmarks: tuple[BenchmarkSpec, ...] = ALL_BENCHMARKS,
) -> dict[float, dict[str, float]]:
    """Disabled-time fraction and performance vs. the SMD threshold.

    A higher threshold keeps more benchmarks at the 1 s refresh (power
    win) but exposes more strong-decode latency (performance loss).

    The threshold-independent baseline suite is computed once, up front,
    as a single batched fan-out; each threshold then adds only one
    MECC+SMD run per benchmark, and that run supplies *both* the
    disabled-time fraction and the normalized-IPC sample.
    """
    from repro.analysis.experiments import run_policy_suites, run_smd_suite
    from repro.sim.stats import geometric_mean

    run = run or ScaledRun()
    baselines = run_policy_suites(benchmarks, run, policies=("baseline",))
    out: dict[float, dict[str, float]] = {}
    for threshold in thresholds:
        outcomes = run_smd_suite(run, benchmarks, threshold_mpkc=threshold)
        disabled = {
            name: outcome.smd_disabled_fraction for name, outcome in outcomes.items()
        }
        ratios = [
            outcomes[spec.name].result.ipc / baselines[spec.name]["baseline"].ipc
            for spec in benchmarks
        ]
        out[threshold] = {
            "mean_disabled_fraction": sum(disabled.values()) / len(disabled),
            "never_enabled_count": sum(1 for v in disabled.values() if v >= 1.0),
            "geomean_normalized_ipc": geometric_mean(ratios),
        }
    return out


def mode_bit_redundancy_sweep(
    replica_counts: tuple[int, ...] = (1, 2, 4, 8),
    ber: float = 10.0 ** -4.5,
) -> dict[int, dict[str, float]]:
    """Raw mis-resolution / tie probability vs. replica count.

    The paper picks 4-way replication; this shows the margin: the chance
    that the pre-decode majority vote is wrong or tied (forcing the
    trial-decode fallback) per line read after a full idle period.
    """
    out: dict[int, dict[str, float]] = {}
    for replicas in replica_counts:
        out[replicas] = {
            "misresolve_p": misresolve_probability(ber, replicas),
            "tie_p": tie_probability(ber, replicas),
        }
    return out


def ecc_strength_refresh_sweep(
    strengths: tuple[int, ...] = (2, 3, 4, 5, 6, 8),
) -> dict[int, float]:
    """Max safe refresh period (s) per ECC strength (1-in-a-million target,
    one level reserved for soft errors — the paper's provisioning rule)."""
    return {
        t: max_refresh_period_for_strength(t)
        for t in strengths
        if t >= 1
    }


def refresh_period_power_sweep(
    periods_s: tuple[float, ...] = (0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096),
) -> dict[float, dict[str, float]]:
    """Idle power and required ECC strength vs. refresh period."""
    calc = DramPowerCalculator()
    model = RetentionModel()
    base = calc.idle_power(0.064).total
    out: dict[float, dict[str, float]] = {}
    for period in periods_s:
        idle = calc.idle_power(period)
        out[period] = {
            "idle_power_w": idle.total,
            "idle_power_norm": idle.total / base,
            "refresh_share": idle.refresh / idle.total,
            "required_ecc_t": required_strength_for_refresh_period(period, model),
        }
    return out
