"""Ablation benches for MECC's design choices (see DESIGN.md Sec. 4).

The paper fixes several parameters by fiat; these benches quantify the
sensitivity around each choice:

* MDT table size (paper: 1K entries = 128 B).
* SMD traffic threshold (paper: MPKC = 2).
* ECC-mode-bit redundancy (paper: 4-way).
* Strong-ECC strength vs. achievable refresh period (paper: ECC-6 / ~1 s).
* Refresh period vs. idle power and required correction strength.
"""

import pytest

from repro.analysis import sweep
from repro.analysis.tables import format_table
from repro.workloads.spec import BENCHMARKS_BY_NAME


def test_ablation_mdt_table_size(benchmark, show):
    spec = BENCHMARKS_BY_NAME["sphinx"]
    out = benchmark.pedantic(
        sweep.mdt_entry_sweep, args=(spec,), kwargs={"coverage_factor": 1.5},
        rounds=1, iterations=1,
    )
    show(format_table(
        ["entries", "storage B", "tracked MB", "upgrade ms"],
        [[e, v["storage_bytes"], v["tracked_mb"], v["upgrade_ms"]]
         for e, v in out.items()],
        title="Ablation — MDT size vs. upgrade cost (sphinx, 34 MB footprint)",
    ))
    # Finer tables never track more memory; the paper's 1K point is already
    # within ~2x of the footprint.
    entries = sorted(out)
    tracked = [out[e]["tracked_mb"] for e in entries]
    assert all(a >= b - 1e-9 for a, b in zip(tracked, tracked[1:]))
    assert out[1024]["tracked_mb"] <= 2.5 * spec.footprint_mb


def test_ablation_smd_threshold(benchmark, run, show):
    subset = tuple(
        BENCHMARKS_BY_NAME[n]
        for n in ("povray", "hmmer", "gobmk", "sphinx", "libq")
    )
    out = benchmark.pedantic(
        sweep.smd_threshold_sweep,
        kwargs={"thresholds": (0.5, 2.0, 8.0), "run": run, "benchmarks": subset},
        rounds=1, iterations=1,
    )
    show(format_table(
        ["threshold MPKC", "mean disabled frac", "never enabled", "geomean IPC"],
        [[t, v["mean_disabled_fraction"], v["never_enabled_count"],
          v["geomean_normalized_ipc"]] for t, v in out.items()],
        title="Ablation — SMD threshold: power opportunity vs. performance",
    ))
    # Raising the threshold keeps more time at slow refresh...
    assert out[8.0]["mean_disabled_fraction"] >= out[0.5]["mean_disabled_fraction"]
    # ...at some performance cost.
    assert out[8.0]["geomean_normalized_ipc"] <= out[0.5]["geomean_normalized_ipc"] + 0.01
    # The paper's threshold of 2 keeps performance within a few percent.
    assert out[2.0]["geomean_normalized_ipc"] > 0.94


def test_ablation_mode_bit_redundancy(benchmark, show):
    out = benchmark.pedantic(sweep.mode_bit_redundancy_sweep, rounds=1, iterations=1)
    show(format_table(
        ["replicas", "misresolve P", "tie P"],
        [[r, v["misresolve_p"], v["tie_p"]] for r, v in out.items()],
        title="Ablation — mode-bit replication at BER 10^-4.5",
    ))
    assert out[1]["misresolve_p"] == pytest.approx(10 ** -4.5)
    assert out[4]["misresolve_p"] < 1e-12
    assert out[8]["misresolve_p"] < out[4]["misresolve_p"]


def test_ablation_strength_vs_refresh_period(benchmark, show):
    out = benchmark.pedantic(sweep.ecc_strength_refresh_sweep, rounds=1, iterations=1)
    show(format_table(
        ["ECC-t", "max refresh period (s)"],
        [[t, p] for t, p in out.items()],
        title="Ablation — correction strength vs. achievable refresh period",
    ))
    periods = [out[t] for t in sorted(out)]
    assert all(a < b for a, b in zip(periods, periods[1:]))
    assert 0.9 <= out[6] <= 1.6  # the paper's ECC-6 ~ 1 second


def test_ablation_refresh_period_power(benchmark, show):
    out = benchmark.pedantic(sweep.refresh_period_power_sweep, rounds=1, iterations=1)
    show(format_table(
        ["period s", "idle power mW", "normalized", "refresh share", "needs ECC-t"],
        [[p, 1000 * v["idle_power_w"], v["idle_power_norm"], v["refresh_share"],
          v["required_ecc_t"]] for p, v in out.items()],
        title="Ablation — refresh period vs. idle power and ECC demand",
    ))
    periods = sorted(out)
    powers = [out[p]["idle_power_norm"] for p in periods]
    strengths = [out[p]["required_ecc_t"] for p in periods]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
    assert all(a <= b for a, b in zip(strengths, strengths[1:]))
    # Diminishing returns: background power floors the curve near ~0.5.
    assert powers[-1] > 0.45


def test_ablation_morphing_levels(benchmark, run, show):
    """Paper Sec. VIII: MECC can morph between arbitrary ECC levels.

    Sweeps (weak, strong) scheme pairs and reports the three-way
    trade-off: active-mode performance (weak decode latency), idle
    refresh period (strong correction budget), and whether the pair fits
    the (72,64) storage budget.
    """
    from repro.core.mecc import MeccController
    from repro.core.policy import MeccPolicy
    from repro.ecc.codes import make_scheme
    from repro.reliability.provisioning import max_refresh_period_for_strength
    from repro.sim.engine import simulate
    from repro.sim.stats import geometric_mean
    from repro.analysis.experiments import run_policy_suite
    from repro.analysis.runner import trace_for
    from repro.sim.system import ScaledRun

    pairs = ((1, 4), (1, 6), (2, 6), (1, 8))
    subset = tuple(BENCHMARKS_BY_NAME[n] for n in ("sphinx", "libq", "gobmk"))
    sweep_run = ScaledRun(instructions=min(run.instructions, 150_000))

    def compute():
        rows = {}
        for weak_t, strong_t in pairs:
            ratios = []
            for spec in subset:
                base = run_policy_suite(spec, sweep_run, policies=("baseline",))["baseline"]
                policy = MeccPolicy(controller=MeccController(
                    weak=make_scheme(weak_t), strong=make_scheme(strong_t)))
                result = simulate(trace_for(spec, sweep_run.instructions), policy)
                ratios.append(result.ipc / base.ipc)
            storage = max(
                make_scheme(weak_t).storage_bits,
                make_scheme(strong_t, extended_detection=False).storage_bits,
            )
            rows[(weak_t, strong_t)] = {
                "normalized_ipc": geometric_mean(ratios),
                "idle_period_s": max_refresh_period_for_strength(strong_t),
                "storage_bits": storage,
                "fits_72_64": storage <= 60,
            }
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(format_table(
        ["weak/strong", "normalized IPC", "idle refresh (s)", "code bits", "fits (72,64)"],
        [[f"ECC-{w} / ECC-{s}", v["normalized_ipc"], v["idle_period_s"],
          v["storage_bits"], "yes" if v["fits_72_64"] else "NO"]
         for (w, s), v in rows.items()],
        title="Ablation — arbitrary morphing levels (paper Sec. VIII)",
    ))
    # Stronger strong code -> longer idle refresh; ECC-8 breaks the budget.
    assert rows[(1, 8)]["idle_period_s"] > rows[(1, 6)]["idle_period_s"]
    assert not rows[(1, 8)]["fits_72_64"]
    assert rows[(1, 6)]["fits_72_64"]
    # Heavier weak code costs active-mode performance.
    assert rows[(2, 6)]["normalized_ipc"] < rows[(1, 6)]["normalized_ipc"]
    # Weaker strong code: same active performance, shorter idle period.
    assert rows[(1, 4)]["idle_period_s"] < rows[(1, 6)]["idle_period_s"]


def test_ablation_temperature(benchmark, show):
    """Temperature sensitivity (extension): retention halves per +10 C.

    At elevated device temperatures the 1 s refresh period exceeds the
    ECC-6 budget; a temperature-compensated divider must fall back to
    shorter periods, shrinking the refresh saving (16x at nominal, 4x at
    +20 C, 1x at +40 C).
    """
    from repro.power.calculator import DramPowerCalculator
    from repro.reliability.provisioning import max_refresh_period_for_strength
    from repro.reliability.retention import RetentionModel

    def compute():
        calc = DramPowerCalculator()
        base_idle = calc.idle_power(0.064).total
        rows = {}
        for delta in (0.0, 10.0, 20.0, 30.0, 40.0):
            model = RetentionModel().at_temperature_offset(delta)
            safe = max_refresh_period_for_strength(6, model)
            # The divider only offers power-of-two stretches of 64 ms.
            # Allow the paper's own rounding margin (it treats 1.024 s
            # as "1 second" against a 1.009 s strict bound).
            divider = 1
            while 0.064 * divider * 2 <= safe * 1.05 and divider < 16:
                divider *= 2
            period = 0.064 * divider
            rows[delta] = {
                "safe_period_s": safe,
                "divider": divider,
                "idle_power_norm": calc.idle_power(period).total / base_idle,
            }
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(format_table(
        ["delta C", "ECC-6-safe period (s)", "usable divider", "idle power (norm)"],
        [[d, v["safe_period_s"], f"{v['divider']}x", v["idle_power_norm"]]
         for d, v in rows.items()],
        title="Ablation — temperature vs. MECC's refresh saving",
    ))
    assert rows[0.0]["divider"] == 16
    assert rows[20.0]["divider"] == 4
    assert rows[40.0]["divider"] == 1
    powers = [rows[d]["idle_power_norm"] for d in (0.0, 10.0, 20.0, 30.0, 40.0)]
    assert all(a <= b + 1e-9 for a, b in zip(powers, powers[1:]))


def test_ablation_address_mapping(benchmark, run, show):
    """Address-mapping ablation (extension): the open-page row-interleaved
    mapping vs. block interleaving.

    The paper's open-page system depends on row-buffer locality; block
    interleaving trades that locality for bank parallelism, which a
    *blocking* in-order core cannot exploit — so the baseline slows down
    and, notably, ECC-6's relative penalty shrinks (decode latency is a
    smaller share of a slower memory system).
    """
    from repro.dram.controller import MemoryController
    from repro.sim.engine import SimulationEngine
    from repro.sim.system import ScaledRun, SystemConfig

    config = SystemConfig()
    sweep_run = ScaledRun(instructions=min(run.instructions, 150_000))
    subset = ("sphinx", "libq")

    def compute():
        out = {}
        for policy in ("row-interleaved", "block-interleaved"):
            base_ipcs, hit_rates, ecc6_ratio = [], [], []
            for name in subset:
                trace = BENCHMARKS_BY_NAME[name].trace(sweep_run.instructions)
                engine = SimulationEngine(
                    policy=config.baseline_policy(),
                    controller=MemoryController(mapping_policy=policy),
                )
                base = engine.run(trace)
                hit_rates.append(engine.controller.stats.row_hit_rate)
                base_ipcs.append(base.ipc)
                ecc6 = SimulationEngine(
                    policy=config.ecc6_policy(),
                    controller=MemoryController(mapping_policy=policy),
                ).run(trace)
                ecc6_ratio.append(ecc6.ipc / base.ipc)
            n = len(subset)
            out[policy] = {
                "row_hit_rate": sum(hit_rates) / n,
                "baseline_ipc": sum(base_ipcs) / n,
                "ecc6_normalized": sum(ecc6_ratio) / n,
            }
        return out

    out = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(format_table(
        ["mapping", "row-hit rate", "baseline IPC", "ECC-6 (norm IPC)"],
        [[m, v["row_hit_rate"], v["baseline_ipc"], v["ecc6_normalized"]]
         for m, v in out.items()],
        title="Ablation — address mapping (sphinx+libq mean)",
    ))
    row = out["row-interleaved"]
    blk = out["block-interleaved"]
    # With only 4 banks a stream still revisits each bank's open row, so
    # block interleaving dents rather than destroys locality.
    assert row["row_hit_rate"] > blk["row_hit_rate"] + 0.05
    assert row["baseline_ipc"] > blk["baseline_ipc"]


def test_ablation_adaptive_governor(benchmark, show):
    """Adaptive refresh governor (extension): temperature-aware divider.

    Over a day with warm/hot segments, static MECC's fixed 1 s period
    silently violates its own reliability budget whenever the device runs
    above nominal temperature; the governor derates per segment, staying
    safe for a small energy premium.
    """
    from repro.core.governor import RefreshGovernor, static_mecc_idle_energy

    profile = [
        (8 * 3600.0, -5.0),   # cool night
        (12 * 3600.0, 5.0),   # warm daytime
        (2 * 3600.0, 25.0),   # hot gaming stretch
        (2 * 3600.0, 10.0),   # evening
    ]

    def compute():
        governor = RefreshGovernor()
        governed_j, decisions = governor.idle_energy_over_profile(profile)
        static_j, violations = static_mecc_idle_energy(profile)
        return {
            "decisions": [(d.temperature_offset_c, d.divider) for d in decisions],
            "governed_j": governed_j,
            "static_j": static_j,
            "static_violations": violations,
        }

    out = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(format_table(
        ["segment temp offset", "governed divider"],
        [[f"{t:+.0f} C", f"{d}x"] for t, d in out["decisions"]],
        title=(
            "Ablation — adaptive governor over a day "
            f"(governed {out['governed_j']:.0f} J vs static {out['static_j']:.0f} J, "
            f"static violates reliability on {out['static_violations']}/4 segments)"
        ),
    ))
    assert out["static_violations"] >= 3
    assert out["governed_j"] <= 1.2 * out["static_j"]
    dividers = dict(out["decisions"])
    assert dividers[-5.0] == 16 and dividers[25.0] <= 2
