"""Integration tests for the per-figure experiment runners (small scale)."""

import pytest

from repro.analysis import experiments as X
from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.device import DramDevice
from repro.sim.system import ScaledRun
from repro.workloads.spec import ALL_BENCHMARKS, BENCHMARKS_BY_NAME, BenchmarkSpec

RUN = ScaledRun(instructions=80_000)
SUBSET = tuple(
    BENCHMARKS_BY_NAME[n] for n in ("povray", "gobmk", "sphinx", "libq")
)


@pytest.fixture(autouse=True, scope="module")
def _clear_caches():
    X.clear_caches()
    yield
    X.clear_caches()


class TestAnalyticalExhibits:
    def test_fig2_curve(self):
        curve = X.fig2_retention_curve(points=11)
        assert len(curve) == 11
        assert curve[0][1] < curve[-1][1]

    def test_table1(self):
        rows = X.table1_failure()
        assert [r.ecc_t for r in rows] == list(range(7))
        assert rows[6].system_failure < 1e-8


class TestPerformanceExhibits:
    def test_fig7_ordering(self):
        """For memory-intensive benchmarks: baseline > MECC ~ SECDED > ECC-6."""
        perf = X.fig7_performance(RUN, SUBSET)
        for name in ("sphinx", "libq"):
            secded = perf.normalized(name, "secded")
            ecc6 = perf.normalized(name, "ecc6")
            mecc = perf.normalized(name, "mecc")
            assert ecc6 < mecc <= 1.0, name
            assert ecc6 < secded, name

    def test_fig7_geomean_bounds(self):
        perf = X.fig7_performance(RUN, SUBSET)
        assert 0.97 <= perf.geomean("secded") <= 1.0
        assert 0.75 <= perf.geomean("ecc6") <= 0.97
        assert perf.geomean("ecc6") < perf.geomean("mecc")

    def test_fig3_structure(self):
        out = X.fig3_ecc_overhead_by_class(RUN)
        assert "ALL" in out
        assert set(out["ALL"]) == {"secded", "ecc6"}

    def test_fig12_monotone_in_latency(self):
        out = X.fig12_latency_sensitivity((15, 60), RUN, SUBSET)
        assert out[60]["ecc6"] < out[15]["ecc6"]
        # MECC is much less sensitive than ECC-6 (paper Fig. 12).
        ecc6_drop = out[15]["ecc6"] - out[60]["ecc6"]
        mecc_drop = out[15]["mecc"] - out[60]["mecc"]
        assert mecc_drop < ecc6_drop / 2

    def test_fig13_gap_shrinks_with_slice_length(self):
        out = X.fig13_transition((0.25, 1.0), RUN, SUBSET)
        gap_short = out[0.25]["secded"] - out[0.25]["mecc"]
        gap_long = out[1.0]["secded"] - out[1.0]["mecc"]
        assert gap_long < gap_short

    def test_light_and_heavy_slice_values(self):
        """Exact IPC and read latency of a 30k-instruction slice."""
        suites = X.run_policy_suites(
            (BENCHMARKS_BY_NAME["povray"], BENCHMARKS_BY_NAME["libq"]),
            ScaledRun(instructions=30_000),
            policies=("baseline", "mecc"),
        )
        expected = {
            ("povray", "baseline"): (1.75004374964, 84.0),
            ("povray", "mecc"): (1.74394001046, 114.0),
            ("libq", "baseline"): (0.359482841258, 69.5795724466),
            ("libq", "mecc"): (0.280879310183, 97.3171021378),
        }
        for (name, policy), (ipc, latency) in expected.items():
            result = suites[name][policy]
            assert result.ipc == pytest.approx(ipc, rel=1e-9)
            assert result.avg_read_latency == pytest.approx(latency, rel=1e-9)

    def test_results_are_memoized(self, monkeypatch):
        X.run_policy_suite(SUBSET[0], RUN, ("baseline",))
        builds = []
        build = BenchmarkSpec.trace

        def counting_build(spec, *args, **kwargs):
            builds.append(spec.name)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(BenchmarkSpec, "trace", counting_build)
        X.run_policy_suite(SUBSET[0], RUN, ("baseline", "secded"))
        assert builds == []


class TestPowerExhibits:
    def test_fig8_sixteen_x_refresh(self):
        out = X.fig8_idle_power()
        assert out["MECC"]["refresh_norm"] == pytest.approx(1 / 16)
        assert out["ECC-6"]["refresh_norm"] == pytest.approx(1 / 16)
        assert 0.40 <= out["MECC"]["total_norm"] <= 0.60

    def test_fig9_shape(self):
        out = X.fig9_active_metrics(RUN, SUBSET)
        assert out["baseline"]["power"] == 1.0
        # ECC-6 runs longer -> lower average power, higher EDP.
        assert out["ecc6"]["power"] < 1.0
        assert out["ecc6"]["edp"] > 1.05
        # Energies are in the same ballpark for all schemes.  At this tiny
        # test scale the working-set floor inflates MECC's cold-miss share
        # (and hence its downgrade write-backs) well above the paper's
        # steady state, so the tolerance is loose; the real benches run at
        # 400k+ instructions where MECC's energy is within a few percent.
        for scheme in ("secded", "ecc6", "mecc"):
            assert out[scheme]["energy"] == pytest.approx(1.0, abs=0.25)

    def test_fig10_mecc_saves_total_energy(self):
        out = X.fig10_total_energy(RUN, benchmarks=SUBSET)
        assert out["mecc"]["total_norm"] < 0.9
        assert out["secded"]["total_norm"] == pytest.approx(1.0, abs=0.05)
        for row in out.values():
            assert row["total_j"] == pytest.approx(row["active_j"] + row["idle_j"])

    def test_fig1_timeline(self):
        samples, active_power = X.fig1_usage_timeline(total_s=300.0)
        assert len(samples) >= 3
        powers = {s.power_w for s in samples}
        assert max(powers) == pytest.approx(active_power)
        assert min(powers) < active_power / 5


class TestEnhancementExhibits:
    def test_fig11_tracked_tracks_footprint(self):
        out = X.fig11_mdt_tracking((BENCHMARKS_BY_NAME["libq"],), coverage_factor=2.0)
        row = out["libq"]
        assert row["tracked_mb"] == pytest.approx(row["footprint_mb"], rel=0.25)
        assert row["upgrade_ms"] < 400.0

    def test_fig11_equals_per_address_scan(self):
        """The run scan with its early stop reproduces, for every
        benchmark, the table a per-address scan of the whole stream
        builds; at this coverage some benchmarks mark every reachable
        region well before the stream ends and some never do."""
        coverage = 0.01
        device = DramDevice()
        saturated = set()
        for spec in ALL_BENCHMARKS:
            mdt = MemoryDowngradeTracker(device.org)
            n_accesses = int(coverage * spec.footprint_bytes / 64)
            for address in spec.generator().iter_read_addresses(n_accesses):
                mdt.record_downgrade(address)
            reach = MemoryDowngradeTracker(device.org)
            for start, count in spec.generator().footprint_extents():
                reach.record_span(start * 64, count * 64)
            if mdt.marked_regions == reach.marked_regions:
                saturated.add(spec.name)
            row = X.fig11_mdt_tracking((spec,), coverage_factor=coverage)[spec.name]
            assert row == {
                "tracked_mb": mdt.tracked_bytes / (1 << 20),
                "footprint_mb": spec.footprint_mb,
                "upgrade_ms": 1000.0
                * device.upgrade_seconds_for_regions(mdt.marked_count, mdt.region_bytes),
            }
        assert 0 < len(saturated) < len(ALL_BENCHMARKS)

    def test_fig14_gradient(self):
        out = X.fig14_smd_disabled(RUN, SUBSET)
        assert out["povray"] == 1.0  # never enables
        assert out["libq"] < 0.2  # enables almost immediately
        assert out["libq"] < out["gobmk"] <= out["povray"]

    def test_table3_classes_present(self):
        out = X.table3_characterization(RUN, SUBSET)
        assert "Low-MPKI" in out and "High-MPKI" in out
        assert out["High-MPKI"]["mpki"] > out["Low-MPKI"]["mpki"]
