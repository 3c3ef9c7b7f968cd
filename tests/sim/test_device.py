"""Tests for the whole-device simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.device import DeviceSimulator
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME, BenchmarkSpec

RUN = ScaledRun(instructions=60_000)
MIX = [BENCHMARKS_BY_NAME[n] for n in ("h264ref", "sphinx")]


def make(scheme="mecc", **kwargs):
    return DeviceSimulator(scheme=scheme, run=RUN, **kwargs)


class TestSessionAccounting:
    def test_burst_and_idle_alternate(self):
        sim = make()
        report = sim.run_session(MIX, cycles=2)
        assert len(report.bursts) == 4
        assert report.idle_seconds == pytest.approx(4 * 104.5)
        assert report.total_seconds == report.active_seconds + report.idle_seconds

    def test_burst_seconds_at_paper_scale(self):
        """A 60k-instruction slice stands for ~4B instructions: the burst
        should represent seconds of wall-clock, not microseconds."""
        sim = make()
        outcome = sim.run_burst(MIX[0])
        assert 1.0 < outcome.burst_seconds < 60.0

    def test_energy_components_positive(self):
        sim = make()
        report = sim.run_session(MIX)
        assert report.active_energy_j > 0
        assert report.idle_energy_j > 0
        assert report.total_energy_j == pytest.approx(
            report.active_energy_j + report.idle_energy_j + report.upgrade_energy_j
        )

    def test_traces_cached_across_cycles(self, monkeypatch):
        sim = make()
        sim.run_session(MIX)
        builds = []
        build = BenchmarkSpec.trace

        def counting_build(spec, *args, **kwargs):
            builds.append(spec.name)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(BenchmarkSpec, "trace", counting_build)
        sim.run_session(MIX, cycles=2)
        # The memo is the runner's, shared by every simulator in the process.
        make("secded").run_session(MIX)
        assert builds == []

    def test_average_ipc(self):
        sim = make()
        report = sim.run_session(MIX)
        assert 0.1 < report.average_ipc < 2.0


class TestSchemeComparison:
    def test_mecc_saves_total_energy(self):
        base = make("baseline").run_session(MIX, cycles=2)
        mecc = make("mecc").run_session(MIX, cycles=2)
        assert mecc.idle_energy_j < 0.6 * base.idle_energy_j
        assert mecc.total_energy_j < base.total_energy_j

    def test_secded_idle_power_unchanged(self):
        base = make("baseline").run_session(MIX)
        secded = make("secded").run_session(MIX)
        assert secded.idle_energy_j == pytest.approx(base.idle_energy_j)

    def test_ecc6_slower_than_mecc(self):
        ecc6 = make("ecc6").run_session(MIX, cycles=2)
        mecc = make("mecc").run_session(MIX, cycles=2)
        assert ecc6.average_ipc < mecc.average_ipc

    def test_mecc_pays_upgrade_costs(self):
        mecc = make("mecc").run_session(MIX)
        base = make("baseline").run_session(MIX)
        assert mecc.upgrade_energy_j > 0
        assert base.upgrade_energy_j == 0
        for outcome in mecc.bursts:
            assert outcome.upgrade_seconds > 0
            assert outcome.downgraded_bytes > 0

    def test_upgrade_time_tracks_footprint(self):
        sim = make("mecc")
        small = sim.run_burst(BENCHMARKS_BY_NAME["povray"])  # 4 MB
        large = sim.run_burst(BENCHMARKS_BY_NAME["sphinx"])  # 34 MB
        assert large.upgrade_seconds > small.upgrade_seconds

    def test_smd_scheme_runs(self):
        report = make("mecc+smd").run_session(MIX)
        assert len(report.bursts) == 2


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            DeviceSimulator(scheme="raid5")

    def test_bad_idle(self):
        with pytest.raises(ConfigurationError):
            DeviceSimulator(idle_seconds=0.0)
        with pytest.raises(ConfigurationError):
            make().run_idle(-5.0)

    def test_empty_session(self):
        with pytest.raises(ConfigurationError):
            make().run_session([], cycles=1)
        with pytest.raises(ConfigurationError):
            make().run_session(MIX, cycles=0)

    def test_ipc_requires_bursts(self):
        with pytest.raises(ConfigurationError):
            _ = make().report.average_ipc
