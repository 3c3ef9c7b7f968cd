"""Fleet simulator: cohort decomposition, shard invariance, reporting."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.fleet.aggregates import FleetAggregate
from repro.fleet.population import SAMPLE_CHUNK, PopulationModel
from repro.fleet.simulator import DEFAULT_SCHEMES, FleetSimulator
from repro.sim.system import ScaledRun

#: Tiny cohort simulations: this file tests the fleet layer, not the sim.
RUN = ScaledRun(instructions=10_000)


@pytest.fixture(scope="module")
def simulator():
    return FleetSimulator(
        PopulationModel(seed=42), run=RUN, shard_size=1_000
    )


@pytest.fixture(scope="module")
def report(simulator):
    return simulator.simulate(2_500)


class TestCohortPass:
    def test_job_count_is_benchmarks_times_policies(self, simulator):
        benchmarks = {
            name
            for persona in simulator.population.personas
            for name in persona.app_mix
        }
        assert len(simulator.cohort_jobs()) == len(benchmarks) * len(
            dict.fromkeys(("baseline",) + simulator.schemes)
        )

    def test_profiles_cover_every_persona_scheme(self, simulator):
        profiles = simulator.build_profiles()
        for persona in simulator.population.personas:
            for scheme in simulator.schemes:
                profile = profiles[(persona.name, scheme)]
                assert profile.burst_energy_j > 0
                assert profile.idle_power_w > 0
                assert 0.0 <= profile.failure_prob_day <= 1.0

    def test_mecc_cuts_idle_power(self, simulator):
        profiles = simulator.build_profiles()
        for persona in simulator.population.personas:
            mecc = profiles[(persona.name, "mecc")]
            base = profiles[(persona.name, "baseline")]
            assert mecc.idle_power_w < base.idle_power_w
            assert mecc.failure_prob_day < base.failure_prob_day

    def test_upgrade_energy_only_for_mecc(self, simulator):
        profiles = simulator.build_profiles()
        for (name, scheme), profile in profiles.items():
            if scheme.startswith("mecc"):
                assert profile.upgrade_energy_j > 0, (name, scheme)
            else:
                assert profile.upgrade_energy_j == 0.0, (name, scheme)


class TestDevicePass:
    def test_report_accounting(self, report):
        assert report.devices == 2_500
        assert report.shards == 3  # 1000 + 1000 + 500
        assert report.aggregate.devices == 2_500
        assert sum(report.aggregate.persona_counts.values()) == 2_500
        assert sum(report.aggregate.best_policy_counts.values()) == 2_500

    def test_energy_orders_as_the_paper(self, report):
        metrics = report.aggregate.metrics
        baseline = metrics["energy_j.baseline"].moments.mean
        mecc = metrics["energy_j.mecc"].moments.mean
        assert mecc < baseline
        saving = metrics["saving_fraction"].moments.mean
        assert 0.2 < saving < 0.7

    def test_seeded_determinism(self, simulator, report):
        again = FleetSimulator(
            PopulationModel(seed=42), run=RUN, shard_size=1_000
        ).simulate(2_500)
        assert again.as_dict()["aggregate"] == report.as_dict()["aggregate"]

    def test_shard_size_invariance(self, report):
        fine = FleetSimulator(
            PopulationModel(seed=42), run=RUN, shard_size=137
        ).simulate(2_500)
        assert fine.shards == 19
        a, b = fine.aggregate, report.aggregate
        assert a.persona_counts == b.persona_counts
        assert a.best_policy_counts == b.best_policy_counts
        for name, metric in a.metrics.items():
            assert metric.histogram.counts == b.metrics[name].histogram.counts
            assert metric.moments.mean == pytest.approx(
                b.metrics[name].moments.mean, rel=1e-12
            )

    def test_summary_and_metrics_registry(self, report):
        from repro.obs.metrics import MetricsRegistry

        summary = report.summary()
        assert summary["devices"] == 2_500
        assert "saving_fraction.mean" in summary
        registry = MetricsRegistry()
        registry.record_fleet(report)
        snapshot = registry.snapshot()
        assert snapshot["fleet.devices"] == 2_500
        assert "fleet.saving_fraction.mean" in snapshot


def _per_device_shard(sim, start, stop):
    """The one-device-at-a-time shard loop, kept as the folding oracle."""
    profiles = sim.build_profiles()
    aggregate = FleetAggregate()
    saving = aggregate.metric("saving_fraction", -0.5, 1.0, 96)
    per_scheme = {
        scheme: (
            aggregate.metric(f"energy_j.{scheme}", 0.0, 25_000.0, 96),
            aggregate.metric(f"normalized_ipc.{scheme}", 0.0, 1.25, 96),
            aggregate.metric(f"failure_prob.{scheme}", 0.0, 1.0, 96),
        )
        for scheme in sim.schemes
    }
    reference = "baseline" if "baseline" in sim.schemes else sim.schemes[0]
    comparison = next(
        (s for s in sim.schemes if s.startswith("mecc")),
        sim.schemes[-1],
    )
    for device in sim.population.devices(start, stop):
        aggregate.count_device(device.persona.name)
        energies: dict[str, float] = {}
        best_scheme = None
        best_energy = math.inf
        for scheme in sim.schemes:
            profile = profiles[(device.persona.name, scheme)]
            energy = profile.day_energy_j(device.idle_fraction, device.sessions_per_day)
            energies[scheme] = energy
            energy_agg, ipc_agg, failure_agg = per_scheme[scheme]
            energy_agg.add(energy)
            ipc_agg.add(profile.normalized_ipc)
            failure_agg.add(profile.failure_prob_day)
            if (
                profile.normalized_ipc >= sim.ipc_floor
                and energy < best_energy
            ):
                best_energy = energy
                best_scheme = scheme
        if best_scheme is None:
            best_scheme = max(
                sim.schemes,
                key=lambda s: profiles[(device.persona.name, s)].normalized_ipc,
            )
        aggregate.count_best_policy(best_scheme)
        if reference != comparison:
            saving.add(1.0 - energies[comparison] / energies[reference])
    return aggregate


def _exact_state(aggregate):
    """Every aggregate number, raw moments included, for ``==`` checks."""
    return (
        aggregate.as_dict(),
        list(aggregate.persona_counts.items()),
        list(aggregate.best_policy_counts.items()),
        {
            name: (agg.moments.count, agg.moments.mean, agg.moments.m2)
            for name, agg in aggregate.metrics.items()
        },
    )


class TestColumnFolding:
    """``simulate_shard`` folds columns exactly like the per-device loop."""

    @pytest.mark.parametrize(
        "size", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 25_000]
    )
    def test_matches_per_device_loop(self, simulator, size):
        start = 11
        assert _exact_state(simulator.simulate_shard(start, start + size)) == (
            _exact_state(_per_device_shard(simulator, start, start + size))
        )

    @pytest.mark.parametrize(
        "schemes, ipc_floor",
        [
            (("secded", "ecc6"), 0.95),  # no baseline, no mecc
            (("mecc",), 0.95),  # reference == comparison: no saving
            (("secded", "mecc"), 1.0),  # nothing keeps the floor: fallback
        ],
    )
    def test_matches_per_device_loop_across_scheme_sets(self, schemes, ipc_floor):
        sim = FleetSimulator(
            PopulationModel(seed=5), schemes=schemes, run=RUN, ipc_floor=ipc_floor
        )
        stop = SAMPLE_CHUNK + 7
        assert _exact_state(sim.simulate_shard(3, stop)) == _exact_state(
            _per_device_shard(sim, 3, stop)
        )

    def test_empty_shard(self, simulator):
        assert _exact_state(simulator.simulate_shard(9, 9)) == _exact_state(
            _per_device_shard(simulator, 9, 9)
        )

    @pytest.mark.parametrize("start, stop", [(10, 5), (-3, -3), (-1, 4)])
    def test_bad_range_rejected(self, simulator, start, stop):
        with pytest.raises(ConfigurationError, match="start <= stop"):
            simulator.simulate_shard(start, stop)


class TestValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown schemes"):
            FleetSimulator(schemes=("baseline", "raid5"))

    def test_empty_schemes_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator(schemes=())

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator(shard_size=0)

    def test_bad_device_count_rejected(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.simulate(0)

    def test_default_schemes_include_baseline(self):
        assert "baseline" in DEFAULT_SCHEMES
