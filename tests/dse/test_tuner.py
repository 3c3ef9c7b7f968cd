"""Tuner oracle tests: analytic optima recovered exactly, regret priced right.

The synthetic grids here have *known* best points by construction, so
the k-NN tuner's predictions can be checked against an analytic oracle
rather than against itself.
"""

import math

import pytest

from repro.dse.tuner import (
    FEATURES,
    PolicyTuner,
    TunerSample,
    WorkloadFeatures,
    build_training_set,
    train_tuner,
)
from repro.dse.grid import GridSpec
from repro.errors import ConfigurationError
from repro.sim.system import ScaledRun
from repro.workloads.personas import ALL_PERSONAS_BY_NAME


def _features(mpki=1.0, idle=0.9, sessions=50.0, footprint=100.0):
    return WorkloadFeatures(
        mean_mpki=mpki,
        idle_fraction=idle,
        sessions_per_day=sessions,
        footprint_mb=footprint,
    )


def _sample(name, best, *, mpki=1.0, idle=0.9, sessions=50.0, footprint=100.0,
            energies=None):
    if energies is None:
        energies = {best: 1.0, "other": 2.0}
    return TunerSample(
        name=name,
        features=_features(mpki, idle, sessions, footprint),
        best_key=best,
        energies=energies,
    )


class TestWorkloadFeatures:
    def test_vector_log_compresses_heavy_tails(self):
        vec = _features(mpki=100.0, footprint=1000.0).vector()
        assert vec[0] == pytest.approx(2.0)
        assert vec[3] == pytest.approx(3.0)
        assert len(vec) == len(FEATURES)

    def test_round_trips_through_dict(self):
        f = _features()
        assert WorkloadFeatures(**f.as_dict()) == f

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            _features(mpki=0.0)
        with pytest.raises(ConfigurationError, match="positive"):
            _features(footprint=-1.0)
        with pytest.raises(ConfigurationError, match="idle_fraction"):
            _features(idle=0.0)
        with pytest.raises(ConfigurationError, match="idle_fraction"):
            _features(idle=1.5)
        with pytest.raises(ConfigurationError, match="sessions_per_day"):
            _features(sessions=0.0)


class TestTunerSample:
    def test_regret_is_relative_excess_over_best(self):
        sample = _sample("a", "cheap", energies={"cheap": 10.0, "dear": 12.5})
        assert sample.regret("cheap") == 0.0
        assert sample.regret("dear") == pytest.approx(0.25)

    def test_best_key_must_be_on_surface(self):
        with pytest.raises(ConfigurationError, match="not on its energy surface"):
            _sample("a", "missing", energies={"present": 1.0})

    def test_regret_of_off_surface_point_rejected(self):
        sample = _sample("a", "cheap", energies={"cheap": 1.0})
        with pytest.raises(ConfigurationError, match="not on its energy surface"):
            sample.regret("ghost")


class TestOracleRecovery:
    """k=1 on well-separated features is an exact analytic oracle."""

    # Three workloads far apart in feature space, each with a distinct
    # known-best operating point.  All samples price the same grid keys
    # (as real sweeps do), so leave-one-out regret is always defined.
    SAMPLES = [
        _sample("idle-phone", "t6/p1.024", mpki=0.1, idle=0.99, sessions=5.0,
                footprint=10.0,
                energies={"t6/p1.024": 1.0, "t4/p0.512": 2.0, "t4/p0.256": 3.0}),
        _sample("commuter", "t4/p0.512", mpki=2.0, idle=0.9, sessions=60.0,
                footprint=200.0,
                energies={"t6/p1.024": 2.6, "t4/p0.512": 2.0, "t4/p0.256": 2.4}),
        _sample("gamer", "t4/p0.256", mpki=20.0, idle=0.5, sessions=200.0,
                footprint=2000.0,
                energies={"t6/p1.024": 9.0, "t4/p0.512": 6.0, "t4/p0.256": 5.0}),
    ]

    def test_in_sample_predictions_are_exact(self):
        tuner = PolicyTuner(k=1).fit(self.SAMPLES)
        for sample in self.SAMPLES:
            assert tuner.predict(sample.features) == sample.best_key

    def test_nearby_probe_snaps_to_nearest_workload(self):
        tuner = PolicyTuner(k=1).fit(self.SAMPLES)
        near_gamer = _features(mpki=15.0, idle=0.55, sessions=180.0,
                               footprint=1500.0)
        assert tuner.predict(near_gamer) == "t4/p0.256"

    def test_report_card_prices_misses_with_regret(self):
        tuner = PolicyTuner(k=1).fit(self.SAMPLES)
        card = tuner.report_card()
        assert [row["workload"] for row in card] == [
            "commuter", "gamer", "idle-phone",
        ]
        for row in card:
            assert row["regret"] >= 0.0
            assert row["hit"] == (row["best"] == row["predicted"])
            # A hit costs nothing, by the regret definition.
            if row["hit"]:
                assert row["regret"] == 0.0

    def test_majority_vote_with_k3(self):
        # Two samples vote for the same point; k=3 must pick it even if
        # the single dissenter is closest.
        samples = [
            _sample("a", "shared", idle=0.90,
                    energies={"shared": 1.0, "solo": 2.0}),
            _sample("b", "shared", idle=0.92,
                    energies={"shared": 1.0, "solo": 2.0}),
            _sample("c", "solo", idle=0.91,
                    energies={"shared": 2.0, "solo": 1.0}),
        ]
        tuner = PolicyTuner(k=3).fit(samples)
        assert tuner.predict(_features(idle=0.91)) == "shared"

    def test_neighbours_sorted_by_distance_then_name(self):
        tuner = PolicyTuner(k=1).fit(self.SAMPLES)
        ranked = tuner.neighbours(self.SAMPLES[0].features)
        distances = [d for d, _ in ranked]
        assert distances == sorted(distances)
        assert ranked[0][1].name == "idle-phone"
        assert math.isclose(ranked[0][0], 0.0, abs_tol=1e-12)


class TestValidationAndSerialization:
    def test_k_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            PolicyTuner(k=0)

    def test_fit_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            PolicyTuner().fit([])
        with pytest.raises(ConfigurationError, match="unique"):
            PolicyTuner().fit([_sample("a", "other"), _sample("a", "other")])

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ConfigurationError, match="not fitted"):
            PolicyTuner().predict(_features())

    def test_round_trips_through_dict_and_file(self, tmp_path):
        tuner = PolicyTuner(k=1).fit(TestOracleRecovery.SAMPLES)
        clone = PolicyTuner.from_dict(tuner.to_dict())
        assert clone.k == tuner.k
        assert [s.name for s in clone.samples] == [s.name for s in tuner.samples]
        for sample in TestOracleRecovery.SAMPLES:
            assert clone.predict(sample.features) == sample.best_key

        path = tmp_path / "tuner.json"
        tuner.save(path)
        assert PolicyTuner.load(path).to_dict() == tuner.to_dict()

    def test_bad_kind_or_schema_rejected(self):
        good = PolicyTuner(k=1).fit(TestOracleRecovery.SAMPLES).to_dict()
        for tweak in ({"kind": "not-a-tuner"}, {"schema": 99}):
            with pytest.raises(ConfigurationError, match="dse-tuner artifact"):
                PolicyTuner.from_dict({**good, **tweak})


class TestTrainingPipeline:
    GRID = GridSpec(
        ecc_strength=(4, 6),
        refresh_period_s=(0.256, 1.024),
        threshold_mpkc=(2.0,),
        mdt_entries=(1024,),
    )

    def test_unknown_persona_in_reports_lists_choices(self):
        with pytest.raises(ConfigurationError, match="choose from"):
            build_training_set({"martian": None})

    def test_trained_tuner_recovers_each_persona_in_sample(self):
        personas = tuple(
            ALL_PERSONAS_BY_NAME[name] for name in ("light", "heavy")
        )
        tuner, reports = train_tuner(
            grid=self.GRID,
            personas=personas,
            run=ScaledRun(instructions=20_000),
        )
        assert set(reports) == {"light", "heavy"}
        for sample in tuner.samples:
            assert tuner.predict(sample.features) == sample.best_key
            assert sample.regret(sample.best_key) == 0.0
        # Every sample's surface covers the whole grid.
        for sample in tuner.samples:
            assert len(sample.energies) == self.GRID.size
        # The exact surfaces: ECC strength moves no energy on this grid,
        # so t4 at the long period is best and t6 holds the frontier.
        for name, (short, long) in {
            "light": (237.958102535, 200.451319251),
            "heavy": (274.450504463, 241.919110799),
        }.items():
            report = reports[name]
            assert report.energies() == pytest.approx({
                f"mecc+smd/t{t}/p{p}/th2/mdt1024": e
                for t in (4, 6)
                for p, e in ((0.256, short), (1.024, long))
            }, rel=1e-9)
            assert report.best_key() == "mecc+smd/t4/p1.024/th2/mdt1024"
            assert report.frontier_keys == (
                "mecc+smd/t6/p0.256/th2/mdt1024",
                "mecc+smd/t6/p1.024/th2/mdt1024",
            )
            assert report.knee_key == "mecc+smd/t6/p0.256/th2/mdt1024"
