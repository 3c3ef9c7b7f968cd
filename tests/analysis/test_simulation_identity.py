"""Which jobs share a simulation: ``JobSpec.canonical`` and the runner.

The canonical form resets the config fields a job's policy never reads.
These tests pin that contract field by field against ``execute_job``
(dropping a field must not change a result or an error; keeping one must
be necessary), and check that the runner then simulates each canonical
job once, also across ``run()`` calls and without a cache directory.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.runner import (
    ExperimentRunner,
    JobSpec,
    ResultCache,
    execute_job,
    trace_for,
)
from repro.dram.config import DramOrganization, DramTimings
from repro.power.params import PowerParams
from repro.sim.engine import SimulationEngine
from repro.sim.system import ScaledRun, SystemConfig
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=20_000)
BENCHMARKS = (BENCHMARKS_BY_NAME["povray"], BENCHMARKS_BY_NAME["libq"])
POLICIES = ("baseline", "secded", "ecc6", "mecc", "mecc+smd")
DEFAULT = SystemConfig()

#: A changed, valid value per SystemConfig field.
CHANGED = {
    "org": DramOrganization(banks=8),
    "timings": DramTimings(t_rcd=2 * DramTimings().t_rcd),
    "power": PowerParams(idd0=2 * PowerParams().idd0),
    "weak_decode_cycles": 9,
    "strong_decode_cycles": 45,
    "strong_t": 4,
}
#: An invalid value per scalar field.  The dataclass fields validate at
#: construction, so no spec can carry an invalid one.
INVALID = {"weak_decode_cycles": -1, "strong_decode_cycles": -1, "strong_t": -1}


def test_every_config_field_is_covered():
    assert set(CHANGED) == {f.name for f in dataclasses.fields(SystemConfig)}


def _spec(policy, benchmark, **config_fields) -> JobSpec:
    config = dataclasses.replace(DEFAULT, **config_fields)
    return JobSpec.build(benchmark, RUN, policy, config=config)


def _outcome(spec):
    """``execute_job``'s result and SMD fraction, or the error it raised."""
    try:
        result, disabled, _ = execute_job(spec)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))
    return (result.to_dict(), disabled)


def _drops(policy: str, name: str) -> bool:
    spec = _spec(policy, BENCHMARKS[0], **{name: CHANGED[name]})
    return getattr(spec.canonical().config, name) == getattr(DEFAULT, name)


@pytest.mark.parametrize("policy", POLICIES)
class TestCanonicalForm:
    def test_default_spec_is_its_own_canonical_form(self, policy):
        spec = _spec(policy, BENCHMARKS[0])
        assert spec.canonical() == spec
        assert spec.canonical().canonical() == spec

    def test_describe_keeps_every_submitted_field(self, policy):
        spec = _spec(policy, BENCHMARKS[0], power=CHANGED["power"])
        assert spec.describe()["config"] == spec.config.describe()

    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_field_identity(self, policy, name):
        """A dropped field changes no result or error; a kept one is read.

        "Read" means a changed value moves a result for some benchmark,
        or an invalid value raises (scheme construction validates it).
        """
        if _drops(policy, name):
            values = [CHANGED[name]] + ([INVALID[name]] if name in INVALID else [])
            for benchmark in BENCHMARKS:
                for value in values:
                    spec = _spec(policy, benchmark, **{name: value})
                    assert _outcome(spec) == _outcome(spec.canonical())
                    assert _outcome(spec) == _outcome(_spec(policy, benchmark))
            return
        moved = any(
            _outcome(_spec(policy, benchmark, **{name: CHANGED[name]}))
            != _outcome(_spec(policy, benchmark))
            for benchmark in BENCHMARKS
        )
        validated = name in INVALID and _outcome(
            _spec(policy, BENCHMARKS[0], **{name: INVALID[name]})
        )[0] == "raised"
        assert moved or validated


def test_only_the_smd_policy_keeps_smd_parameters():
    base = BENCHMARKS[0]
    mecc = JobSpec(base, RUN.instructions, "mecc", threshold_mpkc=2.0, quantum_cycles=9)
    assert mecc.canonical() == JobSpec(base, RUN.instructions, "mecc")
    smd = JobSpec.build(base, RUN, "mecc+smd", threshold_mpkc=2.0)
    assert smd.canonical() == smd


def test_unknown_policy_is_left_to_fail_in_execute_job():
    spec = JobSpec.build(BENCHMARKS[0], RUN, "bogus", config=SystemConfig(strong_t=4))
    assert spec.canonical() is spec


def test_baseline_with_another_decode_latency_hits(tmp_path):
    """A baseline job at another decode latency is the same simulation."""
    plain = _spec("baseline", BENCHMARKS[0])
    slower = _spec("baseline", BENCHMARKS[0], weak_decode_cycles=9)
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(jobs=1, cache=cache)
    first = runner.run([plain])[plain]
    served = runner.run([slower])[slower]
    assert served.cached and served.key == first.key
    assert served.result == first.result
    assert cache.hits == 0 and cache.misses == 1
    fresh = ResultCache(tmp_path)
    assert ExperimentRunner(jobs=1, cache=fresh).run([slower])[slower].cached
    assert fresh.hits == 1


class TestSharedSimulations:
    @pytest.fixture
    def engine_runs(self, monkeypatch):
        for benchmark in BENCHMARKS:  # calibration runs the engine too
            trace_for(benchmark, RUN.instructions)
        calls = []
        run = SimulationEngine.run

        def counting_run(engine, trace):
            calls.append(engine.policy.name)
            return run(engine, trace)

        monkeypatch.setattr(SimulationEngine, "run", counting_run)
        return calls

    @staticmethod
    def _fig12_batch(decode_cycles: int) -> list[JobSpec]:
        config = SystemConfig(strong_decode_cycles=decode_cycles)
        return [
            JobSpec.build(benchmark, RUN, policy, config=config)
            for benchmark in BENCHMARKS
            for policy in ("baseline", "secded", "ecc6", "mecc")
        ]

    def test_fig12_batch_runs_each_simulation_once(self, engine_runs):
        runner = ExperimentRunner(jobs=1, cache=None)
        first, second = self._fig12_batch(30), self._fig12_batch(45)
        outcomes = runner.run(first)
        outcomes.update(runner.run(second))
        # ECC-6 and MECC read the decode latency; baseline and SEC-DED
        # do not, so the second batch re-runs only those two per trace.
        assert len(engine_runs) == 8 + 4
        assert set(outcomes) == set(first) | set(second)
        for old, new in zip(first, second):
            if old.policy in ("baseline", "secded"):
                assert outcomes[new].result == outcomes[old].result
            else:
                assert outcomes[new].result.cycles > outcomes[old].result.cycles
        assert len(runner.records) == len(first) + len(second)
        assert runner.cache_misses == 12 and runner.cache_hits == 4

    def test_sharing_within_one_call(self, engine_runs):
        runner = ExperimentRunner(jobs=1)
        batch = self._fig12_batch(30) + self._fig12_batch(60)
        outcomes = runner.run(batch)
        assert len(engine_runs) == 12
        assert set(outcomes) == set(batch)
        assert [r.source for r in runner.records].count("run") == 12

    def test_forget_results_reruns(self, engine_runs):
        runner = ExperimentRunner(jobs=1)
        batch = self._fig12_batch(30)[:1]
        runner.run(batch)
        runner.forget_results()
        runner.run(batch)
        assert len(engine_runs) == 2
