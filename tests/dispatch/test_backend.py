"""DispatchBackend end-to-end: real coordinator, real worker subprocesses.

These are the slowest dispatch tests (each spawns Python workers), so
they stay few and small: a happy-path sweep, graceful unavailability,
and the runner-level fallback contract.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import (
    ExperimentRunner,
    JobSpec,
    configure_runner,
    execute_job,
)
from repro.dispatch import DispatchBackend, DispatchConfig
from repro.errors import ConfigurationError, DispatchUnavailableError
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=3000)


@pytest.fixture(autouse=True)
def _restore_runner():
    yield
    configure_runner(jobs=1, cache_dir=None)


def specs(n: int = 4) -> list[JobSpec]:
    grid = [
        (bench, policy)
        for bench in ("libq", "milc")
        for policy in ("mecc", "secded")
    ]
    return [
        JobSpec.build(BENCHMARKS_BY_NAME[bench], RUN, policy)
        for bench, policy in grid[:n]
    ]


def fast_config(**overrides) -> DispatchConfig:
    values = {
        "workers": 2,
        "lease_s": 2.0,
        "heartbeat_s": 0.5,
        "worker_wait_s": 30.0,
    }
    values.update(overrides)
    return DispatchConfig(**values)


class TestExecute:
    def test_sweep_commits_every_job_bit_identically(self):
        jobs = specs()
        pending = list(enumerate(jobs))
        harvested = {}

        def harvest(index, triple):
            harvested[index] = triple

        backend = DispatchBackend(fast_config())
        failed, leftover = backend.execute(pending, harvest)
        assert failed == [] and leftover == []
        assert sorted(harvested) == [0, 1, 2, 3]
        # Payloads match an in-process run of the same spec exactly.
        for index, spec in enumerate(jobs):
            local_result, local_disabled, _, _ = execute_job(spec)
            result, disabled, wall_s, _ = harvested[index]
            assert result.to_dict() == local_result.to_dict()
            assert disabled == local_disabled
            assert wall_s > 0
        summary = backend.summary
        assert summary["commits"] == 4
        assert summary["state_done"] == 4
        assert summary["workers_joined"] >= 1
        assert summary["workers_lost"] == 0

    def test_faulted_worker_takes_a_lease_before_healthy_peers_join(self):
        """A healthy peer must not drain the sweep before an injected
        fault fires: the flaky worker holds the first lease, so its
        failure always happens and is retried to a bit-identical result."""
        jobs = specs()
        harvested = {}

        def harvest(index, triple):
            harvested[index] = triple

        backend = DispatchBackend(fast_config(worker_faults=(("flaky", 1.0),)))
        failed, leftover = backend.execute(list(enumerate(jobs)), harvest)
        assert failed == [] and leftover == []
        assert sorted(harvested) == [0, 1, 2, 3]
        summary = backend.summary
        assert summary["retried_failures"] == 1
        faulted = next(
            w for w in summary["workers"] if w["worker_id"] == "local-0"
        )
        assert faulted["failures"] == 1
        for index, spec in enumerate(jobs):
            assert (
                harvested[index][0].to_dict()
                == execute_job(spec)[0].to_dict()
            )

    def test_unbindable_address_is_unavailable_not_a_crash(self):
        backend = DispatchBackend(
            fast_config(host="203.0.113.1", port=1, worker_wait_s=2.0)
        )
        with pytest.raises(DispatchUnavailableError):
            backend.execute(list(enumerate(specs(1))), lambda i, t: None)

    def test_no_worker_ever_connecting_is_unavailable(self):
        # workers=0 spawns nothing; nothing external connects either.
        backend = DispatchBackend(fast_config(workers=0, worker_wait_s=0.5))
        with pytest.raises(DispatchUnavailableError):
            backend.execute(list(enumerate(specs(1))), lambda i, t: None)


class TestRunnerIntegration:
    def test_runner_dispatch_backend_end_to_end(self):
        jobs = specs(2)
        runner = ExperimentRunner(
            jobs=1, backend="dispatch", dispatch=fast_config()
        )
        outcomes = runner.run(jobs)
        assert all(spec in outcomes for spec in jobs)
        local = ExperimentRunner(jobs=1).run(jobs)
        for spec in jobs:
            assert (
                outcomes[spec].result.to_dict() == local[spec].result.to_dict()
            )
        manifest = runner.manifest()
        assert manifest["parallelism"]["backend"] == "dispatch"
        assert manifest["dispatch"]["fallbacks"] == 0
        assert manifest["dispatch"]["summary"]["commits"] == 2

    def test_unavailable_dispatch_falls_back_to_local_once(self):
        jobs = specs(2)
        runner = ExperimentRunner(
            jobs=1,
            backend="dispatch",
            dispatch=fast_config(workers=0, worker_wait_s=0.2),
        )
        outcomes = runner.run(jobs)
        # Every job still completed — locally.
        assert all(spec in outcomes for spec in jobs)
        assert runner.dispatch_fallbacks == 1
        assert runner.manifest()["dispatch"]["fallbacks"] == 1
        # A second sweep doesn't retry the dead infrastructure.
        more = specs(3)[2:]
        runner.run(more)
        assert runner.dispatch_fallbacks == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(backend="carrier-pigeon")

    def test_env_selects_the_backend(self, monkeypatch):
        import repro.analysis.runner as runner_mod

        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "dispatch")
        monkeypatch.setattr(runner_mod, "_default_runner", None)
        runner = runner_mod.get_runner()
        assert runner.backend == "dispatch"
