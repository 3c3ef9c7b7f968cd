"""Decorrelated-jitter backoff: bounds, determinism, runner integration.

The runner's retry loop replaced deterministic exponential doubling with
decorrelated jitter (``min(cap, U(base, 3 * last))``) so synchronized
failures do not retry in lockstep.  RNG and sleep are injectable, so
every assertion here is exact and nothing actually sleeps.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import runner as runner_mod
from repro.analysis.backoff import DecorrelatedJitter
from repro.analysis.runner import ExperimentRunner, JobSpec, configure_runner
from repro.errors import ConfigurationError
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=20_000)


@pytest.fixture(autouse=True)
def _restore_runner():
    yield
    configure_runner(jobs=1, cache_dir=None)


class TestDecorrelatedJitter:
    def test_delays_stay_within_envelope(self):
        backoff = DecorrelatedJitter(0.25, 30.0, rng=random.Random(7))
        last = 0.25
        for _ in range(200):
            delay = backoff.next_delay()
            assert 0.25 <= delay <= 30.0
            assert delay <= max(last * 3, 0.25)
            last = delay

    def test_same_seed_same_sequence(self):
        first = DecorrelatedJitter(0.1, 5.0, rng=random.Random(42))
        second = DecorrelatedJitter(0.1, 5.0, rng=random.Random(42))
        assert [first.next_delay() for _ in range(20)] == [
            second.next_delay() for _ in range(20)
        ]

    def test_sequences_decorrelate_across_seeds(self):
        a = DecorrelatedJitter(0.1, 30.0, rng=random.Random(1))
        b = DecorrelatedJitter(0.1, 30.0, rng=random.Random(2))
        assert [a.next_delay() for _ in range(10)] != [
            b.next_delay() for _ in range(10)
        ]

    def test_zero_base_disables_backoff(self):
        backoff = DecorrelatedJitter(0.0, 30.0, rng=random.Random(3))
        assert [backoff.next_delay() for _ in range(5)] == [0.0] * 5

    def test_reset_restarts_the_sequence(self):
        rng = random.Random(9)
        backoff = DecorrelatedJitter(0.5, 30.0, rng=rng)
        for _ in range(10):
            backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() <= 1.5  # first draw: U(base, 3*base)

    def test_cap_is_respected_forever(self):
        backoff = DecorrelatedJitter(1.0, 2.0, rng=random.Random(11))
        assert all(backoff.next_delay() <= 2.0 for _ in range(100))

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            DecorrelatedJitter(-0.1, 1.0)
        with pytest.raises(ConfigurationError):
            DecorrelatedJitter(1.0, 0.5)


def _always_fail(spec):
    raise RuntimeError("injected permanent failure")


class TestRunnerRetryJitter:
    def test_retry_delays_are_jittered_and_deterministic(self, monkeypatch):
        """The runner's retry loop draws from the injected RNG and routes
        every delay through the injected sleep hook — no real sleeping,
        and an identical seed reproduces the exact delays."""
        monkeypatch.setattr(runner_mod, "execute_job", _always_fail)
        spec = JobSpec.build(BENCHMARKS_BY_NAME["libq"], RUN, "mecc")

        def run_with_seed(seed):
            slept = []
            runner = ExperimentRunner(
                jobs=1,
                retries=3,
                retry_backoff_s=0.25,
                backoff_rng=random.Random(seed),
                sleep=slept.append,
            )
            with pytest.raises(Exception):
                runner.run([spec])
            return slept

        first = run_with_seed(21)
        second = run_with_seed(21)
        other = run_with_seed(22)
        assert len(first) == 3  # one delay per retry attempt
        assert first == second
        assert first != other
        expected = DecorrelatedJitter(0.25, 30.0, rng=random.Random(21))
        assert first == [expected.next_delay() for _ in range(3)]

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_job", _always_fail)
        spec = JobSpec.build(BENCHMARKS_BY_NAME["libq"], RUN, "mecc")
        slept = []
        runner = ExperimentRunner(
            jobs=1, retries=2, retry_backoff_s=0.0, sleep=slept.append
        )
        with pytest.raises(Exception):
            runner.run([spec])
        assert slept == []
