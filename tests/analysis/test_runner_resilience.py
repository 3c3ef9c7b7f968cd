"""Failure-path tests for the resilient experiment runner.

Covers the crash-safety contract: a raising worker, a wall-clock
timeout, a worker pool dying mid-sweep, resuming through the result
cache, and corrupt-cache quarantine.  Worker-killing fakes live at module top level
so they pickle to pool processes, and only ever kill *worker* processes
(``multiprocessing.parent_process()`` guard).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.analysis import runner as runner_mod
from repro.analysis.runner import (
    CACHE_SCHEMA,
    ExperimentRunner,
    JobSpec,
    ResultCache,
    configure_runner,
    execute_job,
)
from repro.errors import ConfigurationError, JobExecutionError, JobTimeoutError
from repro.sim.system import ScaledRun, SystemConfig
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=20_000)
POVRAY = BENCHMARKS_BY_NAME["povray"]
LIBQ = BENCHMARKS_BY_NAME["libq"]
SPHINX = BENCHMARKS_BY_NAME["sphinx"]


def spec_for(policy: str, benchmark=POVRAY) -> JobSpec:
    return JobSpec.build(benchmark, RUN, policy)


@pytest.fixture(autouse=True)
def _restore_runner():
    yield
    configure_runner(jobs=1, cache_dir=None)


def _sleep_on_secded(spec):
    """Pool fake: hang 'secded' jobs long past any test timeout."""
    if spec.policy == "secded":
        time.sleep(60)
    return execute_job(spec)


def _die_on_secded(spec):
    """Pool fake: hard-kill the *worker* on 'secded' jobs; the serial
    fallback (parent process) computes them normally."""
    if spec.policy == "secded" and multiprocessing.parent_process() is not None:
        os._exit(3)
    return execute_job(spec)


def _fail_on_baseline(spec):
    """Serial fake: 'baseline' jobs fail, everything else runs."""
    if spec.policy == "baseline":
        raise RuntimeError("interrupted")
    return execute_job(spec)


def _flaky(spec):
    """Serial fake: fail each job once, succeed on the retry."""
    marker = _flaky.dir / f"{spec.policy}.attempted"
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError("transient failure")
    return execute_job(spec)


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(timeout_s=0)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(retries=-1)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(retry_backoff_s=-0.1)

    def test_timeout_error_is_an_execution_error(self):
        assert issubclass(JobTimeoutError, JobExecutionError)

    def test_configure_runner_threads_the_knobs(self, tmp_path):
        runner = configure_runner(
            jobs=2,
            cache_dir=tmp_path,
            timeout_s=5.0,
            retries=2,
            start_method="spawn",
        )
        assert runner.jobs == 2
        assert runner.cache.root == tmp_path
        assert runner.timeout_s == 5.0
        assert runner.retries == 2
        assert runner.start_method == "spawn"


class TestWorkerFailure:
    def test_raising_job_aggregates_after_healthy_jobs_finish(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        good = spec_for("mecc")
        bad = spec_for("bogus-policy")
        with pytest.raises(JobExecutionError) as excinfo:
            runner.run([good, bad])
        assert len(excinfo.value.failures) == 1
        assert "bogus-policy" in str(excinfo.value)
        # The healthy job completed, was cached, and is resumable.
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        assert warm.run([good])[good].cached
        statuses = {r.policy: r.status for r in runner.records}
        assert statuses == {"mecc": "ok", "bogus-policy": "failed"}
        assert runner.manifest()["totals"]["failed_jobs"] == 1

    def test_retries_recover_transient_failures(self, tmp_path, monkeypatch):
        _flaky.dir = tmp_path
        monkeypatch.setattr(runner_mod, "execute_job", _flaky)
        runner = ExperimentRunner(jobs=1, retries=1, retry_backoff_s=0.0)
        spec = spec_for("mecc")
        outcomes = runner.run([spec])
        assert outcomes[spec].result.instructions >= RUN.instructions
        assert runner.records[0].status == "ok"

    def test_retries_exhausted_reports_the_last_error(self, tmp_path):
        runner = ExperimentRunner(jobs=1, retries=2, retry_backoff_s=0.0)
        with pytest.raises(JobExecutionError) as excinfo:
            runner.run([spec_for("bogus-policy")])
        assert "3 attempt(s)" in str(excinfo.value)


class TestTimeout:
    def test_hung_job_times_out_and_pool_is_killed(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_job", _sleep_on_secded)
        runner = ExperimentRunner(jobs=2, timeout_s=1.0)
        fast = spec_for("mecc")
        hung = spec_for("secded")
        start = time.perf_counter()
        with pytest.raises(JobExecutionError) as excinfo:
            runner.run([fast, hung])
        assert time.perf_counter() - start < 30
        assert runner.timeouts == 1
        assert isinstance(excinfo.value.failures[0][1], JobTimeoutError)
        statuses = {r.policy: r.status for r in runner.records}
        assert statuses["secded"] == "timeout"
        assert statuses["mecc"] == "ok"


class TestBrokenPool:
    def test_dead_worker_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_job", _die_on_secded)
        runner = ExperimentRunner(jobs=2)
        specs = [spec_for("mecc"), spec_for("secded"), spec_for("mecc", LIBQ)]
        outcomes = runner.run(specs)
        assert runner.pool_failures >= 1
        assert runner._pool_broken
        # Bit-identical to a clean serial run despite the pool death.
        reference = ExperimentRunner(jobs=1).run(specs)
        for spec in specs:
            assert (
                outcomes[spec].result.to_dict()
                == reference[spec].result.to_dict()
            )
        assert all(r.status == "ok" for r in runner.records)
        assert runner.manifest()["resilience"]["serial_fallback"] is True


class TestCacheResume:
    """The result cache is the runner's only resume: re-running a sweep
    over the same cache directory serves finished jobs and runs the rest."""

    def specs(self):
        return [
            spec_for("mecc"),
            spec_for("baseline"),
            spec_for("mecc", LIBQ),
            spec_for("baseline", SPHINX),
        ]

    def test_interrupted_sweep_resumes_with_identical_results(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = self.specs()

        # "Interrupted" sweep: only the first two jobs ever ran.
        ExperimentRunner(jobs=1, cache=ResultCache(cache_dir)).run(specs[:2])

        # A fresh runner over the same cache runs exactly the other two.
        resumed = ExperimentRunner(jobs=1, cache=ResultCache(cache_dir))
        outcomes = resumed.run(specs)
        sources = [r.source for r in resumed.records]
        assert sources.count("cache") == 2
        assert sources.count("run") == 2
        assert all(r.status == "ok" for r in resumed.records)

        # And the merged result set matches an uninterrupted sweep.
        clean = ExperimentRunner(jobs=1).run(specs)
        for spec in specs:
            assert (
                outcomes[spec].result.to_dict() == clean[spec].result.to_dict()
            )

    def test_failed_job_reruns(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        good, flaky = spec_for("mecc"), spec_for("baseline")
        monkeypatch.setattr(runner_mod, "execute_job", _fail_on_baseline)
        first = ExperimentRunner(jobs=1, cache=ResultCache(cache_dir))
        with pytest.raises(JobExecutionError):
            first.run([good, flaky])
        monkeypatch.undo()

        resumed = ExperimentRunner(jobs=1, cache=ResultCache(cache_dir))
        outcomes = resumed.run([good, flaky])
        sources = {r.policy: (r.source, r.status) for r in resumed.records}
        assert sources == {"mecc": ("cache", "ok"), "baseline": ("run", "ok")}
        clean = ExperimentRunner(jobs=1).run([flaky])[flaky]
        assert outcomes[flaky].result == clean.result

    def test_manifest_written_atomically(self, tmp_path, monkeypatch):
        """write_manifest goes through tmp+rename: dying mid-write leaves
        the previous complete manifest intact."""
        target = tmp_path / "manifest.json"
        runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
        runner.run([spec_for("mecc")])
        runner.write_manifest(target)
        before = target.read_text()

        def _torn_dump(obj, stream, **kwargs):
            stream.write('{"torn')
            raise OSError("disk full mid-write")

        monkeypatch.setattr(runner_mod.json, "dump", _torn_dump)
        with pytest.raises(OSError):
            runner.write_manifest(target)
        monkeypatch.undo()
        # The visible manifest is the old, complete one.
        assert target.read_text() == before

    def test_entry_with_backend_field_is_a_hit(self, tmp_path):
        """Schema-3 entries written while the runner still recorded a
        codec backend load as hits; the field is ignored."""
        spec = spec_for("mecc")
        original = ExperimentRunner(
            jobs=1, cache=ResultCache(tmp_path)
        ).run([spec])[spec]
        entry = next(tmp_path.rglob("*.json"))
        payload = json.loads(entry.read_text())
        assert "backend" not in payload
        payload["backend"] = "matrix"
        body = {k: v for k, v in payload.items() if k != "checksum"}
        payload["checksum"] = runner_mod._payload_checksum(body)
        entry.write_text(json.dumps(payload))

        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        outcome = runner.run([spec])[spec]
        assert outcome.cached
        assert outcome.result == original.result
        assert cache.hits == 1 and cache.quarantined == 0
        assert "backend" not in runner.manifest()["jobs"][0]

    @pytest.mark.parametrize(
        "flags",
        [["--codec-backend", "matrix"], ["--checkpoint", "x"], ["--resume", "x"]],
    )
    def test_removed_flags_are_usage_errors(self, flags):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig14", "--instructions", "5000", *flags])
        assert excinfo.value.code == 2


class TestQuarantine:
    def _single_entry(self, cache_root):
        entries = [
            p
            for p in cache_root.rglob("*.json")
            if "_quarantine" not in p.parts
        ]
        assert len(entries) == 1
        return entries[0]

    def test_tampered_entry_is_quarantined_and_recomputed(self, tmp_path):
        spec = spec_for("mecc")
        cache = ResultCache(tmp_path)
        original = ExperimentRunner(jobs=1, cache=cache).run([spec])[spec]

        # Hand-corrupt the payload but keep schema/key valid JSON.
        entry = self._single_entry(tmp_path)
        payload = json.loads(entry.read_text())
        payload["result"]["instructions"] = -1
        entry.write_text(json.dumps(payload))

        fresh_cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=fresh_cache)
        recomputed = runner.run([spec])[spec]
        assert not recomputed.cached
        assert fresh_cache.quarantined == 1
        assert recomputed.result.to_dict() == original.result.to_dict()
        quarantined = list((tmp_path / "_quarantine").iterdir())
        assert [p.name for p in quarantined] == [entry.name]
        # The recomputed entry replaced the corrupt one and hits again.
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        assert warm.run([spec])[spec].cached

    def test_undecodable_entry_is_quarantined(self, tmp_path):
        spec = spec_for("mecc")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec])
        entry = self._single_entry(tmp_path)
        entry.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec.key()) is None
        assert fresh.quarantined == 1
        assert not entry.exists()

    def test_non_object_entry_is_quarantined(self, tmp_path):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        entry = self._single_entry(tmp_path)
        entry.write_text(json.dumps([1, 2, 3]))
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec.key()) is None
        assert fresh.quarantined == 1

    def test_quarantine_dir_is_bounded_oldest_first(self, tmp_path):
        """The quarantine holding pen caps out: beyond max_quarantine
        entries the oldest are evicted (by mtime), the eviction is
        counted, and loads keep succeeding."""
        cache = ResultCache(tmp_path, max_quarantine=3)
        for i in range(5):
            key = f"{i:02d}feedface"
            path = cache._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{corrupt")
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            assert cache.load(key) is None
        kept = sorted(p.name for p in (tmp_path / "_quarantine").iterdir())
        assert len(kept) == 3
        assert cache.quarantined == 5
        assert cache.quarantine_evicted == 2
        # Eviction is oldest-first: the two earliest entries are gone.
        assert "00feedface.json" not in kept
        assert "01feedface.json" not in kept

    def test_quarantine_bound_in_manifest_and_validation(self, tmp_path):
        cache = ResultCache(tmp_path, max_quarantine=1)
        runner = ExperimentRunner(jobs=1, cache=cache)
        assert runner.manifest()["cache"]["quarantine_evicted"] == 0
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, max_quarantine=0)

    def test_stale_schema_is_a_plain_miss_not_quarantine(self, tmp_path):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        entry = self._single_entry(tmp_path)
        payload = json.loads(entry.read_text())
        payload["schema"] = CACHE_SCHEMA - 1
        entry.write_text(json.dumps(payload))
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec.key()) is None
        assert fresh.quarantined == 0
        assert entry.exists()

    def test_stored_entries_carry_a_valid_checksum(self, tmp_path):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        entry = self._single_entry(tmp_path)
        payload = json.loads(entry.read_text())
        body = {k: v for k, v in payload.items() if k != "checksum"}
        assert payload["checksum"] == runner_mod._payload_checksum(body)
