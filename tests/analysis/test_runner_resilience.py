"""Failure-path tests for the resilient experiment runner.

Covers the crash-safety contract: a raising worker, a wall-clock
timeout, a worker pool dying mid-sweep, resuming through the result
cache, and corrupt-cache quarantine.  Worker-killing fakes live at module top level
so they pickle to pool processes, and only ever kill *worker* processes
(``multiprocessing.parent_process()`` guard).
"""

from __future__ import annotations

import dataclasses
import hashlib
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


def _segments(cache_root):
    """The segment logs this code version has in ``cache_root``."""
    return sorted(ResultCache(cache_root).segment_dir.glob("*.log"))


def _new_segment(cache_root):
    """Path of a hand-written foreign segment, older than any stored one."""
    directory = ResultCache(cache_root).segment_dir
    directory.mkdir(parents=True, exist_ok=True)
    return directory / "0000000000000001-1-00000000.log"


def _single_entry(cache_root):
    """The cache's only segment and its only entry: (segment, key, payload)."""
    segments = _segments(cache_root)
    assert len(segments) == 1
    lines = segments[0].read_bytes().splitlines()
    assert len(lines) == 1
    key, _digest, body = lines[0].split(b" ", 2)
    return segments[0], key.decode(), json.loads(body)


def _write_entry(segment, key: str, body: bytes, digest: str | None = None):
    """Make ``segment`` hold one entry line; the digest defaults to the
    body's own, so the line passes the checksum."""
    digest = digest or hashlib.sha256(body).hexdigest()
    segment.write_bytes(b"%s %s %s\n" % (key.encode(), digest.encode(), body))


def _append_and_read(root, worker: int, workers: int, count: int) -> None:
    """Stress worker: append entries while reading the other workers'.

    Exits 3 if any line it read failed its checks."""
    cache = ResultCache(root)
    for i in range(count):
        key = f"{worker:02d}{i:062d}"
        cache.store(
            key, {"schema": CACHE_SCHEMA, "key": key, "result": {"w": worker}}
        )
        for other in range(workers):
            cache.load(f"{other:02d}{i:062d}")
    os._exit(3 if cache.quarantined else 0)


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
        """Entries written while the runner still recorded a codec
        backend load as hits; the field is ignored."""
        spec = spec_for("mecc")
        original = ExperimentRunner(
            jobs=1, cache=ResultCache(tmp_path)
        ).run([spec])[spec]
        segment, key, payload = _single_entry(tmp_path)
        assert "backend" not in payload
        payload["backend"] = "matrix"
        _write_entry(segment, key, json.dumps(payload).encode())

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
    def test_tampered_entry_is_quarantined_and_recomputed(self, tmp_path):
        spec = spec_for("mecc")
        cache = ResultCache(tmp_path)
        original = ExperimentRunner(jobs=1, cache=cache).run([spec])[spec]

        # Hand-corrupt the payload but keep the line's old digest.
        segment, key, payload = _single_entry(tmp_path)
        digest = segment.read_bytes().split(b" ")[1].decode()
        payload["result"]["instructions"] = -1
        _write_entry(segment, key, json.dumps(payload).encode(), digest)

        fresh_cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=fresh_cache)
        recomputed = runner.run([spec])[spec]
        assert not recomputed.cached
        assert fresh_cache.quarantined == 1
        assert recomputed.result.to_dict() == original.result.to_dict()
        quarantined = list((tmp_path / "_quarantine").iterdir())
        assert [p.name for p in quarantined] == [f"{key}.line"]
        assert quarantined[0].read_bytes().split(b" ")[1].decode() == digest
        # The corrupt line's key is blanked in place.
        assert segment.read_bytes().startswith(b"-" * len(key) + b" ")
        # The recomputed entry replaced the corrupt one and hits again.
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        assert warm.run([spec])[spec].cached

    def test_quarantined_line_is_superseded_by_its_recomputed_entry(
        self, tmp_path
    ):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        segment, key, payload = _single_entry(tmp_path)
        _write_entry(segment, key, json.dumps(payload).encode(), "0" * 64)

        second = ResultCache(tmp_path)
        assert not ExperimentRunner(jobs=1, cache=second).run([spec])[spec].cached
        assert second.quarantined == 1
        assert len(_segments(tmp_path)) == 2

        third = ResultCache(tmp_path)
        assert ExperimentRunner(jobs=1, cache=third).run([spec])[spec].cached
        assert (third.hits, third.quarantined) == (1, 0)

    def test_undecodable_entry_is_quarantined(self, tmp_path):
        spec = spec_for("mecc")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec])
        segment, key, _ = _single_entry(tmp_path)
        _write_entry(segment, key, b"{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec.key()) is None
        assert fresh.quarantined == 1
        assert segment.read_bytes().startswith(b"-" * len(key) + b" ")
        assert ResultCache(tmp_path).load(spec.key()) is None
        assert (tmp_path / "_quarantine" / f"{key}.line").is_file()

    def test_non_object_entry_is_quarantined(self, tmp_path):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        segment, key, _ = _single_entry(tmp_path)
        _write_entry(segment, key, json.dumps([1, 2, 3]).encode())
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec.key()) is None
        assert fresh.quarantined == 1

    def test_quarantine_dir_is_bounded_oldest_first(self, tmp_path):
        """The quarantine holding pen caps out: beyond max_quarantine
        entries the oldest are evicted (by mtime), the eviction is
        counted, and loads keep succeeding."""
        keys = [f"{i:02d}feedface" for i in range(5)]
        _new_segment(tmp_path).write_bytes(b"".join(
            b"%s %s {corrupt\n" % (key.encode(), b"0" * 64) for key in keys
        ))
        cache = ResultCache(tmp_path, max_quarantine=3)
        for i, key in enumerate(keys):
            assert cache.load(key) is None
            line = tmp_path / "_quarantine" / f"{key}.line"
            if line.exists():
                os.utime(line, (1_000_000 + i, 1_000_000 + i))
        kept = sorted(p.name for p in (tmp_path / "_quarantine").iterdir())
        assert len(kept) == 3
        assert cache.quarantined == 5
        assert cache.quarantine_evicted == 2
        # Eviction is oldest-first: the two earliest entries are gone.
        assert "00feedface.line" not in kept
        assert "01feedface.line" not in kept

    def test_quarantine_bound_in_manifest_and_validation(self, tmp_path):
        cache = ResultCache(tmp_path, max_quarantine=1)
        runner = ExperimentRunner(jobs=1, cache=cache)
        assert runner.manifest()["cache"]["quarantine_evicted"] == 0
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, max_quarantine=0)

    def test_stale_schema_is_a_plain_miss_not_quarantine(self, tmp_path):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        segment, key, payload = _single_entry(tmp_path)
        payload["schema"] = CACHE_SCHEMA - 1
        _write_entry(segment, key, json.dumps(payload).encode())
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec.key()) is None
        assert fresh.quarantined == 0
        assert segment.read_bytes().startswith(key.encode())

    def test_stored_entries_carry_a_valid_checksum(self, tmp_path):
        spec = spec_for("mecc")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([spec])
        segment, key, _ = _single_entry(tmp_path)
        line = segment.read_bytes()
        assert line.endswith(b"\n")
        stored_key, digest, body = line[:-1].split(b" ", 2)
        assert stored_key.decode() == key == spec.key()
        assert digest.decode() == hashlib.sha256(body).hexdigest()


class TestSegments:
    """The append-only segment layout under crashes, sharing and pools."""

    def test_torn_final_line_is_never_indexed(self, tmp_path):
        done, later = spec_for("mecc"), spec_for("baseline")
        ExperimentRunner(jobs=1, cache=ResultCache(tmp_path)).run([done])
        segment, key, payload = _single_entry(tmp_path)
        # A writer died mid-line: the tail has no newline.
        torn_key = later.key()
        whole = json.dumps(dict(payload, key=torn_key)).encode()
        with open(segment, "ab") as stream:
            stream.write(b"%s %s %s" % (
                torn_key.encode(),
                hashlib.sha256(whole).hexdigest().encode(),
                whole[: len(whole) // 2],
            ))

        cache = ResultCache(tmp_path)
        assert cache.load(torn_key) is None
        assert cache.load(key) is not None
        assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 0)
        # A later runner still stores and loads around the torn tail.
        runner = ExperimentRunner(jobs=1, cache=cache)
        assert not runner.run([later])[later].cached
        fresh = ResultCache(tmp_path)
        outcomes = ExperimentRunner(jobs=1, cache=fresh).run([done, later])
        assert all(outcome.cached for outcome in outcomes.values())
        assert fresh.quarantined == 0

    def test_malformed_line_is_quarantined(self, tmp_path):
        segment = _new_segment(tmp_path)
        segment.write_bytes(b"nodigest\nkey only-a-digest\n")
        cache = ResultCache(tmp_path)
        assert cache.load("nodigest") is None
        assert cache.load("key") is None
        assert cache.quarantined == 2
        assert segment.read_bytes() == b"--------\n--- only-a-digest\n"
        assert ResultCache(tmp_path).load("key") is None

    def test_two_instances_see_each_others_entries_after_a_miss(self, tmp_path):
        payloads = {
            name: {"schema": CACHE_SCHEMA, "key": name * 32, "result": {"n": i}}
            for i, name in enumerate(("a1", "b2", "c3"))
        }
        first, second = ResultCache(tmp_path), ResultCache(tmp_path)
        first.store("a1" * 32, payloads["a1"])
        second.store("b2" * 32, payloads["b2"])
        assert len(_segments(tmp_path)) == 2
        assert first.load("b2" * 32) == payloads["b2"]
        assert second.load("a1" * 32) == payloads["a1"]
        # A store after the other instance's scan still shows up there.
        first.store("c3" * 32, payloads["c3"])
        assert second.load("c3" * 32) == payloads["c3"]
        assert (first.hits, second.hits) == (1, 2)

    def test_concurrent_appenders_and_readers(self, tmp_path):
        """More writer processes than cores append to their own segments
        while scanning each other's: no reader ever sees a bad line, and
        every entry is loadable afterwards."""
        workers, count = 4, 40
        context = multiprocessing.get_context("spawn")
        procs = [
            context.Process(
                target=_append_and_read, args=(tmp_path, w, workers, count)
            )
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive()
        assert [proc.exitcode for proc in procs] == [0] * workers
        assert len(_segments(tmp_path)) == workers
        cache = ResultCache(tmp_path)
        for w in range(workers):
            for i in range(count):
                assert cache.load(f"{w:02d}{i:062d}")["result"] == {"w": w}
        assert (cache.hits, cache.quarantined) == (workers * count, 0)

    def test_pool_run_stores_each_entry_once_from_the_parent(self, tmp_path):
        specs = [spec_for("mecc"), spec_for("baseline"), spec_for("mecc", LIBQ)]
        runner = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path))
        outcomes = runner.run(specs)
        assert runner.manifest()["resilience"]["serial_fallback"] is False
        segments = _segments(tmp_path)
        assert len(segments) == 1
        assert f"-{os.getpid()}-" in segments[0].name
        keys = [
            line.split(b" ", 1)[0].decode()
            for line in segments[0].read_bytes().splitlines()
        ]
        assert sorted(keys) == sorted(o.key for o in outcomes.values())
