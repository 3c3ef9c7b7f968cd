"""Tests for the parallel, cached experiment runner."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.robustness import reseeded
from repro.analysis.runner import (
    CACHE_SCHEMA,
    ExperimentRunner,
    JobSpec,
    ResultCache,
    code_fingerprint,
    execute_job,
    trace_for,
)
from repro.dram.config import DramTimings
from repro.sim.system import ScaledRun, SystemConfig
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=20_000)
POVRAY = BENCHMARKS_BY_NAME["povray"]
LIBQ = BENCHMARKS_BY_NAME["libq"]


def spec_for(policy: str, benchmark=POVRAY, config=None) -> JobSpec:
    return JobSpec.build(benchmark, RUN, policy, config=config)


class TestJobSpec:
    def test_specs_are_hashable_and_equal_by_value(self):
        assert spec_for("mecc") == spec_for("mecc")
        assert {spec_for("mecc"), spec_for("mecc")} == {spec_for("mecc")}

    def test_key_is_stable(self):
        assert spec_for("baseline").key("abc") == spec_for("baseline").key("abc")

    def test_key_varies_with_job_and_code(self):
        base = spec_for("baseline")
        keys = {
            base.key("abc"),
            base.key("xyz"),  # code change
            spec_for("mecc").key("abc"),  # policy change
            spec_for("baseline", benchmark=LIBQ).key("abc"),  # benchmark change
            spec_for(
                "baseline", config=SystemConfig(weak_decode_cycles=7)
            ).key("abc"),  # config change
            dataclasses.replace(base, instructions=40_000).key("abc"),
        }
        assert len(keys) == 6

    def test_smd_spec_carries_scaling_parameters(self):
        spec = spec_for("mecc+smd")
        assert spec.threshold_mpkc is not None
        assert spec.quantum_cycles == RUN.quantum_cycles

    def test_code_fingerprint_is_memoized_hex(self):
        tag = code_fingerprint()
        assert tag == code_fingerprint()
        int(tag, 16)


class TestResultCache:
    def test_cold_miss_then_bit_identical_hit(self, tmp_path):
        spec = spec_for("mecc")
        cold = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run([spec])[spec]
        assert not first.cached
        assert cold.cache_misses == 1

        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run([spec])[spec]
        assert second.cached
        assert warm.cache_hits == 1
        # Bit-identical round trip, floats included.
        assert second.result.to_dict() == first.result.to_dict()
        assert second.result.energy.total == first.result.energy.total

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        runner.run([spec_for("secded")])
        changed = spec_for("secded", config=SystemConfig(weak_decode_cycles=9))
        outcome = runner.run([changed])[changed]
        assert not outcome.cached
        assert cache.hits == 0 and cache.misses == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = spec_for("baseline")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec])
        (segment,) = cache.segment_dir.glob("*.log")
        segment.write_bytes(f"{spec.key()} {'0' * 64} {{not json\n".encode())
        rerun = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        assert not rerun.run([spec])[spec].cached

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        spec = spec_for("baseline")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec])
        key = spec.key()
        (segment,) = cache.segment_dir.glob("*.log")
        payload = json.loads(segment.read_bytes().split(b" ", 2)[2])
        payload["schema"] = CACHE_SCHEMA + 1
        body = json.dumps(payload).encode()
        digest = hashlib.sha256(body).hexdigest()
        segment.write_bytes(b"%s %s %s\n" % (key.encode(), digest.encode(), body))
        miss_cache = ResultCache(tmp_path)
        assert miss_cache.load(key) is None
        assert miss_cache.misses == 1


class TestCacheStoreBytes:
    """One-pass ``json.dumps`` store: the streamed encoder's bytes, in one
    appended line."""

    PAYLOAD = {
        "schema": CACHE_SCHEMA,
        "key": "ab" + "0" * 62,
        "job": {"policy": "mecc", "phases": [{"weight": 0.5}], "t": None},
        "result": {"cycles": 12345, "energy": {"refresh": 1.0000000000000002e-07}},
        "wall_s": 0.125,
        "backend": "matrix",
    }

    def test_entry_bytes_match_streamed_encoder(self, tmp_path):
        import io

        cache = ResultCache(tmp_path)
        assert not list(tmp_path.iterdir())  # no segment before a store
        key = self.PAYLOAD["key"]
        cache.store(key, self.PAYLOAD)
        streamed = io.StringIO()
        json.dump(self.PAYLOAD, streamed, sort_keys=True, separators=(",", ":"))
        body = streamed.getvalue().encode("utf-8")
        digest = hashlib.sha256(body).hexdigest().encode()
        (segment,) = cache.segment_dir.iterdir()
        assert segment.read_bytes() == b"%s %s %s\n" % (key.encode(), digest, body)
        assert cache.load(key) == self.PAYLOAD
        assert ResultCache(tmp_path).load(key) == self.PAYLOAD

    def test_store_recreates_a_removed_shard(self, tmp_path):
        """A segment directory removed under a live cache misses, the next
        store recreates it, and offsets indexed in the removed segment
        never read (or quarantine) the new one's lines."""
        import shutil

        def payload(key: str, line_length: int) -> dict:
            # Pad the result so the entry line is exactly line_length bytes.
            entry = {"schema": CACHE_SCHEMA, "key": key, "result": {"pad": ""}}
            body = json.dumps(entry, sort_keys=True, separators=(",", ":"))
            entry["result"]["pad"] = "x" * (line_length - len(body) - 131)
            assert len(body) + 131 < line_length
            return entry

        root = tmp_path / "cache"
        cache = ResultCache(root)
        first, second, third, fourth = (c * 64 for c in "abcd")
        cache.store(first, payload(first, 500))
        cache.store(second, payload(second, 300))
        shutil.rmtree(root)
        # The new segment's lines straddle the old offsets: the indexed
        # (500, 300) slice of the second entry is now the tail of the
        # fourth's JSON, newline included, so it reads as a corrupt line.
        cache.store(third, payload(third, 250))
        cache.store(fourth, payload(fourth, 550))
        (segment,) = cache.segment_dir.glob("*.log")
        assert segment.stat().st_size == 800
        assert cache.load(second) is None
        assert cache.load(first) is None
        assert (cache.misses, cache.quarantined) == (2, 0)
        assert cache.load(third) == payload(third, 250)
        fresh = ResultCache(root)
        assert fresh.load(fourth) == payload(fourth, 550)
        assert fresh.load(third) == payload(third, 250)
        assert fresh.quarantined == 0
        cache.store(first, payload(first, 500))
        assert ResultCache(root).load(first) == payload(first, 500)


class TestRunner:
    def test_rejects_bad_jobs(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=0)

    def test_deduplicates_specs(self):
        runner = ExperimentRunner(jobs=1)
        spec = spec_for("baseline")
        outcomes = runner.run([spec, spec, spec])
        assert len(outcomes) == 1
        assert len(runner.records) == 1

    def test_parallel_matches_serial(self):
        """jobs=2 must produce bit-identical results to jobs=1."""
        specs = [
            spec_for("baseline"),
            spec_for("mecc"),
            spec_for("mecc+smd", benchmark=LIBQ),
        ]
        serial = ExperimentRunner(jobs=1).run(specs)
        parallel = ExperimentRunner(jobs=2).run(specs)
        for spec in specs:
            assert parallel[spec].result.to_dict() == serial[spec].result.to_dict()
            assert (
                parallel[spec].smd_disabled_fraction
                == serial[spec].smd_disabled_fraction
            )

    def test_smd_outcome_reports_disabled_fraction(self):
        runner = ExperimentRunner(jobs=1)
        plain = spec_for("mecc")
        smd = spec_for("mecc+smd")
        outcomes = runner.run([plain, smd])
        assert outcomes[plain].smd_disabled_fraction is None
        assert 0.0 <= outcomes[smd].smd_disabled_fraction <= 1.0


class TestTraceMemo:
    def test_memo_is_keyed_on_the_whole_spec(self):
        """A same-named spec with another seed gets its own trace."""
        base = trace_for(POVRAY, RUN.instructions)
        shifted = trace_for(reseeded(POVRAY, 1), RUN.instructions)
        assert shifted is not base
        assert shifted.records != base.records
        assert trace_for(POVRAY, RUN.instructions) is base


class TestExecuteJob:
    def test_job_dram_timings_reach_the_controller(self):
        default = spec_for("baseline", benchmark=LIBQ)
        slow_rcd = DramTimings(t_rcd=2 * DramTimings().t_rcd)
        slow = spec_for(
            "baseline", benchmark=LIBQ, config=SystemConfig(timings=slow_rcd)
        )
        assert execute_job(slow)[0].cycles > execute_job(default)[0].cycles

    def test_result_dict_equals_asdict(self):
        result = execute_job(spec_for("mecc+smd", benchmark=LIBQ))[0]
        assert result.to_dict() == dataclasses.asdict(result)


class TestManifest:
    def test_manifest_counts_and_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        specs = [spec_for("baseline"), spec_for("mecc")]
        runner.run(specs)
        runner.run(specs)  # second pass: all hits
        manifest = runner.manifest()
        assert manifest["schema"] == CACHE_SCHEMA
        assert manifest["code_version"] == code_fingerprint()
        assert manifest["parallelism"]["jobs"] == 1
        assert manifest["totals"]["job_count"] == 4
        assert manifest["cache"]["hits"] == 2
        assert manifest["cache"]["misses"] == 2
        assert manifest["cache"]["hit_rate"] == 0.5
        assert len(manifest["jobs"]) == 4
        record = manifest["jobs"][0]
        assert record["benchmark"] == "povray"
        assert record["source"] == "run"
        assert record["wall_s"] >= 0.0

    def test_write_manifest_round_trips(self, tmp_path):
        runner = ExperimentRunner(jobs=1)
        runner.run([spec_for("baseline")])
        path = tmp_path / "manifest.json"
        runner.write_manifest(path)
        payload = json.loads(path.read_text())
        assert payload["totals"]["job_count"] == 1
        assert "created" in payload

    def test_runner_summary_renders(self):
        from repro.analysis.runner import render_runner_summary

        runner = ExperimentRunner(jobs=1)
        assert render_runner_summary(runner) == ""
        runner.run([spec_for("baseline"), spec_for("mecc")])
        text = render_runner_summary(runner)
        assert "baseline" in text and "mecc" in text and "TOTAL" in text
