"""Wire protocol: message framing, spec transport, failure modes."""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import JobSpec
from repro.dispatch import protocol
from repro.errors import DispatchProtocolError
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME


def _spec() -> JobSpec:
    return JobSpec.build(
        BENCHMARKS_BY_NAME["libq"], ScaledRun(instructions=10_000), "mecc"
    )


class TestMessages:
    def test_encode_decode_round_trip(self):
        line = protocol.encode_message(type="lease", job_id=3, key="abc")
        assert line.endswith(b"\n")
        assert protocol.decode_message(line) == {
            "type": "lease", "job_id": 3, "key": "abc",
        }

    def test_canonical_encoding_is_stable(self):
        a = protocol.encode_message(type="x", b=1, a=2)
        b = protocol.encode_message(a=2, b=1, type="x")
        assert a == b  # sorted keys: field order never changes the bytes

    def test_type_field_required(self):
        with pytest.raises(DispatchProtocolError):
            protocol.encode_message(job_id=1)

    def test_decode_rejects_garbage(self):
        with pytest.raises(DispatchProtocolError):
            protocol.decode_message(b"{torn\n")
        with pytest.raises(DispatchProtocolError):
            protocol.decode_message(json.dumps([1, 2]).encode() + b"\n")
        with pytest.raises(DispatchProtocolError):
            protocol.decode_message(json.dumps({"no_type": 1}).encode() + b"\n")


class TestSpecTransport:
    def test_spec_round_trips_bit_identically(self):
        spec = _spec()
        encoded = protocol.encode_spec(spec)
        assert isinstance(encoded, str)  # JSON-safe base64 text
        decoded = protocol.decode_spec(encoded)
        assert decoded == spec
        assert decoded.key("v1") == spec.key("v1")

    def test_decode_spec_rejects_garbage(self):
        with pytest.raises(DispatchProtocolError):
            protocol.decode_spec("not base64 pickle!")
        with pytest.raises(DispatchProtocolError):
            protocol.decode_spec("aGVsbG8=")  # valid base64, not a pickle


def _registry_specs() -> list[JobSpec]:
    """Every job the exhibit registry submits, at a small scale."""
    from repro.analysis import experiments
    from repro.analysis import runner as runner_mod
    from repro.report.spec import all_exhibits

    class RecordingRunner(runner_mod.ExperimentRunner):
        def __init__(self):
            super().__init__(jobs=1)
            self.seen: list[JobSpec] = []

        def run(self, specs):
            specs = list(specs)
            self.seen.extend(specs)
            return super().run(specs)

    experiments.clear_caches()
    previous = runner_mod._default_runner
    recorder = runner_mod._default_runner = RecordingRunner()
    try:
        for exhibit in all_exhibits():
            exhibit.build(ScaledRun(instructions=5_000))
    finally:
        runner_mod._default_runner = previous
        experiments.clear_caches()
    return list(dict.fromkeys(recorder.seen))


def _every_built_spec() -> list[JobSpec]:
    from repro.dse import DesignSpaceExplorer
    from repro.fleet.simulator import FleetSimulator

    specs = _registry_specs()
    specs += DesignSpaceExplorer().jobs()
    specs += FleetSimulator().cohort_jobs()
    return specs


class TestDescribeTransport:
    """Specs travel as describe JSON and come back equal, key included."""

    def test_every_built_spec_round_trips(self):
        specs = _every_built_spec()
        policies = {spec.policy for spec in specs}
        assert policies >= {"baseline", "secded", "ecc6", "mecc", "mecc+smd"}
        assert any(spec.benchmark.phases for spec in specs)
        assert len({spec.config for spec in specs}) > 1
        for spec in specs:
            decoded = protocol.decode_spec(protocol.encode_spec(spec))
            assert decoded == spec
            assert decoded.key("v1") == spec.key("v1")
            assert isinstance(decoded.benchmark.phases, tuple)
            assert JobSpec.from_describe(spec.describe()) == spec

    def test_wire_form_is_the_canonical_description(self):
        spec = _spec()
        # JSON turns the phases tuple into a list; compare as JSON.
        assert json.loads(protocol.encode_spec(spec)) == json.loads(
            json.dumps(spec.describe())
        )

    def test_pickle_blob_rejected(self):
        import base64
        import pickle

        blob = base64.b64encode(pickle.dumps(_spec())).decode("ascii")
        with pytest.raises(DispatchProtocolError):
            protocol.decode_spec(blob)

    @pytest.mark.parametrize(
        "text",
        ["[]", "{}", '{"benchmark": {}}', "null", "3"],
    )
    def test_non_descriptions_rejected(self, text):
        with pytest.raises(DispatchProtocolError):
            protocol.decode_spec(text)

    def test_tampered_description_rejected(self):
        description = _spec().describe()
        description["config"]["org"]["bogus"] = 1
        with pytest.raises(DispatchProtocolError):
            protocol.decode_spec(json.dumps(description))


class TestConstants:
    def test_fault_modes_cover_the_chaos_campaign(self):
        assert set(protocol.FAULT_MODES) >= {
            "none", "kill", "silent", "slow", "partition", "duplicate",
            "flaky",
        }

    def test_stream_limit_fits_large_specs(self):
        # A spec with phases still fits far under the frame limit.
        assert len(protocol.encode_spec(_spec())) < protocol.STREAM_LIMIT / 100
