"""Unit tests for the unified MetricsRegistry and its adapters."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import EventTracer, MetricsRegistry, default_invariant_suite
from repro.sim.engine import SimulationEngine
from repro.sim.system import SystemConfig


class TestGenericAccess:
    def test_set_and_get(self):
        registry = MetricsRegistry()
        registry.set("sim.ipc", 0.72)
        registry.set("runner.code_version", "abc123")
        registry.set("cache.enabled", True)
        registry.set("maybe.missing", None)
        assert registry.get("sim.ipc") == 0.72
        assert "sim.ipc" in registry
        assert "sim.mpki" not in registry
        assert len(registry) == 4

    def test_rejects_empty_name_and_non_scalars(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.set("", 1)
        with pytest.raises(ConfigurationError, match="must be a scalar"):
            registry.set("sim.histogram", {0: 3})
        with pytest.raises(ConfigurationError, match="must be a scalar"):
            registry.set("sim.list", [1, 2])

    def test_namespace_strips_prefix(self):
        registry = MetricsRegistry()
        registry.update("sim", {"ipc": 0.5, "mpki": 12.0})
        registry.set("dram.reads", 100)
        assert registry.namespace("sim") == {"ipc": 0.5, "mpki": 12.0}
        assert registry.namespace("dram") == {"reads": 100}
        assert registry.namespace("nothing") == {}

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.set("z.last", 1)
        registry.set("a.first", 2)
        assert list(registry.snapshot()) == ["a.first", "z.last"]


class TestAdapters:
    def test_record_sim_and_controller(self, hand_trace):
        config = SystemConfig()
        trace = hand_trace([(100, "R", 0x00), (50, "W", 0x40), (30, "R", 0x80)])
        policy = config.policy_by_name("mecc")
        engine = SimulationEngine(policy=policy)
        result = engine.run(trace)

        registry = MetricsRegistry()
        registry.record_sim_result(result)
        registry.record_controller_stats(engine.controller.stats)
        assert registry.get("sim.instructions") == result.instructions
        assert registry.get("sim.ipc") == pytest.approx(result.ipc)
        assert registry.get("sim.energy_j") == pytest.approx(result.energy.total)
        assert registry.get("dram.reads") == 2
        assert registry.get("dram.writes") >= 1
        assert 0.0 <= registry.get("dram.row_hit_rate") <= 1.0

    def test_record_tracer_and_invariants(self):
        tracer = EventTracer(capacity=2)
        for i in range(3):
            tracer.emit("t", "k", i=i)
        suite = default_invariant_suite(tolerant=True)
        registry = MetricsRegistry()
        registry.record_tracer(tracer)
        registry.record_invariants(suite)
        assert registry.get("obs.trace.emitted") == 3
        assert registry.get("obs.trace.buffered") == 2
        assert registry.get("obs.trace.dropped") == 1
        assert registry.get("obs.trace.capacity") == 2
        assert registry.get("invariants.evaluations") == 0
        assert registry.get("invariants.violations") == 0
        assert registry.get("invariants.tolerant") is True
        assert registry.get("invariants.by_check.mdt-coherence") == 0


class TestExport:
    def test_json_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.update("sim", {"ipc": 0.5, "cycles": 1000})
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == {"sim.ipc": 0.5, "sim.cycles": 1000}


class TestFidelityAdapter:
    def test_record_fidelity_report(self):
        from repro.fidelity import evaluate_claims

        report = evaluate_claims(["MDT-STORAGE-128B", "F8-REFRESH-16X"])
        registry = MetricsRegistry()
        registry.record_fidelity(report)
        assert registry.get("fidelity.passed") is True
        assert registry.get("fidelity.evaluated") == 2
        assert registry.get("fidelity.failed") == 0
        assert registry.get("fidelity.claim.MDT-STORAGE-128B.passed") is True
        assert registry.get("fidelity.claim.MDT-STORAGE-128B.measured") == 128.0
        error = registry.get("fidelity.claim.F8-REFRESH-16X.relative_error")
        assert 0.0 <= error < 0.01

    def test_record_fidelity_custom_namespace(self):
        from repro.fidelity import evaluate_claims

        report = evaluate_claims(["MDT-STORAGE-128B"])
        registry = MetricsRegistry()
        registry.record_fidelity(report, namespace="gate")
        assert registry.get("gate.passed") is True
        assert registry.get("gate.evaluated") == 1
