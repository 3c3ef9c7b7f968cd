"""The engine's stateless-policy path and its guard.

No-ECC, SEC-DED and ECC-6 return one constant read action and ignore
writes, so the engine uses that action without calling them per access.
A subclass that overrides an access hook must be called per access
again.  ``test_batched_equivalence.py`` checks the decode counters of
every policy against a per-record ``on_read`` reference.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import trace_for
from repro.core.policy import Ecc6Policy, MeccPolicy, NoEccPolicy, SecdedPolicy
from repro.sim.engine import simulate
from repro.workloads.spec import BENCHMARKS_BY_NAME

LIBQ = BENCHMARKS_BY_NAME["libq"]


@pytest.fixture(scope="module")
def trace():
    return trace_for(LIBQ, 20_000)


class CountingReads(NoEccPolicy):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def on_read(self, byte_address, now):
        self.calls += 1
        return super().on_read(byte_address, now)


class CountingWrites(SecdedPolicy):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def on_write(self, byte_address, now):
        self.calls += 1


class TestDeclaration:
    @pytest.mark.parametrize("cls", [NoEccPolicy, SecdedPolicy, Ecc6Policy])
    def test_fixed_latency_policies_are_stateless(self, cls):
        policy = cls()
        assert policy.constant_read_action() == policy.on_read(0, 0)

    def test_mecc_is_stateful(self):
        assert MeccPolicy().constant_read_action() is None

    @pytest.mark.parametrize("cls", [CountingReads, CountingWrites])
    def test_overriding_a_hook_does_not_inherit_statelessness(self, cls):
        assert cls().constant_read_action() is None


class TestEngine:
    @pytest.mark.parametrize(
        "cls, counter",
        [
            (NoEccPolicy, "weak_decodes"),
            (SecdedPolicy, "weak_decodes"),
            (Ecc6Policy, "strong_decodes"),
        ],
    )
    def test_reads_charged_once_per_run(self, trace, cls, counter):
        policy = cls()
        result = simulate(trace, policy)
        assert result.reads > 0
        assert getattr(result, counter) == result.reads
        other = "strong_decodes" if counter == "weak_decodes" else "weak_decodes"
        assert getattr(result, other) == 0
        # A second run on the same policy starts from zero again.
        assert simulate(trace, policy) == result

    def test_overridden_on_read_is_called_per_read(self, trace):
        policy = CountingReads()
        result = simulate(trace, policy)
        assert policy.calls == result.reads
        assert result == simulate(trace, NoEccPolicy())

    def test_overridden_on_write_is_called_per_write(self, trace):
        policy = CountingWrites()
        result = simulate(trace, policy)
        writes = sum(1 for is_write in trace.ops if is_write)
        assert writes > 0
        assert policy.calls == writes
        assert result == simulate(trace, SecdedPolicy())
