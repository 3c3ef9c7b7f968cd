"""Tests for the trace-driven cycle engine."""

import pytest

from repro.core.policy import Ecc6Policy, MeccPolicy, NoEccPolicy, SecdedPolicy
from repro.core.smd import SelectiveMemoryDowngrade
from repro.dram.config import DramOrganization, DramTimings
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationEngine, simulate

T = DramTimings()
CAPACITY = DramOrganization().capacity_bytes


class TestBlockingCore:
    def test_single_read_latency(self, hand_trace):
        """One read: retire clock = gap cycles + memory latency."""
        trace = hand_trace([(100, "R", 0)], nonmem_cpi=0.5)
        result = simulate(trace, NoEccPolicy())
        # 100 instructions at CPI 0.5 = 50 cycles; the idle rank pays the
        # power-down exit, then the read blocks on a row-empty access.
        expected = 50 + T.t_xp + T.row_empty_latency
        assert result.cycles == expected
        assert result.reads == 1

    def test_gap_cpi_respected(self, hand_trace):
        trace = hand_trace([(100, "R", 0)], nonmem_cpi=2.0)
        result = simulate(trace, NoEccPolicy())
        assert result.cycles == 200 + T.t_xp + T.row_empty_latency

    def test_reads_serialize(self, hand_trace):
        """An in-order blocking core exposes each miss's full latency."""
        trace = hand_trace([(0, "R", 0), (0, "R", 64)], nonmem_cpi=0.5)
        result = simulate(trace, NoEccPolicy())
        assert result.cycles == T.row_empty_latency + T.row_hit_latency

    def test_decode_latency_added_per_read(self, hand_trace):
        trace = hand_trace([(0, "R", 0), (0, "R", 64)], nonmem_cpi=0.5)
        base = simulate(trace, NoEccPolicy())
        secded = simulate(trace, SecdedPolicy())
        ecc6 = simulate(trace, Ecc6Policy())
        assert secded.cycles == base.cycles + 2 * 2
        assert ecc6.cycles == base.cycles + 2 * 30

    def test_writes_do_not_block(self, hand_trace):
        reads_only = hand_trace([(100, "R", 0)])
        with_write = hand_trace([(0, "W", 4096), (100, "R", 0)])
        a = simulate(reads_only, NoEccPolicy())
        b = simulate(with_write, NoEccPolicy())
        # The write is absorbed into the idle gap before the read.
        assert b.cycles <= a.cycles + T.t_xp

    def test_ipc_capped_by_retire_width(self, hand_trace):
        trace = hand_trace([(10_000, "R", 0)], nonmem_cpi=0.5)
        result = simulate(trace, NoEccPolicy())
        assert result.ipc <= 2.0


class TestMeccIntegration:
    def test_first_touch_slow_second_fast(self, hand_trace):
        trace = hand_trace([(0, "R", 0), (0, "R", 0)], nonmem_cpi=0.5)
        result = simulate(trace, MeccPolicy())
        assert result.strong_decodes == 1
        assert result.weak_decodes == 1
        assert result.downgrades == 1

    def test_downgrade_writeback_reaches_controller(self, hand_trace):
        engine = SimulationEngine(policy=MeccPolicy())
        trace = hand_trace([(0, "R", 0), (50_000, "R", 64)], nonmem_cpi=0.5)
        result = engine.run(trace)
        # Two downgrades produce two write-backs; the idle gap lets the
        # controller drain at least the first one.
        assert result.downgrades == 2
        assert engine.controller.stats.writes + len(engine.controller.write_queue) == 2


class TestEngineReuse:
    def test_back_to_back_runs_match_fresh_engines(self, hand_trace):
        """Re-running one engine must not accumulate stats across runs."""
        trace = hand_trace(
            [(0, "R", 0), (100, "R", 64), (50, "W", 4096), (200, "R", 0)],
            nonmem_cpi=0.5,
        )
        shared = SimulationEngine(policy=MeccPolicy())
        first = shared.run(trace)
        second = shared.run(trace)
        fresh_a = SimulationEngine(policy=MeccPolicy()).run(trace)
        fresh_b = SimulationEngine(policy=MeccPolicy()).run(trace)
        assert first.to_dict() == fresh_a.to_dict()
        assert second.to_dict() == fresh_b.to_dict()
        assert first.to_dict() == second.to_dict()

    def test_reuse_resets_controller_stats(self, hand_trace):
        trace = hand_trace([(0, "W", 0), (0, "W", 64), (100, "R", 128)])
        engine = SimulationEngine(policy=MeccPolicy())
        engine.run(trace)
        writes_once = engine.controller.stats.writes
        engine.run(trace)
        assert engine.controller.stats.writes == writes_once

    def test_float_timings_keep_integral_accounting(self, hand_trace):
        """Sub-cycle DRAM timings must not leak floats into cycle stats."""
        import dataclasses

        timings = dataclasses.replace(DramTimings(), t_rcd=24.5, t_cl=24.25)
        trace = hand_trace([(100, "R", 0), (50, "R", 64)], nonmem_cpi=0.5)
        engine = SimulationEngine(policy=SecdedPolicy(), timings=timings)
        result = engine.run(trace)
        assert isinstance(result.cycles, int)
        assert isinstance(result.read_latency_sum, int)
        assert isinstance(engine.controller.stats.busy_cycles, int)


class TestMeccAddressRange:
    """MECC keeps a mode per line, so an address past capacity is an error,
    whether it arrives on a read or in a coalesced write-back run, and
    whether downgrades are enabled (MECC) or gated off (MECC+SMD)."""

    POLICIES = {
        "mecc": MeccPolicy,
        "mecc+smd": lambda: MeccPolicy(smd=SelectiveMemoryDowngrade()),
    }

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("address", [CAPACITY, CAPACITY + 64 * 1000])
    def test_read_beyond_capacity_rejected(self, hand_trace, policy, address):
        trace = hand_trace([(10, "R", 0), (10, "R", address)])
        with pytest.raises(ConfigurationError, match="out of range"):
            simulate(trace, self.POLICIES[policy]())

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("address", [CAPACITY, CAPACITY + 64 * 1000])
    def test_write_back_batch_beyond_capacity_rejected(
        self, hand_trace, policy, address
    ):
        trace = hand_trace([(10, "W", 64), (0, "W", address), (10, "R", 0)])
        with pytest.raises(ConfigurationError, match="out of range"):
            simulate(trace, self.POLICIES[policy]())

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_last_line_accepted(self, hand_trace, policy):
        last = CAPACITY - 64
        trace = hand_trace([(10, "W", last), (10, "R", last), (10, "R", last)])
        result = simulate(trace, self.POLICIES[policy]())
        assert result.reads == 2


class TestResults:
    def test_read_latency_sum_includes_decode(self, hand_trace):
        """The reported read latency is DRAM time plus ECC decode."""
        trace = hand_trace([(0, "R", 0), (0, "R", 64)])
        policy = SecdedPolicy()
        result = simulate(trace, policy)
        assert result.read_latency_sum > 2 * policy.scheme.decode_cycles
        baseline = simulate(trace, NoEccPolicy())
        assert result.read_latency_sum > baseline.read_latency_sum

    def test_mpki_measured(self, hand_trace):
        trace = hand_trace([(999, "R", 0)])
        result = simulate(trace, NoEccPolicy())
        assert result.mpki == pytest.approx(1.0)

    def test_energy_positive(self, hand_trace):
        trace = hand_trace([(1000, "R", 0), (1000, "R", 64)])
        result = simulate(trace, NoEccPolicy())
        assert result.energy.total > 0
        assert result.energy.background > 0
        assert result.energy.refresh > 0

    def test_avg_read_latency(self, hand_trace):
        trace = hand_trace([(100, "R", 0)])
        result = simulate(trace, NoEccPolicy())
        assert result.avg_read_latency == pytest.approx(T.t_xp + T.row_empty_latency)

    def test_smd_slow_refresh_scales_energy(self, hand_trace):
        from repro.core.smd import SelectiveMemoryDowngrade

        trace = hand_trace([(10_000, "R", 0), (10_000, "R", 64)])
        never = MeccPolicy(smd=SelectiveMemoryDowngrade(quantum_cycles=10**9))
        result_slow = simulate(trace, never)
        result_fast = simulate(trace, MeccPolicy())
        assert never.slow_refresh_fraction == 1.0
        assert result_slow.energy.refresh == pytest.approx(
            result_fast.energy.refresh / 16.0, rel=0.05
        )
