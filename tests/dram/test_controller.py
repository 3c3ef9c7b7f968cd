"""Tests for the transaction-level memory controller."""

import pytest

from repro.dram.config import DramOrganization, DramTimings
from repro.dram.controller import MemoryController
from repro.errors import ConfigurationError

T = DramTimings()


def fresh_controller(**kwargs):
    return MemoryController(**kwargs)


class TestReadTiming:
    def test_first_read_latency(self):
        ctrl = fresh_controller()
        start = 10_000  # past the power-down gap so wake cost applies
        done = ctrl.read(0, start)
        assert done == start + T.t_xp + T.row_empty_latency

    def test_row_hit_latency(self):
        ctrl = fresh_controller()
        done1 = ctrl.read(0, 0)
        done2 = ctrl.read(64, done1)
        assert done2 - done1 == T.row_hit_latency

    def test_row_conflict_latency(self):
        ctrl = fresh_controller()
        done1 = ctrl.read(0, 0)
        # Same bank, different row: line 0 and line (4 banks * 256) share bank 0.
        conflict_addr = 4 * 256 * 64
        start = done1 + T.t_ras
        done2 = ctrl.read(conflict_addr, start)
        assert done2 - start >= T.row_conflict_latency

    def test_bank_parallelism_beats_serialization(self):
        """Two reads to different banks overlap; to the same row they queue."""
        ctrl_par = fresh_controller()
        ctrl_par.read(0, 0)
        done_par = ctrl_par.read(256 * 64, 0)  # bank 1
        ctrl_ser = fresh_controller()
        ctrl_ser.read(0, 0)
        done_ser = ctrl_ser.read(4 * 256 * 64, 0)  # bank 0 again, other row
        assert done_par < done_ser

    def test_data_bus_contention_serializes_bursts(self):
        ctrl = fresh_controller()
        done1 = ctrl.read(0, 0)
        done2 = ctrl.read(256 * 64, 0)  # different bank, same instant
        assert done2 >= done1 + T.t_burst

    def test_read_stats(self):
        ctrl = fresh_controller()
        ctrl.read(0, 0)
        ctrl.read(64, 200)
        assert ctrl.stats.reads == 2
        assert ctrl.stats.activates == 1
        assert ctrl.stats.row_hits == 1


class TestBankTiming:
    """Per-bank tRAS/tRC and busy-bank timing, driven through ``read``.

    Line 0 and line ``4 * 256`` map to rows 0 and 1 of bank 0.
    """

    def test_ras_blocks_early_precharge(self):
        timings = DramTimings(t_ras=100, t_rc=120)
        ctrl = fresh_controller(timings=timings)
        first = ctrl.read(0, 0)  # ACT at 0
        # Conflict as soon as the bank is ready: the precharge waits for
        # tRAS after the ACT.
        assert first < timings.t_ras
        done = ctrl.read(4 * 256 * 64, first)
        assert done == timings.t_ras + timings.row_conflict_latency

    def test_rc_blocks_activate_after_refresh(self):
        timings = DramTimings(t_rfc=40)
        ctrl = fresh_controller(timings=timings, powerdown_gap_cycles=10 ** 9)
        act = timings.t_refi - 16
        ctrl.read(0, act)  # ACT just before the first refresh
        # A same-row read inside the refresh window: the refresh closes the
        # row, and the new ACT waits for tRC after the first one.
        done = ctrl.read(64, timings.t_refi + 4)
        assert ctrl.stats.refresh_windows_hit == 1
        assert ctrl.stats.activates == 2
        assert timings.t_refi + timings.t_rfc < act + timings.t_rc
        assert done == act + timings.t_rc + timings.row_empty_latency

    def test_busy_bank_delays_next_access(self):
        ctrl = fresh_controller()
        done1 = ctrl.read(0, 0)
        done2 = ctrl.read(64, 0)  # same row, arrives while the bank is busy
        assert ctrl.stats.row_hits == 1
        assert done2 == done1 + T.row_hit_latency


class TestWrites:
    def test_writes_buffer_without_blocking(self):
        ctrl = fresh_controller()
        for i in range(8):
            ctrl.write(i * 64, 0)
        assert ctrl.stats.writes == 0
        assert len(ctrl.write_queue) == 8

    def test_full_queue_forces_drain(self):
        ctrl = fresh_controller(write_queue_capacity=8, write_drain_low=2)
        for i in range(8):
            ctrl.write(i * 64, 0)
        assert ctrl.stats.writes == 6
        assert len(ctrl.write_queue) == 2
        assert ctrl.stats.write_drains == 1

    def test_flush_writes_empties_queue(self):
        ctrl = fresh_controller()
        for i in range(5):
            ctrl.write(i * 64, 0)
        done = ctrl.flush_writes(1000)
        assert not ctrl.write_queue
        assert ctrl.stats.writes == 5
        assert done > 1000

    def test_write_batch_matches_per_write_calls(self):
        batched = fresh_controller(write_queue_capacity=8, write_drain_low=2)
        single = fresh_controller(write_queue_capacity=8, write_drain_low=2)
        addresses = [i * 4096 for i in range(20)]
        nows = [i * 30 for i in range(20)]
        batched.write_batch(addresses, nows)
        for address, now in zip(addresses, nows):
            single.write(address, now)
        assert batched.stats.write_drains == 3
        assert vars(batched.stats) == vars(single.stats)
        assert list(batched.write_queue) == list(single.write_queue)
        assert batched.read(0, 1000) == single.read(0, 1000)

    def test_opportunistic_drain_uses_idle_gaps(self):
        ctrl = fresh_controller()
        ctrl.read(0, 0)
        ctrl.write(64, 10)
        # A read far in the future: the idle gap should absorb the write.
        ctrl.read(128, 100_000)
        assert ctrl.stats.writes == 1
        assert not ctrl.write_queue

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fresh_controller(write_queue_capacity=4, write_drain_low=4)
        with pytest.raises(ConfigurationError):
            fresh_controller(write_queue_capacity=0, write_drain_low=-1)


class TestRefreshInterference:
    def test_collision_delays_read(self):
        ctrl = fresh_controller()
        ctrl.read(0, 0)  # establish activity before the refresh window
        # Arrive exactly at the first refresh window.
        start = T.t_refi + 1
        done = ctrl.read(64, start)
        assert done >= T.t_refi + T.t_rfc
        assert ctrl.stats.refresh_windows_hit == 1

    def test_refresh_closes_rows(self):
        ctrl = fresh_controller()
        ctrl.read(0, 0)
        assert ctrl.stats.activates == 1
        # This same-row access would be a hit, but the refresh it collides
        # with precharges the banks, forcing a fresh activate.
        ctrl.read(64, T.t_refi + 1)
        assert ctrl.stats.activates == 2
        assert ctrl.stats.row_hits == 0

    def test_refresh_disabled(self):
        ctrl = fresh_controller()
        ctrl.set_refresh_enabled(False)
        ctrl.read(0, 0)
        ctrl.read(64, T.t_refi + 1)
        assert ctrl.stats.refresh_windows_hit == 0


class TestPowerDown:
    def test_long_gap_pays_exit_latency(self):
        ctrl = fresh_controller(powerdown_gap_cycles=48)
        ctrl.read(0, 0)
        done_idle = ctrl.read(64, 1_000_000)
        assert ctrl.stats.powerdown_exits >= 1
        assert done_idle >= 1_000_000 + T.t_xp + T.row_hit_latency

    def test_short_gap_stays_awake(self):
        ctrl = fresh_controller(powerdown_gap_cycles=48)
        done = ctrl.read(0, 0)
        ctrl.read(64, done + 10)
        # First read from cold start counts one exit; no second exit.
        assert ctrl.stats.powerdown_exits <= 1


class TestUtilization:
    def test_fractions_sum_to_one(self):
        ctrl = fresh_controller()
        for i in range(50):
            ctrl.read(i * 64, i * 500)
        util = ctrl.utilization(50 * 500)
        total = (
            util.frac_active_standby
            + util.frac_precharge_standby
            + util.frac_active_powerdown
            + util.frac_precharge_powerdown
        )
        assert total == pytest.approx(1.0)
        assert util.read_bursts_per_second > 0

    def test_rejects_zero_cycles(self):
        with pytest.raises(ConfigurationError):
            fresh_controller().utilization(0)

    def test_busier_trace_higher_active_fraction(self):
        busy = fresh_controller()
        for i in range(100):
            busy.read(i * 64, i * 100)
        idlish = fresh_controller()
        for i in range(100):
            idlish.read(i * 64, i * 5000)
        cycles_busy, cycles_idle = 100 * 100, 100 * 5000
        assert (
            busy.utilization(cycles_busy).frac_active_standby
            > idlish.utilization(cycles_idle).frac_active_standby
        )


class TestActivatePacing:
    def test_trrd_spaces_activates(self):
        """Back-to-back ACTs to different banks respect tRRD."""
        ctrl = fresh_controller()
        done1 = ctrl.read(0, 0)  # bank 0, ACT at 0
        done2 = ctrl.read(256 * 64, 0)  # bank 1, ACT must wait tRRD
        act2_start = done2 - T.row_empty_latency
        # Bus contention may push further; tRRD is the floor.
        assert act2_start >= T.t_rrd

    def test_tfaw_limits_activate_bursts(self):
        """A fifth ACT inside the tFAW window stalls to the window edge."""
        ctrl = fresh_controller(powerdown_gap_cycles=10 ** 9)
        # Five conflict-free ACTs: banks 0..3 then bank 0 again (new row).
        for i in range(4):
            ctrl.read(i * 256 * 64, 0)
        done5 = ctrl.read(4 * 256 * 64, 0)  # bank 0 again, different row
        act5_start = done5 - T.row_conflict_latency - T.t_burst  # lower bound
        # The 5th ACT cannot start before the 1st + tFAW.
        assert done5 - T.row_empty_latency >= T.t_faw

    def test_row_hits_not_paced(self):
        """tRRD/tFAW constrain ACTs only; row hits stream freely."""
        ctrl = fresh_controller()
        done1 = ctrl.read(0, 0)
        done2 = ctrl.read(64, done1)  # same row: hit
        assert done2 - done1 == T.row_hit_latency


class TestMultiChannel:
    def test_channels_have_independent_buses(self):
        from repro.dram.config import DramOrganization

        two = MemoryController(org=DramOrganization(channels=2))
        one = fresh_controller()
        # Two simultaneous reads landing on different channels of the
        # 2-channel system do not serialize on the bus.
        lines_per_row = two.org.lines_per_row
        a = 0
        b = lines_per_row * 4 * 64  # next bank group -> other channel set
        # Find two addresses on different channels.
        loc_a = two.mapper.locate(a)
        addr_b = None
        for line in range(1, 64):
            candidate = line * lines_per_row * 64
            if (two.mapper.locate(candidate).bank // two._banks_per_channel) != (
                loc_a.bank // two._banks_per_channel
            ):
                addr_b = candidate
                break
        assert addr_b is not None
        done_a = two.read(a, 0)
        done_b = two.read(addr_b, 0)
        # Allow ACT pacing but not bus serialization beyond it.
        assert done_b <= done_a + T.t_rrd
