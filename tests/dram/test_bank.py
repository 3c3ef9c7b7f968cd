"""Tests for per-bank row-buffer state, driven through the memory controller.

Row-interleaved mapping with the default organization: line ``n`` lies in
bank ``(n // 256) % 4`` and row ``n // (4 * 256)``.
"""

from repro.dram.config import DramTimings
from repro.dram.controller import MemoryController

T = DramTimings()


def fresh_controller():
    # Idle gaps never power the rank down, so no wake cost shows up.
    return MemoryController(powerdown_gap_cycles=10 ** 9)


def address(bank, row):
    return (row * 4 * 256 + bank * 256) * 64


class TestRowBufferOutcomes:
    def test_empty_bank_pays_activation(self):
        ctrl = fresh_controller()
        assert ctrl.mapper.bank_row(address(0, 5)) == (0, 5)
        done = ctrl.read(address(0, 5), 1000)
        assert ctrl.stats.row_hits == 0
        assert ctrl.stats.activates == 1
        assert done == 1000 + T.row_empty_latency

    def test_row_hit_pays_cas_only(self):
        ctrl = fresh_controller()
        done1 = ctrl.read(address(0, 5), 0)
        done2 = ctrl.read(address(0, 5) + 64, done1)
        assert ctrl.stats.row_hits == 1
        assert ctrl.stats.activates == 1
        assert done2 == done1 + T.row_hit_latency

    def test_row_conflict_pays_precharge(self):
        ctrl = fresh_controller()
        done1 = ctrl.read(address(0, 5), 0)
        # Wait long enough that tRAS is satisfied.
        start = done1 + T.t_ras
        done2 = ctrl.read(address(0, 9), start)
        assert ctrl.stats.row_hits == 0
        assert ctrl.stats.activates == 2
        assert done2 == start + T.row_conflict_latency


class TestControlOps:
    def test_precharge_all_closes_row(self):
        ctrl = fresh_controller()
        ctrl.read(address(0, 3), 0)
        # A read to another bank collides with the first refresh, which
        # precharges every bank, bank 0 included.
        done = ctrl.read(address(1, 0), T.t_refi + 1)
        assert ctrl.stats.refresh_windows_hit == 1
        ctrl.read(address(0, 3), done)
        assert ctrl.stats.row_hits == 0
        assert ctrl.stats.activates == 3
