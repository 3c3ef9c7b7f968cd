"""Per-bank state for the transaction-level DRAM model.

Each bank tracks the open row and the earliest processor-cycle timestamps
at which the next column command or precharge may start.  This is the
timestamp-based equivalent of enforcing tRCD/tRP/tRAS/tRC without ticking
every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.config import DramTimings


@dataclass
class Bank:
    """State machine for a single DRAM bank.

    Attributes:
        open_row: currently open row index, or None when precharged.
        ready_at: earliest time the next command to this bank may start.
        last_act_at: start time of the most recent ACT (for tRAS/tRC).
    """

    timings: DramTimings = field(default_factory=DramTimings)
    open_row: int | None = None
    ready_at: int = 0
    last_act_at: int = -(10 ** 12)

    def __post_init__(self) -> None:
        # Latencies read on every access, bound once per bank.
        t = self.timings
        self._t_ras = t.t_ras
        self._t_rp = t.t_rp
        self._t_rc = t.t_rc
        self._row_hit_latency = t.row_hit_latency
        self._row_empty_latency = t.row_empty_latency

    def access(self, row: int, start: int) -> tuple[int, bool, int]:
        """Perform a column access to ``row`` starting no earlier than ``start``.

        Returns ``(data_done, row_hit, activates)`` where ``data_done`` is
        the processor cycle when the data burst completes, ``row_hit`` says
        whether the row buffer was hit, and ``activates`` is the number of
        ACT commands issued (0 or 1).  Each ``earliest > begin`` compare
        keeps ``begin`` on a tie, as ``max(begin, earliest)`` would.
        """
        begin = self.ready_at if self.ready_at > start else start
        open_row = self.open_row
        if open_row == row:
            data_done = begin + self._row_hit_latency
            self.ready_at = data_done
            return data_done, True, 0
        last_act_at = self.last_act_at
        if open_row is not None:
            # Precharge may not start before tRAS after the ACT.
            earliest = last_act_at + self._t_ras
            if earliest > begin:
                begin = earliest
            begin += self._t_rp
        # ACT-to-ACT same bank must respect tRC.
        earliest = last_act_at + self._t_rc
        if earliest > begin:
            begin = earliest
        self.last_act_at = begin
        self.open_row = row
        data_done = begin + self._row_empty_latency
        self.ready_at = data_done
        return data_done, False, 1

    def precharge_all(self) -> None:
        """Close the row (used on refresh and self-refresh entry)."""
        self.open_row = None

    def block_until(self, cycle: int) -> None:
        """Make the bank unavailable until ``cycle`` (refresh window)."""
        if cycle > self.ready_at:
            self.ready_at = cycle
