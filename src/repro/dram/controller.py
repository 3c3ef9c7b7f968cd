"""Transaction-level memory controller (USIMM-style substrate).

Models the paper's baseline controller: read/write queues, open-page
row-buffer policy, bank-level parallelism, data-bus contention, periodic
auto-refresh interference, and an *aggressive power-down* policy (the
paper: "the scheduler issues a power-down command whenever it is
possible").

The model is event-timestamped: servicing a request computes its data
completion time from per-bank and bus availability timestamps, so cost is
O(1) per transaction instead of per cycle.  Writes are buffered in a write
queue and drained in bursts when the queue fills, stealing bank/bus time
from subsequent reads — which is how MECC's extra downgrade write-backs
show up as a small power/performance cost (paper Fig. 9).

Requests carry their DRAM coordinates: the cycle engine passes each
access's ``(bank, row)`` from the trace's memoized decode
(:meth:`repro.workloads.trace.Trace.decoded`), and the write queue keeps
them next to each buffered address, so the service path never decodes.
Callers without coordinates (``read(address, now)``) get them decoded on
entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.address import AddressMapper
from repro.dram.bank import Bank
from repro.dram.config import PROC_HZ, DramOrganization, DramTimings
from repro.errors import ConfigurationError
from repro.power.calculator import BankUtilization


@dataclass
class ControllerStats:
    """Counters accumulated while servicing transactions."""

    reads: int = 0
    writes: int = 0
    activates: int = 0
    row_hits: int = 0
    refresh_windows_hit: int = 0
    write_drains: int = 0
    busy_cycles: int = 0
    powerdown_exits: int = 0
    read_latency_sum: int = 0

    @property
    def row_hit_rate(self) -> float:
        total = self.reads + self.writes
        return self.row_hits / total if total else 0.0


class MemoryController:
    """Single-channel memory controller over a set of banks.

    Args:
        org: DRAM organization (capacity, banks, rows, line size).
        timings: DRAM timing constraints in processor cycles.
        write_queue_capacity: writes buffered before a forced drain.
        write_drain_low: drain stops when the queue falls to this level.
        powerdown_gap_cycles: an idle gap at least this long (processor
            cycles) puts the rank into precharge power-down; waking costs
            ``t_xp``.
    """

    def __init__(
        self,
        org: DramOrganization | None = None,
        timings: DramTimings | None = None,
        write_queue_capacity: int = 32,
        write_drain_low: int = 8,
        powerdown_gap_cycles: int = 48,
        mapping_policy: str = "row-interleaved",
    ):
        self.org = org or DramOrganization()
        self.timings = timings or DramTimings()
        if write_drain_low >= write_queue_capacity:
            raise ConfigurationError("write_drain_low must be < write_queue_capacity")
        if write_queue_capacity < 1:
            raise ConfigurationError("write_queue_capacity must be >= 1")
        self.mapper = AddressMapper(self.org, policy=mapping_policy)
        self.banks = [Bank(self.timings) for _ in range(self.mapper.total_banks)]
        #: Buffered write-back addresses, oldest first.
        self.write_queue: deque[int] = deque()
        #: ``(bank, row)`` of each :attr:`write_queue` entry, in step.
        self._write_coords: deque[tuple[int, int]] = deque()
        self.write_queue_capacity = write_queue_capacity
        self.write_drain_low = write_drain_low
        self.powerdown_gap_cycles = powerdown_gap_cycles
        self.stats = ControllerStats()
        #: Optional :class:`repro.obs.trace.EventTracer`; only the *rare*
        #: events (forced drains, refresh collisions) emit, so the
        #: per-access service path carries no tracing cost.
        self.tracer = None
        # Geometry and timing constants of the per-access path, bound once:
        # org and timings are fixed for the controller's lifetime, so
        # reset() keeps them.
        self._bank_row = self.mapper.bank_row
        self._banks_per_rank = self.org.banks
        self._banks_per_channel = self.org.banks * self.org.ranks
        t = self.timings
        self._t_xp = t.t_xp
        self._t_rrd = t.t_rrd
        self._t_faw = t.t_faw
        self._t_burst = t.t_burst
        self._t_rfc = t.t_rfc
        self._t_refi = t.t_refi
        self._row_empty_latency = t.row_empty_latency
        self._drain_slot = 2 * t.t_burst
        self._data_bus_free_at = [0] * self.org.channels
        self._busy_until = 0
        self._next_refresh_at = self.timings.t_refi
        self._refresh_enabled = True
        # ACT pacing per rank: last ACT start (tRRD) and a sliding window
        # of the last four ACT starts (tFAW).
        n_ranks = self.org.channels * self.org.ranks
        self._last_act_start = [-(10 ** 12)] * n_ranks
        self._act_window: list[deque[int]] = [deque(maxlen=4) for _ in range(n_ranks)]

    # -- configuration hooks ---------------------------------------------------

    def set_refresh_enabled(self, enabled: bool) -> None:
        """Allow SMD-style operation where auto-refresh stays off (1 s SR)."""
        self._refresh_enabled = enabled

    def reset(self) -> None:
        """Drop all per-run state (bank timing, queues, stats).

        Configuration (organization, timings, queue thresholds, refresh
        enablement) is preserved; everything a previous ``run`` touched is
        re-initialized so the controller can be reused without one run's
        stats or bank timestamps leaking into the next.
        """
        self.banks = [Bank(self.timings) for _ in range(self.mapper.total_banks)]
        self.write_queue.clear()
        self._write_coords.clear()
        self.stats = ControllerStats()
        self._data_bus_free_at = [0] * self.org.channels
        self._busy_until = 0
        self._next_refresh_at = self.timings.t_refi
        n_ranks = self.org.channels * self.org.ranks
        self._last_act_start = [-(10 ** 12)] * n_ranks
        self._act_window = [deque(maxlen=4) for _ in range(n_ranks)]

    # -- public request interface ----------------------------------------------

    def read(
        self, address: int, now: int, bank: int | None = None, row: int | None = None
    ) -> int:
        """Service a demand read arriving at processor cycle ``now``.

        ``bank``/``row`` are the address's DRAM coordinates when the caller
        already has them decoded; otherwise they are decoded here.
        Returns the cycle at which the data burst completes (excluding any
        ECC decode latency, which the simulation engine layers on top).
        """
        if bank is None:
            bank, row = self._bank_row(address)
        queue = self.write_queue
        if queue:
            # Guards inlined: most reads find no idle slot and no full queue.
            if now - self._busy_until >= self._drain_slot:
                self._opportunistic_drain(now)
            if len(queue) >= self.write_queue_capacity:
                self._drain_writes(now)
        # Completion times are whole processor cycles even if a caller
        # configured fractional (float) timings; latency stats stay ints.
        done = int(self._service(bank, row, now))
        stats = self.stats
        stats.reads += 1
        stats.read_latency_sum += done - now
        return done

    def write(
        self, address: int, now: int, bank: int | None = None, row: int | None = None
    ) -> None:
        """Buffer a write-back; drains happen in bursts off the read path."""
        if bank is None:
            bank, row = self._bank_row(address)
        self.write_queue.append(address)
        self._write_coords.append((bank, row))
        if len(self.write_queue) >= self.write_queue_capacity:
            self._drain_writes(now)

    def write_batch(self, addresses, nows, coords=None) -> None:
        """Buffer a coalesced run of write-backs (engine batching).

        ``coords`` holds each address's ``(bank, row)`` when the caller
        has them decoded.  Timing-identical to calling :meth:`write` per
        element: the queue fills in access order and forced drains
        trigger at the same arrival cycles.
        """
        if coords is None:
            coords = [self._bank_row(address) for address in addresses]
        queue = self.write_queue
        queued_coords = self._write_coords
        capacity = self.write_queue_capacity
        for address, now, coord in zip(addresses, nows, coords):
            queue.append(address)
            queued_coords.append(coord)
            if len(queue) >= capacity:
                self._drain_writes(now)

    def flush_writes(self, now: int) -> int:
        """Drain the entire write queue; returns the completion cycle."""
        done = now
        queue = self.write_queue
        coords = self._write_coords
        stats = self.stats
        while queue:
            queue.popleft()
            done = self._service(*coords.popleft(), done)
            stats.writes += 1
        return done

    # -- internals ---------------------------------------------------------------

    def _opportunistic_drain(self, now: int) -> None:
        """Service buffered writes inside idle gaps, off the read path.

        The queue head is written whenever the channel has been idle long
        enough to fit a burst before ``now`` — this is how ECC-Downgrade
        write-backs stay off the critical path (paper Sec. III-B).
        """
        queue = self.write_queue
        coords = self._write_coords
        stats = self.stats
        slot = self._drain_slot
        while queue and now - self._busy_until >= slot:
            queue.popleft()
            bank, row = coords.popleft()
            self._service(bank, row, self._busy_until)
            stats.writes += 1

    def _drain_writes(self, now: int) -> None:
        queue = self.write_queue
        coords = self._write_coords
        stats = self.stats
        stats.write_drains += 1
        drained = len(queue) - self.write_drain_low
        if self.tracer is not None:
            self.tracer.emit(
                "dram", "write_drain", cycle=now, drained=drained
            )
        t = now
        while len(queue) > self.write_drain_low:
            queue.popleft()
            bank, row = coords.popleft()
            t = self._service(bank, row, t)
            stats.writes += 1

    def _service(self, bank_index: int, row: int, now: int) -> int:
        """Common timing path for a 64B column access (read or write).

        Each ``x > begin`` style compare below keeps the current value on a
        tie, exactly as the ``max(current, x)`` it stands for.
        """
        stats = self.stats
        begin = now
        # Aggressive power-down: a long-enough idle gap means the rank was
        # powered down and must pay the exit latency.
        if begin - self._busy_until >= self.powerdown_gap_cycles:
            begin += self._t_xp
            stats.powerdown_exits += 1
        # Before the next refresh starts, no refresh can delay the access.
        if begin >= self._next_refresh_at and self._refresh_enabled:
            begin = self._apply_refresh(begin)
        bank = self.banks[bank_index]
        rank = bank_index // self._banks_per_rank
        # ACT pacing: if this access will open a row, respect tRRD (ACT to
        # ACT, any bank of the rank) and tFAW (at most four ACTs per
        # rolling window).
        if bank.open_row != row:
            earliest = self._last_act_start[rank] + self._t_rrd
            if earliest > begin:
                begin = earliest
            window = self._act_window[rank]
            if len(window) == 4:
                earliest = window[0] + self._t_faw
                if earliest > begin:
                    begin = earliest
        data_done, row_hit, activates = bank.access(row, begin)
        if activates:
            act_start = data_done - self._row_empty_latency
            last_act_start = self._last_act_start
            if act_start > last_act_start[rank]:
                last_act_start[rank] = act_start
            self._act_window[rank].append(act_start)
        # Data-bus contention: the burst phase may not overlap a previous
        # burst on the same channel.
        channel = bank_index // self._banks_per_channel
        bus_free_at = self._data_bus_free_at
        data_start = data_done - self._t_burst
        if data_start < bus_free_at[channel]:
            shift = bus_free_at[channel] - data_start
            data_done += shift
            bank.ready_at += shift
        bus_free_at[channel] = data_done
        stats.activates += activates
        if row_hit:
            stats.row_hits += 1
        # Busy-time envelope for the power model.
        busy_until = self._busy_until
        overlap_start = busy_until if busy_until > begin else begin
        if data_done > overlap_start:
            stats.busy_cycles += int(data_done - overlap_start)
        if data_done > busy_until:
            self._busy_until = data_done
        return data_done

    def _apply_refresh(self, begin: int) -> int:
        """Delay ``begin`` past any auto-refresh window it collides with.

        Called only with refresh enabled and ``begin`` at or past the next
        refresh start; earlier accesses cannot collide.
        """
        t_rfc = self._t_rfc
        # Refreshes that completed before `begin` happened in idle gaps.
        while self._next_refresh_at + t_rfc <= begin:
            self._next_refresh_at += self._t_refi
        if self._next_refresh_at <= begin:
            # Collision: wait out the refresh; rows are closed by it.
            stalled_from = begin
            begin = self._next_refresh_at + t_rfc
            self._next_refresh_at += self._t_refi
            for bank in self.banks:
                bank.precharge_all()
            self.stats.refresh_windows_hit += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "dram",
                    "refresh_collision",
                    cycle=int(stalled_from),
                    stall_cycles=int(begin - stalled_from),
                )
        return begin

    # -- power-model export -------------------------------------------------------

    def utilization(self, total_cycles: int) -> BankUtilization:
        """Summarize this run as utilization fractions/rates for the power model.

        With the aggressive power-down policy, all non-busy time is spent
        in precharge power-down.
        """
        if total_cycles <= 0:
            raise ConfigurationError("total_cycles must be positive")
        seconds = total_cycles / PROC_HZ
        busy_frac = min(1.0, self.stats.busy_cycles / total_cycles)
        return BankUtilization(
            frac_active_standby=busy_frac,
            frac_precharge_standby=0.0,
            frac_active_powerdown=0.0,
            frac_precharge_powerdown=1.0 - busy_frac,
            activates_per_second=self.stats.activates / seconds,
            read_bursts_per_second=self.stats.reads / seconds,
            write_bursts_per_second=self.stats.writes / seconds,
        )
