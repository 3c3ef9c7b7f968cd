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

One kernel, :meth:`MemoryController.run`, holds all DRAM timing: it runs
a whole trace's closed loop (retire clock, write runs, drains and the
service step of every read and write) over run-local state.  The scalar
requests (``read``, ``write``, ``write_batch``, ``flush_writes``) are
short calls into it.

Requests carry their DRAM coordinates: the cycle engine passes each
access's ``(bank, row)`` from the trace's memoized decode
(:meth:`repro.workloads.trace.Trace.decoded`), and the write queue keeps
them next to each buffered address, so the service step never decodes.
Callers without coordinates (``read(address, now)``) get them decoded on
entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields

from repro.dram.address import AddressMapper
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
        #: Buffered write-back addresses, oldest first.
        self.write_queue: deque[int] = deque()
        #: ``(bank, row)`` of each :attr:`write_queue` entry, in step.
        self._write_coords: deque[tuple[int, int]] = deque()
        self.write_queue_capacity = write_queue_capacity
        self.write_drain_low = write_drain_low
        self.powerdown_gap_cycles = powerdown_gap_cycles
        #: Optional :class:`repro.obs.trace.EventTracer`; only the *rare*
        #: events (forced drains, refresh collisions) emit, and only the
        #: kernel's rare paths test for it.
        self.tracer = None
        self._bank_row = self.mapper.bank_row
        self._banks_per_channel = self.org.banks * self.org.ranks
        # Integer timings keep every completion time an integer already.
        self._fractional_timings = any(
            type(getattr(self.timings, f.name)) is not int
            for f in fields(self.timings)
        )
        self._refresh_enabled = True
        self.reset()

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
        self.write_queue.clear()
        self._write_coords.clear()
        self.stats = ControllerStats()
        # Per bank: open row (None when precharged), earliest start of
        # the next command, and start of the last ACT (for tRAS/tRC).
        n_banks = self.mapper.total_banks
        self._open_row: list[int | None] = [None] * n_banks
        self._ready_at = [0] * n_banks
        self._last_act_at = [-(10 ** 12)] * n_banks
        # ACT pacing per rank: last ACT start (tRRD) and a sliding window
        # of the last four ACT starts (tFAW).
        n_ranks = self.org.channels * self.org.ranks
        self._last_act_start = [-(10 ** 12)] * n_ranks
        self._act_window = [deque(maxlen=4) for _ in range(n_ranks)]
        self._data_bus_free_at = [0] * self.org.channels
        self._busy_until = 0
        self._next_refresh_at = self.timings.t_refi

    # -- public request interface ----------------------------------------------
    #
    # Each scalar entry is a short call into :meth:`run`: a one-record (or
    # one-run) closed loop whose retire clock starts at ``now``.

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
        return int(self.run(((0, False, address, bank, row),), start=now)[0])

    def write(
        self, address: int, now: int, bank: int | None = None, row: int | None = None
    ) -> None:
        """Buffer a write-back; drains happen in bursts off the read path."""
        if bank is None:
            bank, row = self._bank_row(address)
        self.run(((0, True, address, bank, row),), start=now)

    def write_batch(self, addresses, nows, coords=None) -> None:
        """Buffer a run of write-backs, each arriving at its ``nows`` cycle.

        ``coords`` holds each address's ``(bank, row)`` when the caller
        has them decoded.  Timing-identical to calling :meth:`write` per
        element: the queue fills in access order and forced drains
        trigger at the same arrival cycles.
        """
        if coords is None:
            coords = [self._bank_row(address) for address in addresses]
        # Each record's gap steps the kernel's clock (cpi 1) to its arrival.
        records = []
        previous = 0
        for address, now, (bank, row) in zip(addresses, nows, coords):
            records.append((now - previous, True, address, bank, row))
            previous = now
        self.run(records)

    def flush_writes(self, now: int) -> int:
        """Drain the entire write queue; returns the completion cycle."""
        return self.run((), start=now, flush=True)[4]

    # -- the closed-loop kernel ---------------------------------------------------

    def run(
        self,
        records,
        start: int = 0,
        cpi: float = 1.0,
        on_read=None,
        on_write_batch=None,
        decode_cycles: int = 0,
        flush: bool = False,
        settled=(),
        line_bytes: int = 1,
    ) -> tuple[float, int, int, int, int, int]:
        """Run an in-order core's closed loop over ``records``.

        ``records`` yields ``(gap, is_write, address, bank, row)`` in
        access order.  The retire clock starts at ``start`` and advances
        ``gap * cpi`` per record; a read stalls it until its data returns
        plus its decode latency, and a write is buffered without stalling.
        ``on_read(address, now)`` returns the ECC policy's action for a
        read; ``on_write_batch(addresses, nows)`` sees each run of
        consecutive writes just before the read that ends it.  Accesses
        to the policy's *settled* lines (``address // line_bytes`` in the
        live set ``settled``) are not passed to either hook.  A read the
        policy is not asked about (every read when ``on_read`` is None)
        decodes in ``decode_cycles`` and writes nothing back.  ``flush``
        drains the whole queue after the last record.

        Returns ``(retire, gap_instructions, reads, read_latency_sum,
        drain_done, unasked_reads)``, where ``drain_done`` is the
        completion cycle of the last forced-drain write (``start`` if
        none) and ``unasked_reads`` counts the reads served without
        calling ``on_read``.

        All per-run state lives in locals while the loop runs and is
        stored back on return.  Every access (demand read, drained
        write) goes through the one service step in the loop body;
        drained writes are served first, then the read:

        * forced drains, when an enqueue fills the queue: the oldest
          writes down to :attr:`write_drain_low`, chained from the
          arrival cycle of the write that filled it;
        * opportunistic drains, before a read: the queue head, whenever
          the channel has been idle for a burst slot before the read
          arrives -- this is how ECC-Downgrade write-backs stay off the
          critical path (paper Sec. III-B).

        A forced drain is served before any other access, so deferring
        it from its enqueue to the next service changes no timing.  The
        policy is asked about a read after the forced drains and before
        the idle-slot drains, so policy calls, counters and tracer events
        come in the order of a controller that serves each request as it
        arrives.  Under fractional (float) timings, read completions and
        busy cycles are truncated with ``int()`` as they accrue.
        """
        # Configuration.
        t = self.timings
        t_ras, t_rp, t_rc, t_rrd, t_faw = t.t_ras, t.t_rp, t.t_rc, t.t_rrd, t.t_faw
        t_xp, t_burst, t_rfc, t_refi = t.t_xp, t.t_burst, t.t_rfc, t.t_refi
        row_hit_latency = t.row_hit_latency
        row_empty_latency = t.row_empty_latency
        banks_per_rank = self.org.banks
        banks_per_channel = self._banks_per_channel
        powerdown_gap = self.powerdown_gap_cycles
        refresh_enabled = self._refresh_enabled
        fractional = self._fractional_timings
        capacity = self.write_queue_capacity
        drain_low = self.write_drain_low
        slot = 2 * t_burst
        tracer = self.tracer
        # Per-run state.
        open_row = self._open_row
        ready_at = self._ready_at
        last_act_at = self._last_act_at
        closed = [None] * len(open_row)
        last_act_start = self._last_act_start
        act_window = self._act_window
        bus_free_at = self._data_bus_free_at
        busy_until = self._busy_until
        next_refresh_at = self._next_refresh_at
        queue = self.write_queue
        queued_coords = self._write_coords
        stats = self.stats
        reads = reads_before = stats.reads
        writes = stats.writes
        activates = stats.activates
        row_hits = stats.row_hits
        refresh_windows_hit = stats.refresh_windows_hit
        write_drains = stats.write_drains
        busy_cycles = stats.busy_cycles
        powerdown_exits = stats.powerdown_exits
        # Forced drains not served yet: (start, writes, counted), oldest
        # first; ``owed`` writes in all, ``left`` in the one being served.
        forced: deque[tuple[int, int, bool]] = deque()
        owed = left = 0
        drain_at = start
        # The closed loop.
        retire = float(start)
        gaps = read_latency_sum = 0
        decode, writeback = decode_cycles, False
        # ``ask``: the policy has yet to see the current read.
        per_read = on_read is not None
        ask = False
        asked = 0
        batch_addresses: list[int] | None = None
        batch_nows: list[int] = []
        if on_write_batch is not None:
            batch_addresses = []
        records = iter(records)
        more = True
        try:
            while more:
                # Retire gap instructions and buffer writes up to the next
                # read, or to the end of the records.
                reading = False
                for gap, is_write, address, bank, row in records:
                    if gap:
                        retire += gap * cpi
                        gaps += gap
                    now = int(retire)
                    if not is_write:
                        reading = True
                        ask = per_read
                        break
                    if (
                        batch_addresses is not None
                        and address // line_bytes not in settled
                    ):
                        batch_addresses.append(address)
                        batch_nows.append(now)
                    queue.append(address)
                    queued_coords.append((bank, row))
                    if len(queue) - owed >= capacity:
                        drained = len(queue) - owed - drain_low
                        forced.append((now, drained, True))
                        owed += drained
                else:
                    # The records are exhausted: serve what is owed (with
                    # ``flush``, the whole queue), then stop.
                    more = False
                    if flush and len(queue) > owed:
                        forced.append((int(retire), len(queue) - owed, False))
                        owed = len(queue)
                if batch_addresses:
                    on_write_batch(batch_addresses, batch_nows)
                    batch_addresses = []
                    batch_nows = []
                # A read of a settled line (checked after the write run,
                # which may have settled it) is served without asking.
                if ask and address // line_bytes in settled:
                    decode = decode_cycles
                    writeback = ask = False
                # Serve the forced drains, ask the policy about the read,
                # then serve the idle-slot drains and the read.
                while True:
                    if owed:
                        if not left:
                            drain_at, left, counted = forced.popleft()
                            if counted:
                                write_drains += 1
                                if tracer is not None:
                                    tracer.emit(
                                        "dram", "write_drain",
                                        cycle=drain_at, drained=left,
                                    )
                        queue.popleft()
                        b, r = queued_coords.popleft()
                        begin = drain_at
                        left -= 1
                        owed -= 1
                        kind = 1
                    elif not reading:
                        break
                    elif ask:
                        action = on_read(address, now)
                        decode = action.decode_cycles
                        writeback = action.writeback
                        ask = False
                        asked += 1
                        continue
                    elif queue and now - busy_until >= slot:
                        queue.popleft()
                        b, r = queued_coords.popleft()
                        begin = busy_until
                        kind = 2
                    else:
                        b = bank
                        r = row
                        begin = now
                        reading = False
                        kind = 0

                    # -- service step: one 64 B column access to (b, r)
                    # arriving at ``begin``.  Each ``x > y`` compare keeps
                    # the current value on a tie, as the max() it stands
                    # for.
                    # Aggressive power-down: a long-enough idle gap means
                    # the rank was powered down and pays the exit latency.
                    if begin - busy_until >= powerdown_gap:
                        begin += t_xp
                        powerdown_exits += 1
                    # Auto-refresh: before the next refresh starts, none can
                    # delay the access.  Refreshes that completed before
                    # ``begin`` happened in idle gaps; a collision waits
                    # out the refresh, which closes every row.
                    if begin >= next_refresh_at and refresh_enabled:
                        while next_refresh_at + t_rfc <= begin:
                            next_refresh_at += t_refi
                        if next_refresh_at <= begin:
                            stalled_from = begin
                            begin = next_refresh_at + t_rfc
                            next_refresh_at += t_refi
                            open_row[:] = closed
                            refresh_windows_hit += 1
                            if tracer is not None:
                                tracer.emit(
                                    "dram",
                                    "refresh_collision",
                                    cycle=int(stalled_from),
                                    stall_cycles=int(begin - stalled_from),
                                )
                    # Row buffer: a hit issues the column command once the
                    # bank is ready.
                    bank_open = open_row[b]
                    ready = ready_at[b]
                    if bank_open == r:
                        column = ready if ready > begin else begin
                        data_done = column + row_hit_latency
                        row_hits += 1
                    else:
                        # ACT pacing: tRRD (ACT to ACT, any bank of the
                        # rank) and tFAW (at most four ACTs per rolling
                        # window).
                        rank = b // banks_per_rank
                        earliest = last_act_start[rank] + t_rrd
                        if earliest > begin:
                            begin = earliest
                        window = act_window[rank]
                        if len(window) == 4:
                            earliest = window[0] + t_faw
                            if earliest > begin:
                                begin = earliest
                        # Precharge no earlier than tRAS after the bank's
                        # last ACT, then ACT no earlier than tRC after it.
                        act = ready if ready > begin else begin
                        last_act = last_act_at[b]
                        if bank_open is not None:
                            earliest = last_act + t_ras
                            if earliest > act:
                                act = earliest
                            act += t_rp
                        earliest = last_act + t_rc
                        if earliest > act:
                            act = earliest
                        last_act_at[b] = act
                        open_row[b] = r
                        data_done = act + row_empty_latency
                        activates += 1
                        act_start = data_done - row_empty_latency
                        if act_start > last_act_start[rank]:
                            last_act_start[rank] = act_start
                        window.append(act_start)
                    # Data bus: the burst may not overlap the previous one
                    # on the same channel; the bank stays busy until its
                    # burst is done.
                    channel = b // banks_per_channel
                    data_start = data_done - t_burst
                    if data_start < bus_free_at[channel]:
                        data_done += bus_free_at[channel] - data_start
                    bus_free_at[channel] = data_done
                    ready_at[b] = data_done
                    # Busy-time envelope for the power model.
                    overlap_start = busy_until if busy_until > begin else begin
                    if data_done > overlap_start:
                        if fractional:
                            busy_cycles += int(data_done - overlap_start)
                        else:
                            busy_cycles += data_done - overlap_start
                    if data_done > busy_until:
                        busy_until = data_done
                    # -- end of service step.

                    if kind:
                        writes += 1
                        if kind == 1:
                            drain_at = data_done
                        continue
                    # The read: completion times are whole processor cycles
                    # even under fractional (float) timings.
                    reads += 1
                    if fractional:
                        data_done = int(data_done)
                    completion = int(data_done + decode)
                    if writeback:
                        # ECC-Downgrade re-encode: off the critical path.
                        queue.append(address)
                        queued_coords.append((bank, row))
                        if len(queue) >= capacity:
                            owed = len(queue) - drain_low
                            forced.append((completion, owed, True))
                    read_latency_sum += completion - now
                    retire = float(completion)
                    if not owed:
                        break
        finally:
            self._busy_until = busy_until
            self._next_refresh_at = next_refresh_at
            stats.reads = reads
            stats.writes = writes
            stats.activates = activates
            stats.row_hits = row_hits
            stats.refresh_windows_hit = refresh_windows_hit
            stats.write_drains = write_drains
            stats.busy_cycles = busy_cycles
            stats.powerdown_exits = powerdown_exits
        reads -= reads_before
        return retire, gaps, reads, read_latency_sum, drain_at, reads - asked

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
