"""Batched engine updates are bit-identical to the scalar per-record loop.

Two locks on the engine's fast paths, both against oracles that share
no code with the controller's closed-loop kernel:

* A *scalar reference engine* — the pre-batching per-record loop,
  re-implemented verbatim here — drives the reference controller below
  and must produce the same cycles, latency sums, controller stats, and
  policy counters as :class:`repro.sim.engine.SimulationEngine`'s
  coalesced write runs, for every policy the paper evaluates.
* A *reference controller* — the controller service path, address decode
  and bank state machine as they were before their per-access invariants
  were hoisted, kept verbatim here — must give the same ``SimResult``,
  controller stats and final bank state as the engine, for every policy,
  both mapping policies, fractional timings and refresh disabled.

Both oracles ask the policy about every access, so they also lock the
kernel's settled-line path (MECC's weak lines served without calling the
policy); ``TestSettledLines`` checks that only strong lines reach it.
"""

import copy
from collections import deque
from dataclasses import dataclass, field

import pytest

from repro.core.policy import MeccPolicy, NoEccPolicy, SecdedPolicy, Ecc6Policy
from repro.core.smd import SelectiveMemoryDowngrade
from repro.dram.address import AddressMapper, LineLocation
from repro.dram.config import DramOrganization, DramTimings
from repro.dram.controller import ControllerStats, MemoryController
from repro.obs.invariants import default_invariant_suite
from repro.obs.trace import EventTracer
from repro.sim.engine import SimulationEngine
from repro.types import EccMode, MemoryOp, TraceRecord
from repro.workloads.spec import BENCHMARKS_BY_NAME
from repro.workloads.trace import Trace

#: Small but non-trivial slice: thousands of coalescible write runs.
TRACE_INSTRUCTIONS = 40_000


def _scalar_reference_run(policy, controller, trace):
    """The pre-batching engine loop: one policy/controller call per record."""
    controller.reset()
    policy.reset()
    cpi = trace.nonmem_cpi
    retire = 0.0
    reads = 0
    latency_sum = 0
    for record in trace.records:
        if record.gap:
            retire += record.gap * cpi
        now = int(retire)
        if record.op is MemoryOp.READ:
            action = policy.on_read(record.address, now)
            data_done = controller.read(record.address, now)
            completion = int(data_done + action.decode_cycles)
            if action.writeback:
                controller.write(record.address, completion)
            reads += 1
            latency_sum += completion - now
            retire = float(completion)
        else:
            policy.on_write(record.address, now)
            controller.write(record.address, now)
    total_cycles = max(1, int(retire))
    policy.on_run_end(total_cycles)
    return total_cycles, reads, latency_sum


POLICIES = {
    "baseline": NoEccPolicy,
    "secded": SecdedPolicy,
    "ecc6": Ecc6Policy,
    "mecc": lambda: MeccPolicy(),
    "mecc+smd": lambda: MeccPolicy(smd=SelectiveMemoryDowngrade()),
    # A short quantum trips the SMD gate mid-run, so lines start to
    # settle (turn weak) after a stretch of gated strong accesses.
    "mecc+smd-tripped": lambda: MeccPolicy(
        smd=SelectiveMemoryDowngrade(quantum_cycles=20_000)
    ),
}


class TestEngineCoalescingEquivalence:
    """Coalesced write runs reproduce the scalar loop cycle for cycle."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("workload", ["sphinx", "omnetpp"])
    def test_cycle_identical_stats(self, policy_name, workload):
        trace = BENCHMARKS_BY_NAME[workload].trace(
            TRACE_INSTRUCTIONS, calibrate=False
        )
        assert trace.writes > 0  # the coalescing path must actually engage

        ref_policy = POLICIES[policy_name]()
        ref_controller = _ReferenceController()
        ref = _scalar_reference_run(ref_policy, ref_controller, trace)
        ref_stats = copy.deepcopy(vars(ref_controller.stats))

        engine = SimulationEngine(
            policy=POLICIES[policy_name](), controller=MemoryController()
        )
        result = engine.run(trace)

        assert (result.cycles, result.reads, result.read_latency_sum) == ref
        assert vars(engine.controller.stats) == ref_stats
        assert (
            engine.policy.strong_decodes,
            engine.policy.weak_decodes,
            engine.policy.downgrades,
        ) == (
            ref_policy.strong_decodes,
            ref_policy.weak_decodes,
            ref_policy.downgrades,
        )


class _ReferenceMapper(AddressMapper):
    """Address decode before the allocation-free ``bank_row`` split."""

    def locate(self, byte_address: int) -> LineLocation:
        """Coordinates of the line containing ``byte_address``.

        Addresses beyond capacity wrap (traces are generated modulo the
        footprint, so this is a guard, not a normal path).
        """
        line = self.line_address(byte_address) % self.org.total_lines
        if self.policy == "row-interleaved":
            column_line = line % self._lines_per_row
            line //= self._lines_per_row
            bank = line % self._banks
            row = (line // self._banks) % self._rows
        else:  # block-interleaved
            bank = line % self._banks
            line //= self._banks
            column_line = line % self._lines_per_row
            row = (line // self._lines_per_row) % self._rows
        return LineLocation(bank=bank, row=row, column_line=column_line)


@dataclass
class _ReferenceBank:
    """Bank state machine with ``max()`` and per-call property reads."""

    timings: DramTimings = field(default_factory=DramTimings)
    open_row: int | None = None
    ready_at: int = 0
    last_act_at: int = -(10 ** 12)

    def access(self, row: int, start: int) -> tuple[int, bool, int]:
        """Perform a column access to ``row`` starting no earlier than ``start``.

        Returns ``(data_done, row_hit, activates)`` where ``data_done`` is
        the processor cycle when the data burst completes, ``row_hit`` says
        whether the row buffer was hit, and ``activates`` is the number of
        ACT commands issued (0 or 1).
        """
        t = self.timings
        begin = max(start, self.ready_at)
        if self.open_row == row:
            data_done = begin + t.row_hit_latency
            self.ready_at = data_done
            return data_done, True, 0
        if self.open_row is not None:
            # Precharge may not start before tRAS after the ACT.
            begin = max(begin, self.last_act_at + t.t_ras)
            begin += t.t_rp
        # ACT-to-ACT same bank must respect tRC.
        begin = max(begin, self.last_act_at + t.t_rc)
        self.last_act_at = begin
        self.open_row = row
        data_done = begin + t.row_empty_latency
        self.ready_at = data_done
        return data_done, False, 1

    def precharge_all(self) -> None:
        self.open_row = None


class _ReferenceController(MemoryController):
    """The controller's per-access path with nothing hoisted.

    Every timing and geometry constant is re-read per access, ``max()``
    does the clamping, the decode allocates a ``LineLocation``, and the
    opportunistic drain runs even on an empty write queue.  Only the
    configuration and ``utilization`` come from :class:`MemoryController`;
    its state, requests and service path are all defined here.
    """

    def __init__(self, mapping_policy: str = "row-interleaved", **kwargs):
        super().__init__(mapping_policy=mapping_policy, **kwargs)
        self.mapper = _ReferenceMapper(self.org, policy=mapping_policy)
        self.reset()

    def reset(self) -> None:
        self.banks = [
            _ReferenceBank(self.timings) for _ in range(self.mapper.total_banks)
        ]
        self.write_queue = deque()
        self.stats = ControllerStats()
        self._data_bus_free_at = [0] * self.org.channels
        self._busy_until = 0
        self._next_refresh_at = self.timings.t_refi
        n_ranks = self.org.channels * self.org.ranks
        self._last_act_start = [-(10 ** 12)] * n_ranks
        self._act_window = [deque(maxlen=4) for _ in range(n_ranks)]

    # The per-bank state as the kernel keeps it: one flat list per field.

    @property
    def _open_row(self):
        return [bank.open_row for bank in self.banks]

    @property
    def _ready_at(self):
        return [bank.ready_at for bank in self.banks]

    @property
    def _last_act_at(self):
        return [bank.last_act_at for bank in self.banks]

    def write(self, address: int, now: int) -> None:
        self.write_queue.append(address)
        if len(self.write_queue) >= self.write_queue_capacity:
            self._drain_writes(now)

    def read(self, address: int, now: int) -> int:
        self._opportunistic_drain(now)
        if len(self.write_queue) >= self.write_queue_capacity:
            self._drain_writes(now)
        done = int(self._service(address, now))
        self.stats.reads += 1
        return done

    def _opportunistic_drain(self, now: int) -> None:
        slot = 2 * self.timings.t_burst
        while self.write_queue and now - self._busy_until >= slot:
            address = self.write_queue.popleft()
            self._service(address, self._busy_until)
            self.stats.writes += 1

    def _drain_writes(self, now: int) -> None:
        self.stats.write_drains += 1
        t = now
        while len(self.write_queue) > self.write_drain_low:
            address = self.write_queue.popleft()
            t = self._service(address, t)
            self.stats.writes += 1

    def _service(self, address: int, now: int) -> int:
        """Common timing path for a 64B column access (read or write)."""
        loc = self.mapper.locate(address)
        begin = now
        # Aggressive power-down: a long-enough idle gap means the rank was
        # powered down and must pay the exit latency.
        if begin - self._busy_until >= self.powerdown_gap_cycles:
            begin += self.timings.t_xp
            self.stats.powerdown_exits += 1
        begin = self._apply_refresh(begin)
        bank = self.banks[loc.bank]
        rank = loc.bank // self.org.banks
        # ACT pacing: if this access will open a row, respect tRRD (ACT to
        # ACT, any bank of the rank) and tFAW (at most four ACTs per
        # rolling window).
        if bank.open_row != loc.row:
            t = self.timings
            begin = max(begin, self._last_act_start[rank] + t.t_rrd)
            window = self._act_window[rank]
            if len(window) == 4:
                begin = max(begin, window[0] + t.t_faw)
        data_done, row_hit, activates = bank.access(loc.row, begin)
        if activates:
            act_start = data_done - self.timings.row_empty_latency
            self._last_act_start[rank] = max(self._last_act_start[rank], act_start)
            self._act_window[rank].append(act_start)
        # Data-bus contention: the burst phase may not overlap a previous
        # burst on the same channel.
        channel = loc.bank // self._banks_per_channel
        data_start = data_done - self.timings.t_burst
        if data_start < self._data_bus_free_at[channel]:
            shift = self._data_bus_free_at[channel] - data_start
            data_done += shift
            bank.ready_at += shift
        self._data_bus_free_at[channel] = data_done
        self.stats.activates += activates
        if row_hit:
            self.stats.row_hits += 1
        # Busy-time envelope for the power model.
        overlap_start = max(begin, self._busy_until)
        if data_done > overlap_start:
            self.stats.busy_cycles += int(data_done - overlap_start)
        self._busy_until = max(self._busy_until, data_done)
        return data_done

    def _apply_refresh(self, begin: int) -> int:
        if not self._refresh_enabled:
            return begin
        t = self.timings
        while self._next_refresh_at + t.t_rfc <= begin:
            self._next_refresh_at += t.t_refi
        if self._next_refresh_at <= begin:
            begin = self._next_refresh_at + t.t_rfc
            self._next_refresh_at += t.t_refi
            for bank in self.banks:
                bank.precharge_all()
            self.stats.refresh_windows_hit += 1
        return begin


def _controller_state(controller):
    """Everything a run leaves in the controller and its banks."""
    return {
        "stats": vars(controller.stats),
        "open_row": controller._open_row,
        "ready_at": controller._ready_at,
        "last_act_at": controller._last_act_at,
        "busy_until": controller._busy_until,
        "next_refresh_at": controller._next_refresh_at,
        "data_bus_free_at": controller._data_bus_free_at,
        "last_act_start": controller._last_act_start,
        "act_window": [list(w) for w in controller._act_window],
        "write_queue": list(controller.write_queue),
    }


#: (organization, timings, refresh enabled): the defaults, fractional
#: (float) timings, refresh off, timings where tRC and tFAW bind, and two
#: channels (per-channel data buses).
CONFIG_VARIANTS = {
    "default": (DramOrganization(), DramTimings(), True),
    "float": (DramOrganization(), DramTimings(t_rcd=24.5, t_cl=24.25), True),
    "no-refresh": (DramOrganization(), DramTimings(), False),
    "tight-act": (DramOrganization(), DramTimings(t_rc=120, t_faw=400), True),
    "two-channel": (DramOrganization(channels=2), DramTimings(), True),
}


class TestControllerMatchesReference:
    """The hoisted controller path is cycle-identical to the reference."""

    @pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
    @pytest.mark.parametrize("mapping", ["row-interleaved", "block-interleaved"])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_engine_matches_reference_controller(
        self, policy_name, mapping, variant
    ):
        org, timings, refresh = CONFIG_VARIANTS[variant]
        # lbm: write drains, refresh collisions and ACT pacing all engage.
        trace = BENCHMARKS_BY_NAME["lbm"].trace(TRACE_INSTRUCTIONS, calibrate=False)

        ref_controller = _ReferenceController(
            mapping_policy=mapping, org=org, timings=timings
        )
        ref_controller.set_refresh_enabled(refresh)
        ref_engine = SimulationEngine(
            policy=POLICIES[policy_name](), controller=ref_controller
        )
        cycles, reads, latency_sum = _scalar_reference_run(
            ref_engine.policy, ref_controller, trace
        )
        expected = ref_engine._summarize(
            cycles, trace.instructions, reads, latency_sum
        )

        controller = MemoryController(
            mapping_policy=mapping, org=org, timings=timings
        )
        controller.set_refresh_enabled(refresh)
        engine = SimulationEngine(
            policy=POLICIES[policy_name](), controller=controller
        )
        result = engine.run(trace)

        assert result == expected
        assert _controller_state(controller) == _controller_state(ref_controller)
        # The run must reach the paths under test.
        stats = ref_controller.stats
        assert stats.powerdown_exits > 0 and stats.activates > 0
        assert stats.row_hits > 0 and stats.write_drains > 0
        assert (stats.refresh_windows_hit > 0) == refresh


class TestTracedRun:
    """A tracer changes no timing, and each rare path emits once per event."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_traced_run_matches_untraced(self, policy_name):
        trace = BENCHMARKS_BY_NAME["lbm"].trace(TRACE_INSTRUCTIONS, calibrate=False)
        plain = SimulationEngine(policy=POLICIES[policy_name]())
        expected = plain.run(trace)
        tracer = EventTracer()
        traced = SimulationEngine(policy=POLICIES[policy_name](), tracer=tracer)

        assert traced.run(trace) == expected
        assert _controller_state(traced.controller) == _controller_state(
            plain.controller
        )
        assert tracer.dropped == 0
        stats = traced.controller.stats
        for kind, count in (
            ("write_drain", stats.write_drains),
            ("refresh_collision", stats.refresh_windows_hit),
        ):
            cycles = [event.cycle for event in tracer.select("dram", kind)]
            assert count > 0 and len(cycles) == count
            assert cycles == sorted(cycles)


class _CountingMecc(MeccPolicy):
    """MECC that counts the reads and writes the engine passes to it."""

    def __init__(self, smd=None):
        super().__init__(smd=smd)
        self.read_calls = 0
        self.written = 0
        self.written_weak = 0

    def on_read(self, byte_address, now):
        self.read_calls += 1
        return super().on_read(byte_address, now)

    def on_write_batch(self, byte_addresses, nows):
        self.written += len(byte_addresses)
        store = self.controller.line_store
        self.written_weak += sum(
            store.mode_of(address // store.org.line_bytes) is EccMode.WEAK
            for address in byte_addresses
        )
        super().on_write_batch(byte_addresses, nows)


COUNTING_MECC = {
    "mecc": lambda: _CountingMecc(),
    "mecc+smd-tripped": lambda: _CountingMecc(
        smd=SelectiveMemoryDowngrade(quantum_cycles=20_000)
    ),
}


def _mecc_state(policy):
    """What a run leaves in the MECC controller, its MDT and SMD gate."""
    controller = policy.controller
    return {
        "weak_lines": controller.line_store.weak_lines,
        "marked_regions": controller.mdt.marked_regions,
        "counters": (
            controller.strong_decodes,
            controller.weak_decodes,
            controller.downgrades,
        ),
        "smd_enabled_at": policy.smd and policy.smd.enabled_at_cycle,
    }


class TestSettledLines:
    """The kernel serves MECC's weak (settled) lines without the policy."""

    @pytest.mark.parametrize("policy_name", sorted(COUNTING_MECC))
    @pytest.mark.parametrize("workload", ["lbm", "omnetpp"])
    def test_only_strong_accesses_reach_the_policy(self, policy_name, workload):
        trace = BENCHMARKS_BY_NAME[workload].trace(
            TRACE_INSTRUCTIONS, calibrate=False
        )
        engine = SimulationEngine(policy=COUNTING_MECC[policy_name]())
        result = engine.run(trace)
        policy = engine.policy
        # Every read the policy is asked about decodes strong; the weak
        # ones were served by the kernel and charged through count_reads.
        assert policy.read_calls == policy.strong_decodes == result.strong_decodes
        assert result.weak_decodes > 0
        assert result.strong_decodes + result.weak_decodes == result.reads
        # Only writes to lines still strong are batched for the policy.
        assert policy.written < trace.writes
        assert policy.written_weak == 0
        # Counting changes nothing: a plain MECC run gives the same run.
        plain = SimulationEngine(policy=POLICIES[policy_name]())
        assert plain.run(trace) == result
        assert _controller_state(plain.controller) == _controller_state(
            engine.controller
        )
        assert _mecc_state(plain.policy) == _mecc_state(policy)

    def test_write_run_settles_the_read_that_ends_it(self):
        """A line made weak by a write run is settled for the next read."""
        R, W = MemoryOp.READ, MemoryOp.WRITE
        trace = Trace(
            name="write-then-read",
            records=[
                TraceRecord(gap=0, op=W, address=4096),
                TraceRecord(gap=5, op=R, address=4096),
                TraceRecord(gap=0, op=W, address=4096),
                TraceRecord(gap=5, op=R, address=8192),
            ],
        )
        engine = SimulationEngine(policy=_CountingMecc())
        result = engine.run(trace)
        assert (result.strong_decodes, result.weak_decodes) == (1, 1)
        assert (engine.policy.read_calls, engine.policy.written) == (1, 1)

    @pytest.mark.parametrize("policy_name", sorted(COUNTING_MECC))
    def test_invariant_suite_sees_every_access(self, policy_name):
        trace = BENCHMARKS_BY_NAME["lbm"].trace(TRACE_INSTRUCTIONS, calibrate=False)
        plain = SimulationEngine(policy=COUNTING_MECC[policy_name]())
        expected = plain.run(trace)
        suite = default_invariant_suite()
        checked = SimulationEngine(
            policy=COUNTING_MECC[policy_name](), invariants=suite
        )

        assert checked.policy.settled_lines() is None
        assert checked.run(trace) == expected
        assert _controller_state(checked.controller) == _controller_state(
            plain.controller
        )
        assert _mecc_state(checked.policy) == _mecc_state(plain.policy)
        # The per-access path: the policy saw every read and every write.
        assert checked.policy.read_calls == expected.reads
        assert checked.policy.written == trace.writes
        assert checked.policy.written_weak > 0
        assert plain.policy.read_calls < expected.reads


def _write_heavy_trace():
    """Reads, write-only runs with gaps, and a trailing write run."""
    R, W = MemoryOp.READ, MemoryOp.WRITE
    pattern = [
        (3, W, 0), (0, W, 64), (5, R, 4096), (2, W, 128), (7, W, 1 << 20),
        (0, R, 8192), (11, R, 64), (4, W, 192), (0, W, 256), (9, W, 320),
    ]
    records = [
        TraceRecord(gap=gap + i % 3, op=op, address=address + (i << 14))
        for i in range(40)
        for gap, op, address in pattern
    ]
    return Trace(name="write-heavy", records=records, nonmem_cpi=0.7)


class TestInLoopInstructionCount:
    """The engine counts instructions while it runs, write runs included."""

    @pytest.mark.parametrize(
        "trace",
        [
            _write_heavy_trace(),
            Trace(
                name="writes-only",
                records=[
                    TraceRecord(gap=i % 4, op=MemoryOp.WRITE, address=64 * i)
                    for i in range(50)
                ],
            ),
            BENCHMARKS_BY_NAME["omnetpp"].trace(
                TRACE_INSTRUCTIONS, calibrate=False
            ),
        ],
        ids=["write-heavy", "writes-only", "omnetpp"],
    )
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_instructions_match_trace(self, trace, policy_name):
        result = SimulationEngine(policy=POLICIES[policy_name]()).run(trace)
        assert result.instructions == trace.instructions

