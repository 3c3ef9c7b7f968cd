"""Batched engine updates are bit-identical to the scalar per-record loop.

Two locks on the engine's fast paths:

* A *scalar reference engine* — the pre-batching per-record loop,
  re-implemented verbatim here — must produce the same cycles, latency
  sums, controller stats, and policy counters as
  :class:`repro.sim.engine.SimulationEngine`'s coalesced write runs, for
  every policy the paper evaluates.
* A *reference controller* — the controller service path, address decode
  and bank state machine as they were before their per-access invariants
  were hoisted, kept verbatim here — must give the same ``SimResult``,
  controller stats and final bank state as the engine, for every policy,
  both mapping policies, fractional timings and refresh disabled.
"""

import copy
from dataclasses import dataclass, field

import pytest

from repro.core.policy import MeccPolicy, NoEccPolicy, SecdedPolicy, Ecc6Policy
from repro.core.smd import SelectiveMemoryDowngrade
from repro.dram.address import AddressMapper, LineLocation
from repro.dram.config import DramOrganization, DramTimings
from repro.dram.controller import MemoryController
from repro.sim.engine import SimulationEngine
from repro.types import MemoryOp, TraceRecord
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
        ref_controller = MemoryController()
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
    opportunistic drain runs even on an empty write queue.
    """

    def __init__(self, mapping_policy: str = "row-interleaved", **kwargs):
        super().__init__(mapping_policy=mapping_policy, **kwargs)
        self.mapper = _ReferenceMapper(self.org, policy=mapping_policy)
        self.reset()

    def reset(self) -> None:
        super().reset()
        self.banks = [
            _ReferenceBank(self.timings) for _ in range(self.mapper.total_banks)
        ]

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
        "banks": [(b.open_row, b.ready_at, b.last_act_at) for b in controller.banks],
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

