"""Out-of-order core model: ROB-windowed memory-level parallelism.

The paper's core is in-order (every miss exposes its full latency —
:mod:`repro.sim.engine`).  USIMM itself also supports out-of-order
traces, where a reorder buffer lets independent misses overlap.  This
model adds that capability:

* instructions enter the ROB up to ``rob_size`` ahead of retirement;
* a read issues to the memory controller when it *enters* the ROB (its
  address is known from the trace, as in USIMM);
* retirement is in order, ``retire_width`` per cycle; a read retires no
  earlier than its data (plus ECC decode) returns.

The ROB-entry time of instruction *n* is the retirement time of
instruction *n - rob_size*, tracked with a compact checkpoint list and
linear interpolation between checkpoints.

With ``rob_size = 1`` this degenerates to the blocking in-order model,
which the tests verify — and the MLP ablation shows why the paper's
in-order configuration is the worst case for always-on strong ECC.
"""

from __future__ import annotations

from collections import deque

from repro.core.policy import EccPolicy, NoEccPolicy
from repro.dram.config import PROC_HZ, DramOrganization, DramTimings
from repro.dram.controller import MemoryController
from repro.errors import ConfigurationError
from repro.power.energy import ActiveEnergyModel, CodecActivity
from repro.types import SimResult
from repro.workloads.trace import Trace


class _RetireTimeline:
    """Maps instruction index -> retirement time, queried monotonically."""

    def __init__(self):
        self._points: deque[tuple[int, float]] = deque([(0, 0.0)])

    def record(self, instr_index: int, time: float) -> None:
        last_index, last_time = self._points[-1]
        if instr_index < last_index or time < last_time:
            raise ConfigurationError("retire timeline must be monotone")
        self._points.append((instr_index, time))

    def time_of(self, instr_index: int) -> float:
        """Retirement time of an instruction (linear between checkpoints).

        Queries are non-decreasing, so consumed checkpoints are dropped.
        """
        if instr_index <= 0:
            return 0.0
        points = self._points
        while len(points) >= 2 and points[1][0] <= instr_index:
            points.popleft()
        i0, t0 = points[0]
        if len(points) == 1 or instr_index <= i0:
            return t0
        i1, t1 = points[1]
        if i1 == i0:
            return t1
        frac = (instr_index - i0) / (i1 - i0)
        return t0 + frac * (t1 - t0)


class OooSimulationEngine:
    """Trace-driven engine with a reorder-buffer core model.

    Args:
        policy: the ECC policy under evaluation.
        rob_size: reorder-buffer depth in instructions (1 = blocking).
        retire_width: instructions retired per cycle.
        controller: the memory controller.
    """

    def __init__(
        self,
        policy: EccPolicy | None = None,
        rob_size: int = 64,
        retire_width: int = 2,
        controller: MemoryController | None = None,
        energy_model: ActiveEnergyModel | None = None,
        org: DramOrganization | None = None,
        timings: DramTimings | None = None,
    ):
        if rob_size < 1:
            raise ConfigurationError("rob_size must be >= 1")
        if retire_width < 1:
            raise ConfigurationError("retire_width must be >= 1")
        self.policy = policy or NoEccPolicy()
        self.rob_size = rob_size
        self.retire_width = retire_width
        self.controller = controller or MemoryController(org=org, timings=timings)
        self.energy_model = energy_model or ActiveEnergyModel()

    def run(self, trace: Trace) -> SimResult:
        policy = self.policy
        controller = self.controller
        cpi = max(trace.nonmem_cpi, 1.0 / self.retire_width)
        timeline = _RetireTimeline()
        retire = 0.0
        instr_index = 0
        last_issue = 0
        reads = 0
        read_latency_sum = 0
        for gap, is_write, address in zip(trace.gaps, trace.ops, trace.addresses):
            if gap:
                instr_index += gap
                retire += gap * cpi
            now = int(retire)
            if not is_write:
                instr_index += 1
                # The read issues when it enters the ROB: when instruction
                # (n - rob_size) retired — or immediately if the window
                # already covers it.  Controller issue times must be
                # monotone, so clamp to the previous issue.
                entry = timeline.time_of(instr_index - self.rob_size)
                issue = max(int(entry), last_issue)
                # The ROB cannot see past an unretired read with rob=1.
                if self.rob_size == 1:
                    issue = max(issue, now)
                action = policy.on_read(address, issue)
                data_done = controller.read(address, issue)
                completion = data_done + action.decode_cycles
                if action.writeback:
                    controller.write(address, completion)
                reads += 1
                read_latency_sum += max(0, completion - now)
                last_issue = issue
                # In-order retirement: the read retires after both its
                # program-order predecessors and its data.
                retire = max(retire + cpi, float(completion))
                timeline.record(instr_index, retire)
            else:
                policy.on_write(address, now)
                controller.write(address, now)
        total_cycles = max(1, int(retire))
        policy.on_run_end(total_cycles)
        stats = controller.stats
        util = controller.utilization(total_cycles)
        codec = CodecActivity(
            weak_decodes=policy.weak_decodes,
            strong_decodes=policy.strong_decodes,
            encodes=stats.writes,
        )
        energy = self.energy_model.energy(util, total_cycles / PROC_HZ, codec)
        slow_frac = policy.slow_refresh_fraction
        if slow_frac > 0.0:
            energy.refresh *= (1.0 - slow_frac) + slow_frac / 16.0
        return SimResult(
            instructions=trace.instructions,
            cycles=total_cycles,
            reads=reads,
            writes=stats.writes,
            downgrades=policy.downgrades,
            strong_decodes=policy.strong_decodes,
            weak_decodes=policy.weak_decodes,
            energy=energy,
            read_latency_sum=read_latency_sum,
        )
