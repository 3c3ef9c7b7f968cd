"""Trace-driven cycle engine (USIMM-style, paper Sec. IV-A).

Core model: in-order, 2-wide retire at 1.6 GHz (paper Table II).  Gap
(non-memory) instructions retire at the trace's calibrated non-memory CPI;
a demand read blocks retirement until its data returns from the memory
controller *plus* the active ECC scheme's decode latency — the mechanism
behind the paper's entire performance story.  Dirty write-backs are posted
to the controller's write queue without blocking.

ECC behaviour is injected via an :class:`repro.core.policy.EccPolicy`;
MECC's downgrade write-backs enter the same write queue and therefore cost
real bandwidth and power.  A stateless policy (no-ECC, SEC-DED, ECC-6) is
not called per access: its constant read action is used directly and its
reads are charged to the decode counters once per run.
"""

from __future__ import annotations

from repro.core.policy import EccPolicy, NoEccPolicy
from repro.dram.config import PROC_HZ, DramOrganization, DramTimings
from repro.dram.controller import MemoryController
from repro.power.energy import ActiveEnergyModel, CodecActivity
from repro.types import SimResult
from repro.workloads.trace import Trace


class SimulationEngine:
    """Run traces against one ECC policy and one memory controller.

    Args:
        policy: the ECC policy under evaluation.
        controller: the memory controller (fresh one by default).
        energy_model: converts utilization + codec events to joules.
    """

    def __init__(
        self,
        policy: EccPolicy | None = None,
        controller: MemoryController | None = None,
        energy_model: ActiveEnergyModel | None = None,
        org: DramOrganization | None = None,
        timings: DramTimings | None = None,
        tracer=None,
        invariants=None,
    ):
        self.policy = policy or NoEccPolicy()
        self.controller = controller or MemoryController(org=org, timings=timings)
        self.energy_model = energy_model or ActiveEnergyModel()
        # Observability (repro.obs): the tracer and invariant suite are
        # propagated to the policy (which forwards them to the MECC core)
        # and the memory controller.  Both default to None — the per-access
        # hot loop below is untouched and emit sites stay dormant.
        self.tracer = tracer
        self.invariants = invariants
        self.policy.attach_observer(tracer, invariants)
        self.controller.tracer = tracer

    def run(self, trace: Trace) -> SimResult:
        """Simulate the whole trace; returns the run summary.

        The engine is reusable: each call starts from a pristine
        controller and policy (per-run stats and per-line ECC state are
        reset), so back-to-back runs of one engine match runs on fresh
        engines instead of accumulating counters across runs.
        """
        policy = self.policy
        controller = self.controller
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "engine",
                "run_start",
                trace=trace.name,
                policy=policy.name,
                records=len(trace),
                instructions=trace.instructions,
            )
        controller.reset()
        policy.reset()
        # None for a policy that must see every access (MECC).
        constant = policy.constant_read_action()
        on_read = policy.on_read
        on_write_batch = policy.on_write_batch
        read = controller.read
        write = controller.write
        write_batch = controller.write_batch
        # Each record's (bank, row), decoded once per trace and geometry.
        banks, rows = trace.decoded(controller.mapper)
        cpi = trace.nonmem_cpi
        retire = 0.0  # retirement clock, processor cycles
        reads = 0
        gaps = 0  # gap instructions; instructions = gaps + reads
        read_latency_sum = 0
        # The pending run of consecutive write-backs.  Writes never move
        # the retirement clock, so coalescing them reproduces the scalar
        # per-record loop cycle for cycle while the policy/controller
        # dispatch is paid once per run, just before the next read.
        write_addresses: list[int] = []
        write_nows: list[int] = []
        write_coords: list[tuple[int, int]] = []
        for gap, is_write, address, bank, row in zip(
            trace.gaps, trace.ops, trace.addresses, banks, rows
        ):
            if gap:
                retire += gap * cpi
                gaps += gap
            now = int(retire)
            if is_write:
                write_addresses.append(address)
                write_nows.append(now)
                write_coords.append((bank, row))
                continue
            if write_addresses:
                if constant is None:
                    on_write_batch(write_addresses, write_nows)
                write_batch(write_addresses, write_nows, write_coords)
                write_addresses = []
                write_nows = []
                write_coords = []
            action = on_read(address, now) if constant is None else constant
            data_done = read(address, now, bank, row)
            # Cycle accounting is integral: only the retirement clock
            # carries the sub-cycle remainder of gap retirement.
            completion = int(data_done + action.decode_cycles)
            if action.writeback:
                # ECC-Downgrade re-encode: off the critical path.
                write(address, completion, bank, row)
            reads += 1
            read_latency_sum += completion - now
            retire = float(completion)
        if write_addresses:
            if constant is None:
                on_write_batch(write_addresses, write_nows)
            write_batch(write_addresses, write_nows, write_coords)
        if constant is not None:
            policy.count_reads(reads)
        total_cycles = max(1, int(retire))
        policy.on_run_end(total_cycles)
        if tracer is not None:
            tracer.emit(
                "engine",
                "run_end",
                cycle=total_cycles,
                reads=reads,
                writes=controller.stats.writes,
                downgrades=policy.downgrades,
            )
        return self._summarize(total_cycles, gaps + reads, reads, read_latency_sum)

    def _summarize(
        self, total_cycles: int, instructions: int, reads: int, read_latency_sum: int
    ) -> SimResult:
        policy = self.policy
        stats = self.controller.stats
        util = self.controller.utilization(total_cycles)
        duration_s = total_cycles / PROC_HZ
        codec = CodecActivity(
            weak_decodes=policy.weak_decodes,
            strong_decodes=policy.strong_decodes,
            encodes=stats.writes,
        )
        energy = self.energy_model.energy(util, duration_s, codec)
        # SMD keeps the slow (1 s) refresh while downgrades are disabled:
        # scale the auto-refresh energy for that fraction of time.
        slow_frac = policy.slow_refresh_fraction
        if slow_frac > 0.0:
            factor = (1.0 - slow_frac) + slow_frac / 16.0
            energy.refresh *= factor
        return SimResult(
            instructions=instructions,
            cycles=total_cycles,
            reads=reads,
            writes=stats.writes,
            downgrades=policy.downgrades,
            strong_decodes=policy.strong_decodes,
            weak_decodes=policy.weak_decodes,
            energy=energy,
            read_latency_sum=read_latency_sum,
        )


def simulate(
    trace: Trace,
    policy: EccPolicy | None = None,
    org: DramOrganization | None = None,
    timings: DramTimings | None = None,
    tracer=None,
    invariants=None,
) -> SimResult:
    """Convenience one-shot simulation with fresh engine state."""
    engine = SimulationEngine(
        policy=policy, org=org, timings=timings, tracer=tracer, invariants=invariants
    )
    return engine.run(trace)
