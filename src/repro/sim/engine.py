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
not called per access: its constant read action is used directly.  MECC
is called only for accesses to lines that are still strong; the kernel
serves its weak (settled) lines itself.  Reads served without asking are
charged to the decode counters once per run.

The loop itself is the memory controller's kernel
(:meth:`repro.dram.controller.MemoryController.run`); the engine resets
the controller and policy, hands it the trace columns and the policy's
hooks, and summarizes the run.
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
        # loop tests the tracer only on its rare paths.
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
        # None for a policy whose reads depend on its state (MECC).
        constant = policy.constant_read_action()
        settled, line_bytes, decode_cycles = (), 1, 0
        if constant is None:
            on_read, on_write_batch = policy.on_read, policy.on_write_batch
            # Fetched after reset(), which may replace the policy's state.
            view = policy.settled_lines()
            if view is not None:
                settled, line_bytes, decode_cycles = view
        else:
            on_read = on_write_batch = None
            decode_cycles = constant.decode_cycles
        # Each record's (bank, row), decoded once per trace and geometry.
        banks, rows = trace.decoded(controller.mapper)
        # The whole closed loop runs in the controller's kernel.
        retire, gaps, reads, read_latency_sum, _, unasked = controller.run(
            zip(trace.gaps, trace.ops, trace.addresses, banks, rows),
            cpi=trace.nonmem_cpi,
            on_read=on_read,
            on_write_batch=on_write_batch,
            decode_cycles=decode_cycles,
            settled=settled,
            line_bytes=line_bytes,
        )
        policy.count_reads(unasked)
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
