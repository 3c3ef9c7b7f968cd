"""Record engine memory traffic as arrival-timed request streams.

Bridges the closed-loop engines (core model drives the controller) and
the open-loop scheduler framework: run any trace/policy combination with
a recording controller, collect the (op, address, arrival-cycle) stream,
and replay it under different scheduling policies or organizations.
"""

from __future__ import annotations

from repro.core.policy import EccPolicy
from repro.dram.config import DramOrganization, DramTimings
from repro.dram.controller import MemoryController
from repro.dram.scheduler import Request
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationEngine
from repro.types import MemoryOp
from repro.workloads.trace import Trace


class RecordingController(MemoryController):
    """A memory controller that logs every transaction's arrival."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded: list[Request] = []

    def read(self, address: int, now: int, bank=None, row=None) -> int:
        self.recorded.append(Request(
            op=MemoryOp.READ, address=address, arrival=now,
            request_id=len(self.recorded),
        ))
        return super().read(address, now, bank, row)

    def write(self, address: int, now: int, bank=None, row=None) -> None:
        self.recorded.append(Request(
            op=MemoryOp.WRITE, address=address, arrival=now,
            request_id=len(self.recorded),
        ))
        super().write(address, now, bank, row)

    def write_batch(self, addresses, nows, coords=None) -> None:
        # The engine coalesces write runs; log each arrival individually.
        recorded = self.recorded
        for address, now in zip(addresses, nows):
            recorded.append(Request(
                op=MemoryOp.WRITE, address=address, arrival=now,
                request_id=len(recorded),
            ))
        super().write_batch(addresses, nows, coords)


def record_requests(
    trace: Trace,
    policy: EccPolicy,
    org: DramOrganization | None = None,
    timings: DramTimings | None = None,
) -> list[Request]:
    """Run a trace through the in-order engine and capture its traffic.

    The returned requests carry fresh ``completion=None`` state, ready
    to be replayed by :class:`repro.dram.scheduler.OpenLoopMemorySystem`
    (including the ECC-Downgrade write-backs MECC injects).
    """
    if not trace.records:
        raise ConfigurationError("cannot record an empty trace")
    controller = RecordingController(org=org, timings=timings)
    engine = SimulationEngine(policy=policy, controller=controller)
    engine.run(trace)
    return [
        Request(op=r.op, address=r.address, arrival=r.arrival, request_id=r.request_id)
        for r in controller.recorded
    ]
