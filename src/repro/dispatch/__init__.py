"""Fault-tolerant distributed dispatch backend for the experiment runner.

``repro.dispatch`` turns :class:`repro.analysis.runner.ExperimentRunner`
into a multi-machine fan-out: a coordinator distributes
:class:`~repro.analysis.runner.JobSpec` s to worker processes over a
stdlib JSON-lines TCP protocol with

* lease-based assignment (expired leases requeue; jobs are never lost
  and results commit exactly once under content-hash cache keys),
* per-worker health tracking (heartbeats, consecutive-failure
  quarantine, slow-worker eviction),
* bounded retries with decorrelated-jitter backoff, and
* graceful degradation to the local process pool when the coordinator
  cannot bind or every worker dies.

Select it with ``ExperimentRunner(backend="dispatch")``, the CLI's
``--runner-backend dispatch``, or ``REPRO_RUNNER_BACKEND=dispatch``;
attach extra machines with ``repro workers --connect HOST:PORT``.

Job specs travel as their canonical describe JSON
(:func:`~repro.dispatch.protocol.encode_spec`); workers rebuild them with
:meth:`~repro.analysis.runner.JobSpec.from_describe` and never unpickle
anything received over the network.
"""

from repro.dispatch.backend import DispatchBackend, spawn_local_worker
from repro.dispatch.coordinator import Coordinator, DispatchConfig, WorkerInfo
from repro.dispatch.ledger import JobLedger, JobState, LedgerJob, replay_ledger
from repro.dispatch.protocol import (
    FAULT_MODES,
    PROTOCOL_VERSION,
    decode_message,
    decode_spec,
    encode_message,
    encode_spec,
)

__all__ = [
    "Coordinator",
    "DispatchBackend",
    "DispatchConfig",
    "FAULT_MODES",
    "JobLedger",
    "JobState",
    "LedgerJob",
    "PROTOCOL_VERSION",
    "WorkerInfo",
    "decode_message",
    "decode_spec",
    "encode_message",
    "encode_spec",
    "replay_ledger",
    "spawn_local_worker",
]
