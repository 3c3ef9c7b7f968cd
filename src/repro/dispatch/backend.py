"""Dispatch execution backend for :class:`repro.analysis.runner.ExperimentRunner`.

The runner calls :meth:`DispatchBackend.execute` with the same contract
its process-pool path uses — ``(pending, harvest)`` in, ``(failed,
leftover)`` out — so dispatch slots in as a peer of the local pool:

* results are harvested (cached + checkpointed) as they commit, in the
  coordinator's event loop, via the runner's own harvest closure and
  the job's content-hash cache key, making commits idempotent end to
  end;
* jobs the ledger marks ``failed`` (after its bounded retries) come
  back as final errors;
* jobs left ``pending`` when every worker died come back as *leftover*
  and run locally — graceful degradation, not data loss.

Total infrastructure unavailability (cannot bind, no worker ever
connected) raises :class:`repro.errors.DispatchUnavailableError`, which
the runner turns into a single warning plus a counted fallback to the
local pool.  Never a crash.
"""

from __future__ import annotations

import asyncio
import logging
import os
import subprocess
import sys
import time

from repro.dispatch.coordinator import Coordinator, DispatchConfig
from repro.dispatch.ledger import JobState
from repro.ecc import backend as codec_backend
from repro.errors import DispatchJobError, DispatchUnavailableError

logger = logging.getLogger("repro.dispatch")


def spawn_local_worker(
    host: str,
    port: int,
    index: int = 0,
    fault: tuple[str, float] = ("none", 0.0),
    worker_id: str | None = None,
) -> subprocess.Popen:
    """Start one worker subprocess attached to ``host:port``.

    The parent's codec-backend request is propagated through the
    environment (the same fix the pool initializer applies), so a forced
    ``--codec-backend`` sweep stays forced on remote workers too.  The
    directory containing the ``repro`` package is prepended to the
    child's ``PYTHONPATH`` so workers import the *same* code the
    coordinator fingerprinted, even when the parent runs from a source
    tree rather than an installed package.
    """
    env = os.environ.copy()
    requested = codec_backend.requested_backend()
    if requested is not None:
        env[codec_backend.ENV_VAR] = requested
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else os.pathsep.join([package_root, existing])
    )
    command = [
        sys.executable,
        "-m",
        "repro.dispatch.worker",
        "--connect",
        f"{host}:{port}",
        "--id",
        worker_id or f"local-{index}",
    ]
    mode, arg = fault
    if mode != "none":
        command += ["--fault", mode, "--fault-arg", str(arg)]
    return subprocess.Popen(command, env=env)


class DispatchBackend:
    """One sweep's dispatch session: coordinator + spawned local workers."""

    def __init__(self, config: DispatchConfig | None = None, tracer=None):
        self.config = config or DispatchConfig.from_env()
        self.config.validate()
        self.tracer = tracer
        #: Coordinator summary of the last ``execute`` call (for the
        #: runner manifest and ``dispatch.*`` metrics).
        self.summary: dict | None = None

    def execute(self, pending, harvest):
        """Run ``(index, spec)`` pairs remotely; returns (failed, leftover).

        ``failed`` entries are ``(index, spec, exception)`` for jobs the
        ledger exhausted; ``leftover`` entries are ``(index, spec)``
        pairs that never completed because workers ran out — the caller
        executes those locally.
        """
        return asyncio.run(self._run(list(pending), harvest))

    async def _run(self, pending, harvest):
        from repro.analysis.runner import code_fingerprint
        from repro.types import SimResult

        code = code_fingerprint()
        failures: dict[int, Exception] = {}

        def on_commit(job_id: int, payload: dict, wall_s: float) -> None:
            index, spec = pending[job_id]
            try:
                triple = (
                    SimResult.from_dict(payload["result"]),
                    payload.get("smd_disabled_fraction"),
                    float(payload.get("wall_s", wall_s)),
                    payload.get("backend"),
                )
                harvest(index, triple)
            except Exception as exc:  # cache/checkpoint failure
                failures[index] = exc

        coordinator = Coordinator(
            self.config, code, on_commit=on_commit, tracer=self.tracer
        )
        try:
            host, port = await coordinator.bind()
        except OSError as exc:
            raise DispatchUnavailableError(
                f"cannot bind dispatch coordinator on "
                f"{self.config.host}:{self.config.port}: {exc}"
            ) from exc

        coordinator.load_jobs(
            [
                (job_id, spec, spec.key(code), spec.label())
                for job_id, (_, spec) in enumerate(pending)
            ]
        )

        spawned: list[subprocess.Popen] = []
        try:
            faults = list(self.config.worker_faults)
            plan = [
                tuple(faults[i]) if i < len(faults) else ("none", 0.0)
                for i in range(self.config.workers)
            ]
            faulted = [i for i, fault in enumerate(plan) if fault[0] != "none"]
            healthy = [i for i, fault in enumerate(plan) if fault[0] == "none"]
            # Faulted workers start first, and healthy peers only once each
            # faulted one holds a lease: a healthy worker can then never
            # drain the sweep before an injected fault fires.
            for i in faulted:
                spawned.append(spawn_local_worker(host, port, i, fault=plan[i]))
            if faulted and healthy:
                await self._await_first_leases(
                    coordinator, spawned, [f"local-{i}" for i in faulted]
                )
            for i in healthy:
                spawned.append(spawn_local_worker(host, port, i, fault=plan[i]))
            await self._await_first_worker(coordinator, spawned)
            await coordinator.run()
        finally:
            self.summary = coordinator.summary()
            await coordinator.close()
            self._terminate(spawned)

        failed = []
        leftover = []
        for job_id, (index, spec) in enumerate(pending):
            job = coordinator.ledger.jobs[job_id]
            if index in failures:
                failed.append((index, spec, failures[index]))
            elif job.state is JobState.FAILED:
                failed.append(
                    (index, spec, DispatchJobError(job.error or "job failed"))
                )
            elif job.state is not JobState.DONE:
                leftover.append((index, spec))
        return failed, leftover

    async def _await_first_leases(self, coordinator, procs, worker_ids) -> None:
        """Block until each named worker has held a lease or exited.

        Gives up silently after ``worker_wait_s``; the caller's
        :meth:`_await_first_worker` decides whether dispatch is usable.
        """
        deadline = time.monotonic() + self.config.worker_wait_s
        while time.monotonic() < deadline:
            if all(
                proc.poll() is not None
                or (
                    worker_id in coordinator.workers
                    and coordinator.workers[worker_id].leases
                )
                for proc, worker_id in zip(procs, worker_ids)
            ):
                return
            await asyncio.sleep(0.01)

    async def _await_first_worker(self, coordinator, spawned) -> None:
        """Block until a worker registers; unavailable if none ever does."""
        deadline = time.monotonic() + self.config.worker_wait_s
        while time.monotonic() < deadline:
            if coordinator.workers_joined > 0:
                return
            if spawned and all(proc.poll() is not None for proc in spawned):
                raise DispatchUnavailableError(
                    "every spawned dispatch worker exited before registering "
                    f"(exit codes {[proc.returncode for proc in spawned]})"
                )
            await asyncio.sleep(0.05)
        raise DispatchUnavailableError(
            f"no dispatch worker connected within {self.config.worker_wait_s:g} s"
        )

    @staticmethod
    def _terminate(spawned: list[subprocess.Popen]) -> None:
        for proc in spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in spawned:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
