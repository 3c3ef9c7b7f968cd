"""Asyncio dispatch coordinator: leases, heartbeats, worker health.

The coordinator owns a :class:`repro.dispatch.ledger.JobLedger` and a
JSON-lines TCP server (same asyncio pattern as
:class:`repro.fleet.service.AdvisoryService`).  Workers connect, say
``hello`` (carrying their code fingerprint — mismatched workers are
rejected, since their results would be cached under wrong keys), then
pull leases, stream heartbeats while computing, and deliver results.

Health tracking per worker:

* **Heartbeats** — every heartbeat renews the job lease and the
  worker's ``last_seen``.  A connection silent past the lease interval
  is treated as lost: its leases requeue immediately.
* **Consecutive-failure quarantine** — ``quarantine_after`` job
  failures in a row stop a worker from receiving further leases (it is
  drained on its next request); one success resets the streak.
* **Slow-worker eviction** — once enough jobs have completed to
  estimate a median wall time, a lease held longer than
  ``max(slow_grace_s, slow_factor * median)`` is evicted and requeued
  on a healthy worker.  The slow worker's eventual result is then
  either a counted duplicate or — if it arrives first — a perfectly
  good commit (first result wins either way).

The coordinator never crashes the sweep: when every live worker is gone
and nothing is mid-flight, :meth:`Coordinator.run` returns with the
unfinished jobs still ``pending`` so the caller (the experiment
runner's dispatch backend) can degrade to local execution.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.dispatch import protocol
from repro.dispatch.ledger import JobLedger, JobState
from repro.errors import ConfigurationError, DispatchProtocolError

logger = logging.getLogger("repro.dispatch")


@dataclass(frozen=True)
class DispatchConfig:
    """Knobs for the dispatch backend, coordinator, and spawned workers.

    Environment overrides (all optional) use the ``REPRO_DISPATCH_*``
    prefix; see :meth:`from_env`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Local worker processes the backend spawns (0 = external workers
    #: only, e.g. started with ``repro workers --connect``).
    workers: int = 2
    lease_s: float = 10.0
    heartbeat_s: float = 2.0
    #: How long the backend waits for the first worker before degrading
    #: to local execution.
    worker_wait_s: float = 15.0
    #: How long the coordinator keeps running with zero live workers
    #: and jobs outstanding before giving the jobs back.
    stall_grace_s: float = 5.0
    retries: int = 2
    retry_backoff_s: float = 0.05
    max_requeues: int = 10
    quarantine_after: int = 3
    slow_factor: float = 8.0
    slow_grace_s: float = 5.0
    #: Completed-job wall samples needed before eviction arms.
    min_wall_samples: int = 3
    #: Durable ledger journal path (None = in-memory only).
    ledger_path: str | None = None
    #: Fault injection for spawned workers (chaos campaigns): one
    #: ``(mode, arg)`` pair per spawned worker index; missing entries
    #: mean healthy.  See ``repro.dispatch.protocol.FAULT_MODES``.
    worker_faults: tuple = ()

    @classmethod
    def from_env(cls, **overrides) -> "DispatchConfig":
        """Build a config from ``REPRO_DISPATCH_*`` variables."""

        def _get(name: str, cast, default):
            raw = os.environ.get(f"REPRO_DISPATCH_{name}")
            return cast(raw) if raw else default

        values = {
            "host": _get("HOST", str, cls.host),
            "port": _get("PORT", int, cls.port),
            "workers": _get("WORKERS", int, cls.workers),
            "lease_s": _get("LEASE_S", float, cls.lease_s),
            "heartbeat_s": _get("HEARTBEAT_S", float, cls.heartbeat_s),
            "worker_wait_s": _get("WORKER_WAIT_S", float, cls.worker_wait_s),
            "stall_grace_s": _get("STALL_GRACE_S", float, cls.stall_grace_s),
            "retries": _get("RETRIES", int, cls.retries),
            "retry_backoff_s": _get("RETRY_BACKOFF_S", float, cls.retry_backoff_s),
            "max_requeues": _get("MAX_REQUEUES", int, cls.max_requeues),
            "quarantine_after": _get("QUARANTINE_AFTER", int, cls.quarantine_after),
            "slow_factor": _get("SLOW_FACTOR", float, cls.slow_factor),
            "slow_grace_s": _get("SLOW_GRACE_S", float, cls.slow_grace_s),
            "ledger_path": os.environ.get("REPRO_DISPATCH_LEDGER") or None,
        }
        values.update(overrides)
        return cls(**values)

    def validate(self) -> None:
        if self.lease_s <= 0 or self.heartbeat_s <= 0:
            raise ConfigurationError("lease_s and heartbeat_s must be positive")
        if self.heartbeat_s >= self.lease_s:
            raise ConfigurationError(
                "heartbeat_s must be shorter than lease_s (a lease must "
                "survive at least one missed heartbeat)"
            )
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.quarantine_after < 1:
            raise ConfigurationError("quarantine_after must be >= 1")
        if self.slow_factor <= 1:
            raise ConfigurationError("slow_factor must be > 1")


@dataclass
class WorkerInfo:
    """Connection-scoped health record for one registered worker."""

    worker_id: str
    pid: int
    joined_at: float
    last_seen: float
    connected: bool = True
    jobs_done: int = 0
    #: Leases granted to this worker over its connection.
    leases: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    evicted: bool = False
    #: The coordinator told this worker to drain; its disconnect is a
    #: clean exit, not a loss.
    drained: bool = False
    current_job: int | None = None
    job_started: float | None = None
    wall_total: float = 0.0

    @property
    def live(self) -> bool:
        """Eligible for new leases."""
        return self.connected and not self.quarantined and not self.evicted

    def as_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "connected": self.connected,
            "jobs_done": self.jobs_done,
            "failures": self.failures,
            "quarantined": self.quarantined,
            "evicted": self.evicted,
            "wall_total_s": self.wall_total,
        }


class Coordinator:
    """Serve leases for one sweep's jobs and collect the results.

    Args:
        config: dispatch knobs (validated here).
        code_version: the runner's code fingerprint; workers whose
            fingerprint differs are rejected at registration.
        on_commit: callback ``(job_id, payload, wall_s)`` fired exactly
            once per job, on the first result delivery.
        tracer: optional :class:`repro.obs.trace.EventTracer`; the
            coordinator emits ``dispatch.*`` control-plane events.
        rng / clock: injectable randomness and time for tests.
    """

    def __init__(
        self,
        config: DispatchConfig,
        code_version: str,
        on_commit: Callable[[int, dict, float], None] | None = None,
        tracer=None,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        config.validate()
        self.config = config
        self.code_version = code_version
        self.on_commit = on_commit
        self.tracer = tracer
        self._clock = clock
        self.ledger = JobLedger(
            retries=config.retries,
            lease_s=config.lease_s,
            max_requeues=config.max_requeues,
            retry_backoff_s=config.retry_backoff_s,
            path=config.ledger_path,
            rng=rng,
            clock=clock,
        )
        self.workers: dict[str, WorkerInfo] = {}
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._wall_samples: list[float] = []
        self._client_writers: set[asyncio.StreamWriter] = set()
        self.host: str | None = None
        self.port: int | None = None
        # -- counters ----------------------------------------------------------
        self.workers_joined = 0
        self.workers_rejected = 0
        self.workers_lost = 0
        self.workers_quarantined = 0
        self.workers_evicted = 0
        self.workers_peak = 0
        self.heartbeats = 0

    # -- trace ------------------------------------------------------------------

    def _emit(self, kind: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.emit("dispatch", kind, **data)

    # -- job loading -------------------------------------------------------------

    def load_jobs(self, jobs: list[tuple[int, object, str, str]]) -> None:
        """Register ``(job_id, spec, key, label)`` tuples with the ledger."""
        for job_id, spec, key, label in jobs:
            self.ledger.register(job_id, spec, key, label)

    # -- server lifecycle --------------------------------------------------------

    async def bind(self) -> tuple[str, int]:
        """Start listening; returns the bound (host, port).

        Raises ``OSError`` when the address is unavailable — callers
        translate that into graceful local fallback.
        """
        self._server = await asyncio.start_server(
            self._handle_worker,
            self.config.host,
            self.config.port,
            limit=protocol.STREAM_LIMIT,
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._emit("bind", host=self.host, port=self.port)
        return self.host, self.port

    async def close(self) -> None:
        """Stop listening and close every worker connection."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._client_writers):
            writer.close()
        for writer in list(self._client_writers):
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
        self._client_writers.clear()
        self.ledger.close()

    def live_workers(self) -> list[WorkerInfo]:
        return [w for w in self.workers.values() if w.live]

    def _progress_possible(self) -> bool:
        """Can any outstanding job still be computed remotely?"""
        if any(w.live for w in self.workers.values()):
            return True
        # A quarantined/evicted worker mid-compute can still deliver.
        return any(
            w.connected and w.current_job is not None
            for w in self.workers.values()
        )

    async def run(self, tick_s: float | None = None) -> None:
        """Reap leases until every job is terminal or progress stalls.

        On return the ledger holds the final state: ``done`` + ``failed``
        everywhere on success, or leftover ``pending`` jobs when all
        workers died (the dispatch backend runs those locally).
        """
        tick = tick_s if tick_s is not None else min(self.config.lease_s / 4, 0.25)
        stalled_since: float | None = None
        try:
            while not self.ledger.done:
                self._reap()
                if self.ledger.done:
                    break
                if self._progress_possible():
                    stalled_since = None
                else:
                    now = self._clock()
                    if stalled_since is None:
                        stalled_since = now
                    elif now - stalled_since >= self.config.stall_grace_s:
                        logger.warning(
                            "dispatch stalled: no live workers and %d job(s) "
                            "outstanding; returning them for local execution",
                            self.ledger.outstanding,
                        )
                        self._emit("stall", outstanding=self.ledger.outstanding)
                        break
                await asyncio.sleep(tick)
        finally:
            await self.close()

    def _reap(self) -> None:
        """One maintenance pass: expire silent leases, evict slow ones."""
        for job in self.ledger.expire_due():
            self._emit("lease-expired", job_id=job.job_id, label=job.label)
            logger.info("lease expired for %s; requeued", job.label)
            holder = self._holder_of(job.job_id)
            if holder is not None:
                holder.current_job = None
        if len(self._wall_samples) >= self.config.min_wall_samples:
            median = statistics.median(self._wall_samples)
            threshold = max(self.config.slow_grace_s, self.config.slow_factor * median)
            now = self._clock()
            for worker in self.workers.values():
                if (
                    worker.connected
                    and worker.current_job is not None
                    and worker.job_started is not None
                    and now - worker.job_started > threshold
                ):
                    job = self.ledger.evict(worker.current_job, "slow-worker")
                    if job is not None:
                        worker.evicted = True
                        worker.current_job = None
                        self.workers_evicted += 1
                        self._emit(
                            "slow-evict",
                            worker=worker.worker_id,
                            job_id=job.job_id,
                            threshold_s=threshold,
                        )
                        logger.warning(
                            "evicted slow worker %s (job %s held > %.2fs); requeued",
                            worker.worker_id,
                            job.label,
                            threshold,
                        )

    def _holder_of(self, job_id: int) -> WorkerInfo | None:
        for worker in self.workers.values():
            if worker.current_job == job_id:
                return worker
        return None

    # -- connection handler ------------------------------------------------------

    async def _handle_worker(self, reader, writer) -> None:
        self._client_writers.add(writer)
        worker: WorkerInfo | None = None
        try:
            worker = await self._register(reader, writer)
            if worker is None:
                return
            await self._serve_worker(worker, reader, writer)
        except (
            DispatchProtocolError,
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
        ) as exc:
            if worker is not None:
                logger.info("worker %s connection error: %s", worker.worker_id, exc)
        finally:
            if worker is not None and worker.connected:
                worker.connected = False
                worker.current_job = None
                if not self._draining and not worker.drained:
                    self.workers_lost += 1
                    self._emit("worker-lost", worker=worker.worker_id)
                released = self.ledger.release_worker(
                    worker.worker_id, "worker-disconnected"
                )
                for job in released:
                    self._emit("requeue", job_id=job.job_id, label=job.label)
            self._client_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _register(self, reader, writer) -> WorkerInfo | None:
        hello = await protocol.recv_message(reader, timeout=self.config.lease_s)
        if hello is None or hello.get("type") != "hello":
            raise DispatchProtocolError("expected hello as the first message")
        worker_id = str(hello.get("worker") or f"worker-{len(self.workers)}")
        reason = None
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            reason = (
                f"protocol mismatch: coordinator speaks "
                f"v{protocol.PROTOCOL_VERSION}, worker spoke "
                f"v{hello.get('protocol')}"
            )
        elif hello.get("code_version") != self.code_version:
            reason = (
                "code-version mismatch: results would be cached under "
                f"wrong keys (coordinator {self.code_version}, worker "
                f"{hello.get('code_version')})"
            )
        elif worker_id in self.workers and self.workers[worker_id].connected:
            reason = f"worker id {worker_id!r} is already connected"
        if reason is not None:
            self.workers_rejected += 1
            self._emit("worker-rejected", worker=worker_id, reason=reason)
            logger.warning("rejected worker %s: %s", worker_id, reason)
            await protocol.send_message(writer, type="reject", reason=reason)
            return None
        now = self._clock()
        worker = WorkerInfo(
            worker_id=worker_id,
            pid=int(hello.get("pid", 0)),
            joined_at=now,
            last_seen=now,
        )
        self.workers[worker_id] = worker
        self.workers_joined += 1
        self.workers_peak = max(
            self.workers_peak,
            sum(1 for w in self.workers.values() if w.connected),
        )
        self._emit("worker-joined", worker=worker_id, pid=worker.pid)
        await protocol.send_message(
            writer,
            type="welcome",
            protocol=protocol.PROTOCOL_VERSION,
            heartbeat_s=self.config.heartbeat_s,
            lease_s=self.config.lease_s,
        )
        return worker

    async def _serve_worker(self, worker: WorkerInfo, reader, writer) -> None:
        # A healthy worker heartbeats every heartbeat_s while computing;
        # silence past the lease interval means the worker is gone.
        silence_timeout = self.config.lease_s + self.config.heartbeat_s
        while True:
            message = await protocol.recv_message(reader, timeout=silence_timeout)
            if message is None:
                return
            worker.last_seen = self._clock()
            kind = message.get("type")
            if kind == "request":
                await self._grant(worker, writer)
            elif kind == "heartbeat":
                self.heartbeats += 1
                job_id = message.get("job_id")
                if isinstance(job_id, int):
                    self.ledger.renew(job_id, worker.worker_id)
            elif kind == "result":
                await self._receive_result(worker, writer, message)
            else:
                raise DispatchProtocolError(f"unexpected message type {kind!r}")

    async def _grant(self, worker: WorkerInfo, writer) -> None:
        if self._draining or not worker.live:
            worker.drained = True
            await protocol.send_message(writer, type="drain")
            return
        job = self.ledger.next_lease(worker.worker_id)
        if job is not None:
            worker.leases += 1
            worker.current_job = job.job_id
            worker.job_started = self._clock()
            self._emit("lease", job_id=job.job_id, label=job.label,
                       worker=worker.worker_id, attempt=job.attempts)
            await protocol.send_message(
                writer,
                type="lease",
                job_id=job.job_id,
                key=job.key,
                label=job.label,
                spec=protocol.encode_spec(job.spec),
                lease_s=self.config.lease_s,
            )
        elif self.ledger.outstanding == 0:
            worker.drained = True
            await protocol.send_message(writer, type="drain")
        else:
            # Jobs exist but none is eligible right now (backoff window
            # or leased elsewhere); ask the worker to poll again soon.
            wait = self.ledger.next_eligible_in()
            wait_s = min(wait, 0.5) if wait is not None else 0.2
            await protocol.send_message(writer, type="idle", wait_s=max(wait_s, 0.05))

    async def _receive_result(self, worker: WorkerInfo, writer, message: dict) -> None:
        job_id = message.get("job_id")
        if not isinstance(job_id, int) or job_id not in self.ledger.jobs:
            raise DispatchProtocolError(f"result for unknown job {job_id!r}")
        if worker.current_job == job_id:
            worker.current_job = None
            worker.job_started = None
        if message.get("ok"):
            payload = message.get("payload")
            if not isinstance(payload, dict):
                raise DispatchProtocolError("ok result without a payload block")
            wall_s = float(payload.get("wall_s", 0.0))
            committed = self.ledger.commit(job_id, worker.worker_id, payload, wall_s)
            if committed:
                worker.jobs_done += 1
                worker.consecutive_failures = 0
                worker.wall_total += wall_s
                self._wall_samples.append(wall_s)
                self._emit("commit", job_id=job_id, worker=worker.worker_id,
                           wall_s=wall_s)
                if self.on_commit is not None:
                    self.on_commit(job_id, payload, wall_s)
            else:
                self._emit("duplicate", job_id=job_id, worker=worker.worker_id)
                logger.info(
                    "duplicate result for job %d from %s (already committed)",
                    job_id,
                    worker.worker_id,
                )
            await protocol.send_message(
                writer, type="ack", job_id=job_id, duplicate=not committed
            )
        else:
            error = str(message.get("error", "unknown worker error"))
            worker.failures += 1
            worker.consecutive_failures += 1
            state = self.ledger.report_failure(job_id, worker.worker_id, error)
            self._emit("job-failed", job_id=job_id, worker=worker.worker_id,
                       error=error, terminal=state is JobState.FAILED)
            if (
                not worker.quarantined
                and worker.consecutive_failures >= self.config.quarantine_after
            ):
                worker.quarantined = True
                self.workers_quarantined += 1
                self._emit("quarantine", worker=worker.worker_id,
                           consecutive_failures=worker.consecutive_failures)
                logger.warning(
                    "quarantined worker %s after %d consecutive failures",
                    worker.worker_id,
                    worker.consecutive_failures,
                )
            await protocol.send_message(
                writer, type="ack", job_id=job_id, duplicate=False
            )

    # -- observability -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Scalar counters for the ``dispatch.*`` metrics namespace."""
        return {
            **self.ledger.summary(),
            "workers_joined": self.workers_joined,
            "workers_rejected": self.workers_rejected,
            "workers_lost": self.workers_lost,
            "workers_quarantined": self.workers_quarantined,
            "workers_evicted": self.workers_evicted,
            "workers_peak": self.workers_peak,
            "heartbeats": self.heartbeats,
        }

    def summary(self) -> dict:
        """Manifest block: counters plus per-worker health records."""
        return {
            **self.metrics_snapshot(),
            "workers": [w.as_dict() for w in self.workers.values()],
        }
