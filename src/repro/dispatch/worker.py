"""Dispatch worker process: pull leases, heartbeat, deliver results.

Runnable as ``python -m repro.dispatch.worker --connect HOST:PORT`` (the
``repro workers`` CLI verb spawns exactly this).  The worker

* registers with its code fingerprint (a mismatched worker is rejected
  — its results would land under wrong cache keys),
* pulls one lease at a time, computes it with the same
  :func:`repro.analysis.runner.execute_job` the local pool uses (so
  results are bit-identical to a local run by construction),
* heartbeats every ``heartbeat_s`` while the job runs in a thread, and
* exits cleanly when drained.

Fault injection (``--fault``) exists purely for the chaos campaign in
:mod:`repro.chaos.workers`; a production worker runs with ``none``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
import time

from repro.dispatch import protocol
from repro.errors import DispatchProtocolError


class _FaultPlan:
    """Worker-side chaos switchboard (see ``protocol.FAULT_MODES``)."""

    def __init__(self, mode: str = "none", arg: float = 0.0):
        if mode not in protocol.FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; choose from "
                f"{', '.join(protocol.FAULT_MODES)}"
            )
        self.mode = mode
        self.arg = arg
        self.jobs_seen = 0

    @property
    def heartbeats_muted(self) -> bool:
        return self.mode in ("silent", "partition")

    def should_fail(self) -> bool:
        """flaky: fail the first ``arg`` jobs with an exception."""
        return self.mode == "flaky" and self.jobs_seen <= int(self.arg)


async def _heartbeat_loop(writer, job_id: int, interval_s: float) -> None:
    try:
        while True:
            await asyncio.sleep(interval_s)
            await protocol.send_message(writer, type="heartbeat", job_id=job_id)
    except asyncio.CancelledError:
        pass


async def worker_main(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    fault: str = "none",
    fault_arg: float = 0.0,
    connect_attempts: int = 20,
    connect_delay_s: float = 0.25,
) -> int:
    """Run one worker until drained; returns a process exit status.

    0 = drained cleanly, 3 = rejected by the coordinator, 4 = could not
    connect, 5 = connection lost mid-run.
    """
    from repro.analysis.runner import code_fingerprint, execute_job

    plan = _FaultPlan(fault, fault_arg)
    worker_id = worker_id or f"w-{os.getpid()}"
    reader = writer = None
    for attempt in range(connect_attempts):
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=protocol.STREAM_LIMIT
            )
            break
        except OSError:
            if attempt == connect_attempts - 1:
                print(
                    f"worker {worker_id}: cannot connect to {host}:{port}",
                    file=sys.stderr,
                )
                return 4
            await asyncio.sleep(connect_delay_s)
    try:
        await protocol.send_message(
            writer,
            type="hello",
            worker=worker_id,
            pid=os.getpid(),
            protocol=protocol.PROTOCOL_VERSION,
            code_version=code_fingerprint(),
        )
        welcome = await protocol.recv_message(reader, timeout=30.0)
        if welcome is None or welcome.get("type") == "reject":
            reason = (welcome or {}).get("reason", "connection closed")
            print(f"worker {worker_id}: rejected: {reason}", file=sys.stderr)
            return 3
        if welcome.get("type") != "welcome":
            raise DispatchProtocolError(
                f"expected welcome, got {welcome.get('type')!r}"
            )
        heartbeat_s = float(welcome.get("heartbeat_s", 2.0))

        while True:
            await protocol.send_message(writer, type="request")
            message = await protocol.recv_message(reader, timeout=60.0)
            if message is None:
                return 5
            kind = message.get("type")
            if kind == "drain":
                return 0
            if kind == "idle":
                await asyncio.sleep(float(message.get("wait_s", 0.2)))
                continue
            if kind != "lease":
                raise DispatchProtocolError(f"unexpected message {kind!r}")

            job_id = int(message["job_id"])
            spec = protocol.decode_spec(message["spec"])
            plan.jobs_seen += 1

            if plan.mode == "kill":
                # Die mid-job with no goodbye: the coordinator must
                # requeue off the dropped connection / expired lease.
                await asyncio.sleep(plan.arg or 0.05)
                os.kill(os.getpid(), signal.SIGKILL)
            if plan.mode == "partition":
                # Freeze all socket I/O (keep the connection open) so the
                # coordinator sees pure silence, then exit once the lease
                # is certainly gone.
                await asyncio.sleep(plan.arg or 10.0)
                return 0

            heartbeat = None
            if not plan.heartbeats_muted:
                heartbeat = asyncio.create_task(
                    _heartbeat_loop(writer, job_id, heartbeat_s)
                )
            try:
                if plan.should_fail():
                    raise RuntimeError(
                        f"injected flaky failure #{plan.jobs_seen}"
                    )
                result, disabled, wall_s = await asyncio.to_thread(
                    execute_job, spec
                )
                ok, payload, error = True, {
                    "result": result.to_dict(),
                    "smd_disabled_fraction": disabled,
                    "wall_s": wall_s,
                }, None
            except Exception as exc:  # job failure, not worker failure
                ok, payload, error = False, None, f"{type(exc).__name__}: {exc}"
            finally:
                if heartbeat is not None:
                    heartbeat.cancel()
                    try:
                        await heartbeat
                    except asyncio.CancelledError:
                        pass

            if plan.mode == "silent":
                # Heartbeats are muted (see heartbeats_muted), so stall
                # past the lease interval before delivering: the
                # coordinator must expire the lease, requeue the job
                # elsewhere, and count this late delivery as a
                # duplicate (or commit it if it still arrives first).
                await asyncio.sleep(plan.arg or 1.0)
            if plan.mode == "slow":
                # Keep heartbeating through the stall so only the
                # slow-worker eviction (not lease expiry) can fire.
                deadline = time.monotonic() + (plan.arg or 1.0)
                while time.monotonic() < deadline:
                    await asyncio.sleep(min(heartbeat_s, 0.1))
                    await protocol.send_message(
                        writer, type="heartbeat", job_id=job_id
                    )

            deliveries = 2 if plan.mode == "duplicate" else 1
            for _ in range(deliveries):
                if ok:
                    await protocol.send_message(
                        writer, type="result", job_id=job_id, ok=True,
                        payload=payload,
                    )
                else:
                    await protocol.send_message(
                        writer, type="result", job_id=job_id, ok=False,
                        error=error,
                    )
                ack = await protocol.recv_message(reader, timeout=30.0)
                if ack is None:
                    return 5
                if ack.get("type") != "ack":
                    raise DispatchProtocolError(
                        f"expected ack, got {ack.get('type')!r}"
                    )
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        return 5
    except (asyncio.TimeoutError, TimeoutError):
        return 5
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dispatch-worker",
        description="Dispatch worker: connect to a coordinator and compute jobs.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (from 'repro dispatch' / the runner log)",
    )
    parser.add_argument("--id", default=None, help="worker id (default w-<pid>)")
    parser.add_argument(
        "--fault", default="none", choices=protocol.FAULT_MODES,
        help="chaos fault injection mode (testing only)",
    )
    parser.add_argument(
        "--fault-arg", type=float, default=0.0,
        help="fault parameter: delay seconds (kill/slow/partition) or "
        "failing-job count (flaky)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error("--connect must look like HOST:PORT")
    return asyncio.run(
        worker_main(
            host,
            int(port),
            worker_id=args.id,
            fault=args.fault,
            fault_arg=args.fault_arg,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
