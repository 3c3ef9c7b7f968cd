"""JSON-lines wire protocol for the dispatch coordinator/worker link.

One JSON object per line in each direction, same framing as the fleet
advisory service (:mod:`repro.fleet.service`).  Message ``type`` values:

worker -> coordinator:
    ``hello``      — registration: worker id, pid, code fingerprint.
    ``request``    — the worker is idle and wants a lease.
    ``heartbeat``  — liveness + lease renewal while computing a job.
    ``result``     — a finished job: ``ok`` plus either a payload block
                     (result dict, smd fraction, wall time) or an error
                     string.

coordinator -> worker:
    ``welcome``    — registration accepted; carries the heartbeat and
                     lease intervals the worker must honor.
    ``reject``     — registration refused (e.g. code-version mismatch);
                     the worker must exit.
    ``lease``      — one job: id, cache key, and the spec's describe JSON.
    ``idle``       — no work eligible right now; ask again in ``wait_s``.
    ``drain``      — no more work will ever be offered; disconnect.
    ``ack``        — result received; ``duplicate`` tells the worker its
                     result arrived after the job was already committed.

Job specs travel as their canonical :meth:`JobSpec.describe` JSON — the
same form the cache key hashes — and :meth:`JobSpec.from_describe`
rebuilds them.  Nothing received from the network is unpickled: a
message that is not a spec description is a
:class:`~repro.errors.DispatchProtocolError`.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import DispatchProtocolError, ReproError

#: Bump on any incompatible wire change; mismatched peers are rejected.
#: Version 2 carries job specs as describe JSON instead of pickles.
PROTOCOL_VERSION = 2

#: asyncio stream limit: a spec or result line can exceed the
#: 64 KiB default comfortably on wide configs.
STREAM_LIMIT = 4 * 1024 * 1024

#: Worker-side fault-injection modes (chaos campaigns only; see
#: :mod:`repro.dispatch.worker` and :mod:`repro.chaos.workers`).
FAULT_MODES = (
    "none",
    "kill",        # SIGKILL self mid-job
    "silent",      # stop heartbeating, keep computing (late duplicate)
    "slow",        # stall before returning each result
    "partition",   # freeze all socket I/O after the first lease
    "duplicate",   # deliver every result twice
    "flaky",       # fail the first N jobs with an exception
)


def encode_spec(spec) -> str:
    """A :class:`repro.analysis.runner.JobSpec` as canonical describe JSON."""
    return json.dumps(spec.describe(), sort_keys=True, separators=(",", ":"))


def decode_spec(text: str):
    """Inverse of :func:`encode_spec`.

    Raises:
        DispatchProtocolError: if ``text`` is not the describe JSON of a
            valid job spec.
    """
    from repro.analysis.runner import JobSpec

    try:
        description = json.loads(text)
        if not isinstance(description, dict):
            raise TypeError("spec description must be a JSON object")
        return JobSpec.from_describe(description)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise DispatchProtocolError(f"undecodable job spec: {exc!r}") from exc


def encode_message(**payload) -> bytes:
    """One message as a canonical JSON line (sorted keys + newline)."""
    if "type" not in payload:
        raise DispatchProtocolError("message requires a 'type' field")
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire line; raises :class:`DispatchProtocolError`."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise DispatchProtocolError(f"undecodable message line: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("type"), str):
        raise DispatchProtocolError("message must be an object with a 'type'")
    return payload


async def send_message(writer: asyncio.StreamWriter, **payload) -> None:
    """Write one message and drain the transport."""
    writer.write(encode_message(**payload))
    await writer.drain()


async def recv_message(
    reader: asyncio.StreamReader, timeout: float | None = None
) -> dict | None:
    """Read one message; None on EOF; raises on timeout or bad framing."""
    if timeout is not None:
        line = await asyncio.wait_for(reader.readline(), timeout)
    else:
        line = await reader.readline()
    if not line:
        return None
    return decode_message(line)
