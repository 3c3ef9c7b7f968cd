"""Parallel, cached, crash-safe experiment runner (fan-out + reuse).

Every figure bench and ablation sweep ultimately runs the same kind of
job — simulate one (benchmark, policy, configuration) triple — and many
of them share jobs: Figs. 3/7/9/10 reuse the per-benchmark policy suite,
`smd_threshold_sweep` reuses the baseline suite across thresholds, and
re-running a bench recomputes everything from scratch.  This module
factors that work into an :class:`ExperimentRunner` that

* fans independent :class:`JobSpec` s out over a ``concurrent.futures``
  process pool (``jobs > 1``) or runs them inline (``jobs == 1``),
* runs each distinct *simulation* once: jobs whose
  :meth:`JobSpec.canonical` forms are equal (they differ only in config
  fields their policy never reads) share one run, kept in the runner's
  memory for the rest of the process,
* memoizes results on disk in a :class:`ResultCache` keyed by a content
  hash of the canonical job description — benchmark trace spec, policy
  name and parameters, the DRAM organization/timings and scheme
  latencies the policy reads, and a fingerprint of the ``repro`` source
  tree — so a cached result can never be served for changed code or
  config, and
* records an observability manifest per invocation: one record per job
  (wall time, cache hit/miss, final status), aggregate hit/miss
  counters, and the parallelism settings, renderable via
  :func:`render_runner_summary`.

Failures and recovery:

* **Checksummed cache entries** — every entry is one line of an
  append-only segment log, headed by a SHA-256 of its JSON bytes; an
  entry that fails the checksum, is not a JSON object, or lacks its
  result block is *quarantined* (copied to ``<cache>/_quarantine/`` and
  blanked in its segment), logged, and treated as a miss so the job is
  recomputed instead of crashing the sweep.
* **Failed jobs** — an exception from a job, or the
  ``BrokenProcessPool`` of every job a dead worker took down with the
  pool, becomes that job's error; :meth:`ExperimentRunner.run` raises
  one aggregated :class:`repro.errors.JobExecutionError` *after* every
  healthy job has completed and been cached.  A job is a pure function
  of its spec, so the runner never runs one twice: the rerun below is
  the recovery.
* **Resume is the cache** — every successful job is stored as it
  completes, so re-running a failed or interrupted sweep over the same
  cache directory serves the finished jobs as hits and runs only the
  rest.

The runner is deterministic by construction: jobs are pure functions of
their spec (fixed seeds end to end), so ``jobs=N`` produces bit-identical
results to ``jobs=1``, and a cache hit returns exactly the bytes a cold
run would compute.

Configuration is either explicit (:func:`configure_runner`) or via the
environment: ``REPRO_JOBS`` sets the worker count and ``REPRO_CACHE_DIR``
enables the on-disk cache (unset → the runner's in-memory results only).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.tables import format_table
from repro.core.smd import DEFAULT_THRESHOLD_MPKC
from repro.errors import ConfigurationError, JobExecutionError
from repro.sim.system import DEFAULT_SYSTEM, ScaledRun, SystemConfig
from repro.types import SimResult
from repro.workloads.spec import BenchmarkSpec

#: Bump when the cached payload layout changes; old entries become misses.
#: Schema 2 added the per-entry payload checksum.  Schema 3 entries may
#: still carry a ``backend`` field, which loading ignores.  Schema 4 moved
#: the entries from one JSON file per key into append-only segment logs,
#: one directory per code version, with the checksum in each line's
#: header instead of the payload.
CACHE_SCHEMA = 4

#: Cap on corrupt-entry files kept under ``<cache>/_quarantine/``.
QUARANTINE_LIMIT = 64

#: File suffix of the result cache's append-only segments.
SEGMENT_SUFFIX = ".log"

#: Overwrites the key of a quarantined segment line, byte for byte.
_TOMBSTONE = b"-"

logger = logging.getLogger("repro.analysis.runner")


# ---------------------------------------------------------------------------
# Job descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One independent simulation job: benchmark x policy x configuration.

    Frozen and fully value-typed, so a spec works as a dict key, pickles
    to pool workers, and hashes (via :meth:`describe`) into a stable
    cache key.  The benchmark is carried by value (not by name) so ad-hoc
    specs outside the registry cache correctly too.
    """

    benchmark: BenchmarkSpec
    instructions: int
    policy: str
    config: SystemConfig = field(default_factory=SystemConfig)
    #: SMD parameters; only meaningful for the ``mecc+smd`` policy.
    threshold_mpkc: float | None = None
    quantum_cycles: int | None = None

    @classmethod
    def build(
        cls,
        benchmark: BenchmarkSpec,
        run: ScaledRun,
        policy: str,
        config: SystemConfig | None = None,
        threshold_mpkc: float | None = None,
    ) -> "JobSpec":
        """Build a spec, filling SMD scaling parameters from ``run``."""
        config = config or SystemConfig()
        if policy == "mecc+smd":
            return cls(
                benchmark=benchmark,
                instructions=run.instructions,
                policy=policy,
                config=config,
                threshold_mpkc=(
                    DEFAULT_THRESHOLD_MPKC if threshold_mpkc is None else threshold_mpkc
                ),
                quantum_cycles=run.quantum_cycles,
            )
        return cls(
            benchmark=benchmark,
            instructions=run.instructions,
            policy=policy,
            config=config,
        )

    def describe(self) -> dict:
        """Plain-dict form of the whole spec — the content :meth:`key` hashes.

        The runner keys its cache by the :meth:`canonical` spec's key.
        """
        return {
            "benchmark": dataclasses.asdict(self.benchmark),
            "instructions": self.instructions,
            "policy": self.policy,
            "config": self.config.describe(),
            "threshold_mpkc": self.threshold_mpkc,
            "quantum_cycles": self.quantum_cycles,
        }

    def canonical(self) -> "JobSpec":
        """The spec of the simulation this job runs.

        Resets to their defaults the config fields that the job's policy
        and :func:`execute_job` never read (and the SMD parameters of a
        non-SMD job), so jobs that differ only there share one
        simulation: e.g. a baseline job at any strong-decode latency.
        A field that scheme construction validates counts as read, so
        an invalid value still fails the same way.  Returns ``self`` when
        nothing needs resetting; unknown policies are returned unchanged
        and fail in :func:`execute_job` as before.
        """
        unread = _UNREAD_CONFIG_FIELDS.get(self.policy)
        if unread is None:
            return self
        config = self.config
        resets = {
            name: getattr(DEFAULT_SYSTEM, name)
            for name in unread
            if getattr(config, name) != getattr(DEFAULT_SYSTEM, name)
        }
        smd = self.policy == "mecc+smd"
        if not resets and (
            smd or (self.threshold_mpkc is None and self.quantum_cycles is None)
        ):
            return self
        return dataclasses.replace(
            self,
            config=dataclasses.replace(config, **resets),
            threshold_mpkc=self.threshold_mpkc if smd else None,
            quantum_cycles=self.quantum_cycles if smd else None,
        )

    def key(self, code_version: str | None = None) -> str:
        """Content-hash cache key: job description + code fingerprint."""
        return _job_key(self.describe(), code_version)

    def label(self) -> str:
        """Short human-readable name for logs and error messages."""
        return f"{self.benchmark.name}/{self.policy}"


#: The :class:`SystemConfig` fields each policy's factory and
#: :func:`execute_job` never read.  Every job's engine reads ``org`` and
#: ``timings``; no policy reads ``power`` (the engine's energy model uses
#: the default one).  A field not listed counts as read, so a new config
#: field splits simulations until it is listed here.
_UNREAD_CONFIG_FIELDS = {
    "baseline": ("power", "weak_decode_cycles", "strong_decode_cycles", "strong_t"),
    "secded": ("power", "strong_decode_cycles", "strong_t"),
    "ecc6": ("power", "weak_decode_cycles"),
    "mecc": ("power",),
    "mecc+smd": ("power",),
}


@dataclass(frozen=True)
class JobOutcome:
    """The result of one job plus its provenance/observability data."""

    result: SimResult
    #: SMD disabled-time fraction; None unless the policy was ``mecc+smd``.
    smd_disabled_fraction: float | None
    #: Simulation wall time in seconds (the *original* run's time when
    #: served from cache).
    wall_s: float
    cached: bool
    key: str


def _job_key(description: dict, code_version: str | None = None) -> str:
    """Cache key of a job from its :meth:`JobSpec.describe` form."""
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_version if code_version is not None else code_fingerprint(),
        "job": description,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` sources (cache-invalidation tag).

    Hashes every ``.py`` file in the package (path + contents), so any
    code change — simulator, policies, traces, power model — invalidates
    all previously cached results.  Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()[:16]
    return _CODE_FINGERPRINT


_CODE_FINGERPRINT: str | None = None


# ---------------------------------------------------------------------------
# Job execution (importable at module top level so it pickles to workers)
# ---------------------------------------------------------------------------

#: Per-process trace memo; worker processes forked from the parent start
#: with the parent's already-calibrated traces.
_TRACE_MEMO: dict = {}


def trace_for(benchmark: BenchmarkSpec, instructions: int):
    """Generate (and memoize per process) one benchmark's perf trace.

    The memo is keyed on the whole (frozen) spec, so same-named specs
    that differ in seed or shape get their own traces.
    """
    memo_key = (benchmark, instructions)
    if memo_key not in _TRACE_MEMO:
        _TRACE_MEMO[memo_key] = benchmark.trace(instructions)
    return _TRACE_MEMO[memo_key]


def clear_trace_memo() -> None:
    """Drop memoized traces and simulations (tests use this for isolation).

    Empties the trace memo, the :func:`simulate_once` memo and the
    default runner's in-memory results; the runner's settings and disk
    cache stay.
    """
    _TRACE_MEMO.clear()
    _SIMULATION_MEMO.clear()
    if _default_runner is not None:
        _default_runner.forget_results()


def execute_job(spec: JobSpec) -> tuple[SimResult, float | None, float]:
    """Run one job; returns (result, smd_disabled_fraction, wall_s)."""
    start = time.perf_counter()
    result, disabled = _simulate(spec)
    return result, disabled, time.perf_counter() - start


#: Per-process memo of :func:`simulate_once`, keyed on canonical specs.
_SIMULATION_MEMO: dict[JobSpec, tuple[SimResult, float | None]] = {}


def simulate_once(spec: JobSpec) -> tuple[SimResult, float | None]:
    """:func:`execute_job`'s (result, smd_disabled_fraction), memoized.

    For callers outside the runner (device sessions) that simulate the
    same job many times from the same fresh state: each canonical
    simulation runs once per process.  The memo is cleared with the
    trace memo.
    """
    canonical = spec.canonical()
    outcome = _SIMULATION_MEMO.get(canonical)
    if outcome is None:
        outcome = _SIMULATION_MEMO[canonical] = _simulate(canonical)
    return outcome


def _simulate(spec: JobSpec) -> tuple[SimResult, float | None]:
    from repro.sim.engine import simulate

    trace = trace_for(spec.benchmark, spec.instructions)
    if spec.policy == "mecc+smd":
        policy = spec.config.policy_by_name(
            "mecc+smd",
            quantum_cycles=spec.quantum_cycles,
            threshold_mpkc=spec.threshold_mpkc,
        )
    else:
        policy = spec.config.policy_by_name(spec.policy)
    result = simulate(
        trace, policy, org=spec.config.org, timings=spec.config.timings
    )
    smd = getattr(policy, "smd", None)
    disabled = smd.report(result.cycles).disabled_fraction if smd is not None else None
    return result, disabled


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


def _read_line(segment: str, offset: int, length: int) -> bytes | None:
    """One indexed segment line, or None if it is no longer all there."""
    try:
        fd = os.open(segment, os.O_RDONLY)
        try:
            line = os.pread(fd, length, offset)
        finally:
            os.close(fd)
    except OSError:
        return None
    return line if len(line) == length and line.endswith(b"\n") else None


def _line_key(line: bytes) -> bytes:
    """The key a segment line is indexed under: its bytes up to the
    first space (or up to the newline, in a line without one)."""
    end = line.find(b" ")
    return line[:end] if end >= 0 else line[:-1]


def _decode_line(line: bytes) -> dict | str:
    """A segment line's payload, or why the line is corrupt."""
    parts = line[:-1].split(b" ", 2)
    if len(parts) != 3:
        return "malformed entry line"
    _, digest, body = parts
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return "checksum mismatch"
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"undecodable entry: {exc}"
    if not isinstance(payload, dict):
        return "payload is not a JSON object"
    return payload


class ResultCache:
    """Content-addressed store of job results: append-only segment logs.

    Each instance appends to its own segment file,
    ``<root>/v<schema>-<code fingerprint>/<created-ns>-<pid>-<random>.log``,
    created on its first store.  An entry is one line, ``<key> <sha256
    of the JSON bytes> <JSON>\\n``, written with a single unbuffered
    ``write()`` as soon as its job completes, so a store costs one
    ``json.dumps`` and one append instead of a file create.  Every
    runner key embeds the schema and the code fingerprint, so segments
    written by other code versions can hold none of this version's
    keys; they sit in other directories and are never listed or read.

    An in-memory index maps each key to ``(segment, offset, length)``.
    The instance indexes its own writes directly; the other segments in
    this version's directory (earlier runs, concurrent runners) are
    scanned on a miss only, each from where its last scan stopped, so a
    concurrent runner's entries show up without rereading anything.  A
    line without its newline (a torn or in-flight write) is not indexed,
    and a load whose indexed line no longer starts with its key (the
    segment was removed and written again) is a plain miss.
    Foreign segments are scanned oldest first, so where several hold one
    key, the newest one's line answers.

    Loading hashes the stored JSON bytes against the line's digest, so a
    load needs no ``json.dumps``.  A *stale* entry (old schema or
    foreign key) is a plain miss, while a *corrupt* one — checksum
    mismatch, undecodable JSON, non-object payload, or a missing result
    block — is quarantined: the line is copied to
    ``<root>/_quarantine/<key>.line``, its key is overwritten with dashes
    in place (same length, so no offset moves and no later scan indexes
    it), the event is logged and counted in :attr:`quarantined`, and the
    job recomputes instead of crashing.

    The quarantine directory itself is bounded: at most
    :data:`QUARANTINE_LIMIT` entries are kept, oldest evicted (deleted)
    first, so a long-lived cache hammered by corruption cannot grow it
    without bound.  Evictions count in :attr:`quarantine_evicted`.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.quarantine_evicted = 0
        #: key -> (segment path, line offset, line length).
        self._index: dict[str, tuple[str, int, int]] = {}
        #: Bytes of each foreign segment already scanned into the index.
        self._scanned: dict[str, int] = {}
        #: Names of the segments this instance wrote (never scanned).
        self._own: set[str] = set()
        #: This instance's segment and the process that named it.
        self._segment = ""
        self._segment_pid = 0
        #: This code version's segment directory, named on first use.
        self._dir: Path | None = None

    @property
    def segment_dir(self) -> Path:
        """``<root>/v<schema>-<code fingerprint>``, which holds every
        segment this code version writes or reads."""
        if self._dir is None:
            self._dir = self.root / f"v{CACHE_SCHEMA}-{code_fingerprint()}"
        return self._dir

    def load(self, key: str) -> dict | None:
        """Return the cached payload for ``key``, counting hit/miss.

        Never raises on a bad entry: corruption quarantines and misses.
        """
        where = self._index.get(key)
        if where is None:
            self._scan()
            where = self._index.get(key)
        line = _read_line(*where) if where is not None else None
        if line is None or _line_key(line) != key.encode("ascii"):
            # No entry, or its segment was removed, cut short or
            # written again from the start.
            self._index.pop(key, None)
            self.misses += 1
            return None
        payload = _decode_line(line)
        if isinstance(payload, str):
            self._quarantine(key, where, line, payload)
        elif payload.get("schema") != CACHE_SCHEMA or payload.get("key") != key:
            # Stale, not corrupt: written by an older schema or for
            # another key.  Leave it alone and recompute.
            pass
        elif not isinstance(payload.get("result"), dict):
            self._quarantine(key, where, line, "missing result block")
        else:
            self.hits += 1
            return payload
        self.misses += 1
        return None

    def store(self, key: str, payload: dict) -> None:
        """Append ``payload`` under ``key`` to this instance's segment.

        One ``json.dumps`` pass (the C encoder) and one unbuffered
        ``write()`` of the whole line.  The first store in a process
        names a new segment, so a forked child never appends to its
        parent's; a removed segment directory is recreated.
        """
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        line = b"%s %s %s\n" % (
            key.encode("ascii"),
            hashlib.sha256(body).hexdigest().encode("ascii"),
            body,
        )
        if self._segment_pid != os.getpid():
            name = (
                f"{time.time_ns():016x}-{os.getpid()}-{os.urandom(4).hex()}"
                f"{SEGMENT_SUFFIX}"
            )
            self._segment = os.path.join(self.segment_dir, name)
            self._segment_pid = os.getpid()
            self._own.add(name)
        try:
            stream = open(self._segment, "ab", buffering=0)
        except FileNotFoundError:
            self.segment_dir.mkdir(parents=True, exist_ok=True)
            stream = open(self._segment, "ab", buffering=0)
        with stream:
            written = stream.write(line)
            end = stream.tell()
        if written != len(line):
            # A torn line ends this segment: the next store starts another.
            self._segment_pid = 0
            raise OSError(
                f"short write to cache segment {self._segment}: "
                f"{written} of {len(line)} bytes"
            )
        self._index[key] = (self._segment, end - written, written)

    def _scan(self) -> None:
        """Index the complete lines appended to foreign segments since
        the last scan, oldest segment first, streaming line by line."""
        directory = self.segment_dir
        try:
            names = sorted(
                name for name in os.listdir(directory)
                if name.endswith(SEGMENT_SUFFIX) and name not in self._own
            )
        except OSError:
            return
        index = self._index
        scanned = self._scanned
        for name in names:
            path = os.path.join(directory, name)
            offset = scanned.get(name, 0)
            try:
                if os.path.getsize(path) <= offset:
                    continue
                stream = open(path, "rb")
            except OSError:
                continue
            with stream:
                stream.seek(offset)
                for line in stream:
                    if not line.endswith(b"\n"):
                        break  # torn: no newline yet, so not an entry
                    if not line.startswith(_TOMBSTONE):
                        key = _line_key(line)
                        index[key.decode("ascii", "replace")] = (
                            path, offset, len(line)
                        )
                    offset += len(line)
            scanned[name] = offset

    def _quarantine(
        self, key: str, where: tuple[str, int, int], line: bytes, reason: str
    ) -> None:
        """Copy a corrupt line aside, blank its key in place, and log it."""
        segment, offset, _ = where
        del self._index[key]
        dest: Path | None = self.root / "_quarantine" / f"{key}.line"
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(line)
        except OSError:
            dest = None
        try:
            with open(segment, "r+b") as stream:
                stream.seek(offset)
                stream.write(_TOMBSTONE * len(_line_key(line)))
        except OSError:
            pass
        self.quarantined += 1
        logger.warning(
            "quarantined corrupt cache entry %s in %s (%s)%s; the job will "
            "be recomputed",
            key,
            os.path.basename(segment),
            reason,
            f" -> {dest}" if dest is not None else "",
        )
        if dest is not None:
            self._bound_quarantine()

    def _bound_quarantine(self) -> None:
        """Evict oldest quarantined entries beyond :data:`QUARANTINE_LIMIT`."""
        quarantine = self.root / "_quarantine"
        try:
            entries = sorted(
                (p for p in quarantine.iterdir() if p.is_file()),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
        except OSError:
            return
        for victim in entries[: max(0, len(entries) - QUARANTINE_LIMIT)]:
            try:
                victim.unlink()
            except OSError:
                continue
            self.quarantine_evicted += 1
            logger.info(
                "evicted oldest quarantined cache entry %s (quarantine "
                "bounded at %d entries)",
                victim.name,
                QUARANTINE_LIMIT,
            )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class JobRecord:
    """One manifest line: what ran, how long, from where, and how it ended."""

    key: str
    benchmark: str
    policy: str
    instructions: int
    wall_s: float
    source: str  # "run" | "cache"
    status: str = "ok"  # "ok" | "failed"


class ExperimentRunner:
    """Fan independent jobs out over processes, backed by the cache.

    Args:
        jobs: worker processes; 1 runs jobs inline (no pool).
        cache: on-disk result cache, or None for no persistence.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.records: list[JobRecord] = []
        #: Canonical spec -> its outcome, for every simulation this
        #: runner has run or loaded (see :meth:`run`).
        self._resolved: dict[JobSpec, JobOutcome] = {}

    # -- execution -------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> dict[JobSpec, JobOutcome]:
        """Execute ``specs`` (deduplicated), sharing simulations.

        Returns one :class:`JobOutcome` per distinct submitted spec, keyed
        by that spec.  Specs with equal :meth:`JobSpec.canonical` forms
        share one simulation, which the cache is keyed by: it runs (or
        loads from the cache) once per runner, and every other spec that
        maps to it — in this call or a later one — is served from the
        runner's memory and recorded as a cache hit.  Results are
        independent of ``jobs`` — each job is a deterministic pure
        function of its spec — so parallel runs match serial runs
        bit for bit.  If any job fails, a single
        :class:`JobExecutionError` aggregating every failure is raised
        — but only after all healthy jobs have completed and been cached,
        so re-running the sweep over the same cache runs only the rest.
        """
        code = code_fingerprint()
        outcomes: dict[JobSpec, JobOutcome] = {}
        misses: list[tuple[JobSpec, str, dict]] = []
        # canonical spec -> the submitted specs it answers in this call.
        sharers: dict[JobSpec, list[JobSpec]] = {}
        for spec in dict.fromkeys(specs):
            canonical = spec.canonical()
            known = self._resolved.get(canonical)
            if known is not None:
                self._serve(spec, known, outcomes)
                continue
            if canonical in sharers:
                sharers[canonical].append(spec)
                continue
            sharers[canonical] = [spec]
            description = canonical.describe()
            key = _job_key(description, code)
            payload = self.cache.load(key) if self.cache is not None else None
            if payload is not None:
                outcome = JobOutcome(
                    result=SimResult.from_dict(payload["result"]),
                    smd_disabled_fraction=payload.get("smd_disabled_fraction"),
                    wall_s=payload.get("wall_s", 0.0),
                    cached=True,
                    key=key,
                )
                self._resolved[canonical] = outcomes[spec] = outcome
                self._record(spec, key, outcome.wall_s, "cache")
            else:
                misses.append((canonical, key, description))
        failures: list[tuple[str, Exception]] = []
        done = self._execute([canonical for canonical, _, _ in misses])
        # Exhaust ``done`` (no zip), so a pool shuts down before this
        # returns or raises.
        for position, result in enumerate(done):
            canonical, key, description = misses[position]
            if not isinstance(result, Exception):
                try:
                    self._harvest(
                        canonical, key, description, result,
                        sharers[canonical], outcomes,
                    )
                    continue
                except Exception as exc:
                    result = exc
            for spec in sharers[canonical]:
                self._record(spec, key, 0.0, "run", "failed")
                failures.append((spec.label(), result))
        if failures:
            summary = "; ".join(f"{label}: {exc}" for label, exc in failures)
            raise JobExecutionError(
                f"{len(failures)} job(s) failed: {summary}", failures=failures
            )
        return outcomes

    def forget_results(self) -> None:
        """Drop the outcomes held in memory; the disk cache is kept."""
        self._resolved.clear()

    def _execute(
        self, specs: list[JobSpec]
    ) -> Iterator[tuple[SimResult, float | None, float] | Exception]:
        """Each job's :func:`execute_job` triple, or the exception that
        ended it, in submission order.

        With ``jobs == 1`` or a single job the jobs run inline.  Otherwise
        one pool of ``min(jobs, len(specs))`` worker processes runs them:
        a worker that dies breaks the pool, and every job the pool had
        not finished ends with ``BrokenProcessPool``.
        """
        if self.jobs == 1 or len(specs) <= 1:
            for spec in specs:
                try:
                    result = execute_job(spec)
                except Exception as exc:
                    result = exc
                yield result
            return
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(specs)))
        try:
            futures = []
            for spec in specs:
                try:
                    future = pool.submit(execute_job, spec)
                except BrokenProcessPool as exc:
                    # A worker died before this job was queued.
                    future = Future()
                    future.set_exception(exc)
                futures.append(future)
            for future in futures:
                try:
                    result = future.result()
                except Exception as exc:
                    result = exc
                yield result
        finally:
            pool.shutdown(cancel_futures=True)

    def _harvest(
        self,
        canonical: JobSpec,
        key: str,
        description: dict,
        result: tuple[SimResult, float | None, float],
        sharers: list[JobSpec],
        outcomes: dict[JobSpec, JobOutcome],
    ) -> None:
        """Cache a finished simulation and answer every spec sharing it."""
        sim, disabled, wall_s = result
        outcome = JobOutcome(
            result=sim,
            smd_disabled_fraction=disabled,
            wall_s=wall_s,
            cached=False,
            key=key,
        )
        if self.cache is not None:
            self.cache.store(
                key,
                {
                    "schema": CACHE_SCHEMA,
                    "key": key,
                    "job": description,
                    "result": sim.to_dict(),
                    "smd_disabled_fraction": disabled,
                    "wall_s": wall_s,
                },
            )
        self._resolved[canonical] = outcome
        first, *others = sharers
        outcomes[first] = outcome
        self._record(first, key, wall_s, "run")
        for spec in others:
            self._serve(spec, outcome, outcomes)

    def _serve(
        self, spec: JobSpec, outcome: JobOutcome, outcomes: dict[JobSpec, JobOutcome]
    ) -> None:
        """Answer ``spec`` with a simulation this runner already holds."""
        outcomes[spec] = (
            outcome if outcome.cached else dataclasses.replace(outcome, cached=True)
        )
        self._record(spec, outcome.key, outcome.wall_s, "cache")

    def _record(
        self,
        spec: JobSpec,
        key: str,
        wall_s: float,
        source: str,
        status: str = "ok",
    ) -> None:
        self.records.append(
            JobRecord(
                key=key,
                benchmark=spec.benchmark.name,
                policy=spec.policy,
                instructions=spec.instructions,
                wall_s=wall_s,
                source=source,
                status=status,
            )
        )

    # -- observability ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if r.source == "run")

    def manifest(self) -> dict:
        """Structured run manifest: per-job records + aggregate counters."""
        ran = [r for r in self.records if r.source == "run"]
        total = len(self.records)
        return {
            "schema": CACHE_SCHEMA,
            "code_version": code_fingerprint(),
            "parallelism": {"jobs": self.jobs},
            "cache": {
                "enabled": self.cache is not None,
                "dir": str(self.cache.root) if self.cache is not None else None,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hits / total if total else 0.0,
                "quarantined": self.cache.quarantined if self.cache else 0,
                "quarantine_evicted": (
                    self.cache.quarantine_evicted if self.cache else 0
                ),
            },
            "totals": {
                "job_count": total,
                "simulated_wall_s": sum(r.wall_s for r in ran),
                "max_job_wall_s": max((r.wall_s for r in ran), default=0.0),
                "failed_jobs": sum(1 for r in self.records if r.status != "ok"),
            },
            "jobs": [dataclasses.asdict(r) for r in self.records],
        }

    def write_manifest(self, path: str | os.PathLike) -> str:
        """Atomically write the manifest as JSON; returns the path written.

        Atomic (temp file + rename) so a run killed mid-write, or a
        reader polling the path, sees either the previous complete
        manifest or the new one, never a torn file.
        """
        manifest = self.manifest()
        manifest["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        target = Path(path)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(manifest, stream, indent=2, sort_keys=True)
        os.replace(tmp, target)
        return str(target)


# ---------------------------------------------------------------------------
# Process-wide default runner
# ---------------------------------------------------------------------------

_default_runner: ExperimentRunner | None = None


def configure_runner(
    jobs: int = 1, cache_dir: str | os.PathLike | None = None
) -> ExperimentRunner:
    """Install (and return) the process-wide default runner.

    Args:
        jobs: worker-process count (1 = inline).
        cache_dir: on-disk cache directory; None disables persistence.
    """
    global _default_runner
    cache = ResultCache(cache_dir) if cache_dir else None
    _default_runner = ExperimentRunner(jobs=jobs, cache=cache)
    return _default_runner


def get_runner() -> ExperimentRunner:
    """The default runner; built from the environment on first use.

    ``REPRO_JOBS`` (int) and ``REPRO_CACHE_DIR`` (path) configure it;
    with neither set the default is serial and memory-only, matching the
    pre-runner behavior exactly.
    """
    global _default_runner
    if _default_runner is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        _default_runner = configure_runner(jobs=max(1, jobs), cache_dir=cache_dir)
    return _default_runner


def reset_runner() -> None:
    """Forget the default runner (tests / CLI re-configuration)."""
    global _default_runner
    _default_runner = None


def render_runner_summary(runner: ExperimentRunner | None = None) -> str:
    """Render the runner's manifest as a summary table.

    One row per policy (job count, cache hits, simulated wall time) plus
    a totals row; the title carries the parallelism setting and the
    cache hit rate.  Returns an empty string when no jobs ran, so
    callers can print the result unconditionally.

    Args:
        runner: the runner to summarize; defaults to the process-wide
            runner.
    """
    manifest = (runner or get_runner()).manifest()
    if not manifest["totals"]["job_count"]:
        return ""
    by_policy: dict[str, dict[str, float]] = {}
    for job in manifest["jobs"]:
        row = by_policy.setdefault(
            job["policy"], {"jobs": 0, "hits": 0, "wall_s": 0.0}
        )
        row["jobs"] += 1
        if job["source"] == "cache":
            row["hits"] += 1
        else:
            row["wall_s"] += job["wall_s"]
    rows = [
        [policy, row["jobs"], row["hits"], f"{row['wall_s']:.2f}"]
        for policy, row in sorted(by_policy.items())
    ]
    totals = manifest["totals"]
    cache = manifest["cache"]
    rows.append(
        ["TOTAL", totals["job_count"], cache["hits"],
         f"{totals['simulated_wall_s']:.2f}"]
    )
    return format_table(
        ["policy", "jobs", "cache hits", "sim wall s"],
        rows,
        title=(
            f"Experiment runner — jobs={manifest['parallelism']['jobs']}, "
            f"cache hit rate {cache['hit_rate']:.0%}"
        ),
    )
