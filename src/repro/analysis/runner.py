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

Resilience (the parts that make long sweeps survivable):

* **Checksummed cache entries** — every entry is one line of an
  append-only segment log, headed by a SHA-256 of its JSON bytes; an
  entry that fails the checksum, is not a JSON object, or lacks its
  result block is *quarantined* (copied to ``<cache>/_quarantine/`` and
  blanked in its segment), logged, and treated as a miss so the job is
  recomputed instead of crashing the sweep.
* **Per-job wall-clock timeouts** (``timeout_s``) — enforced by waiting
  on each worker future with a deadline; on expiry the worker pool is
  killed (``SIGTERM`` to every worker) and the job is marked timed out.
  Setting a timeout forces pool execution even for a single job, since
  an inline job cannot be preempted.
* **Bounded retries with exponential backoff** (``retries``,
  ``retry_backoff_s``) — failed or timed-out jobs are re-attempted up to
  ``retries`` extra times; jobs still failing raise a single aggregated
  :class:`repro.errors.JobExecutionError` *after* every healthy job has
  completed and been cached.
* **Serial fallback** — a :class:`BrokenProcessPool` (worker killed by
  the OS, OOM, etc.) permanently downgrades the runner to inline
  execution for the rest of the sweep rather than losing it.
* **Resume is the cache** — every successful job is stored as it
  completes, so re-running an interrupted sweep over the same cache
  directory serves the finished jobs as hits and runs only the rest.

The runner is deterministic by construction: jobs are pure functions of
their spec (fixed seeds end to end), so ``jobs=N`` produces bit-identical
results to ``jobs=1``, and a cache hit returns exactly the bytes a cold
run would compute.

Configuration is either explicit (:func:`configure_runner`) or via the
environment: ``REPRO_JOBS`` sets the worker count, ``REPRO_CACHE_DIR``
enables the on-disk cache (unset → the runner's in-memory results only),
and ``REPRO_JOB_TIMEOUT_S`` / ``REPRO_RETRIES`` set the resilience
knobs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.backoff import DecorrelatedJitter
from repro.analysis.tables import format_table
from repro.core.smd import DEFAULT_THRESHOLD_MPKC
from repro.errors import ConfigurationError, JobExecutionError, JobTimeoutError
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

#: Default cap on corrupt-entry files kept under ``<cache>/_quarantine/``.
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
    ``max_quarantine`` entries are kept, oldest evicted (deleted) first,
    so a long-lived cache hammered by corruption cannot grow it without
    bound.  Evictions count in :attr:`quarantine_evicted`.
    """

    def __init__(
        self, root: str | os.PathLike, max_quarantine: int = QUARANTINE_LIMIT
    ):
        if max_quarantine < 1:
            raise ConfigurationError("max_quarantine must be >= 1")
        self.root = Path(root)
        self.max_quarantine = max_quarantine
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
        """Evict oldest quarantined entries beyond :attr:`max_quarantine`."""
        quarantine = self.root / "_quarantine"
        try:
            entries = sorted(
                (p for p in quarantine.iterdir() if p.is_file()),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
        except OSError:
            return
        for victim in entries[: max(0, len(entries) - self.max_quarantine)]:
            try:
                victim.unlink()
            except OSError:
                continue
            self.quarantine_evicted += 1
            logger.info(
                "evicted oldest quarantined cache entry %s (quarantine "
                "bounded at %d entries)",
                victim.name,
                self.max_quarantine,
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
    status: str = "ok"  # "ok" | "failed" | "timeout"


#: Exceptions meaning "the pool itself died", not "the job failed".
_POOL_DEATH = (BrokenProcessPool,)


class ExperimentRunner:
    """Fan independent jobs out over processes, backed by the cache.

    Args:
        jobs: worker processes; 1 runs jobs inline (no pool) unless a
            timeout forces process isolation.
        cache: on-disk result cache, or None for no persistence.
        timeout_s: per-job wall-clock deadline; on expiry the worker
            pool is killed and the job counts as timed out (retryable).
            None disables the deadline (and inline jobs are never
            preempted regardless).
        retries: extra attempts for failed/timed-out jobs (0 = one
            attempt total).
        retry_backoff_s: base delay before the first retry; subsequent
            delays use decorrelated jitter (``min(30, U(base, 3 *
            previous))``) so synchronized failures do not retry in
            lockstep.  0 disables backoff entirely.
        start_method: multiprocessing start method for the worker pool
            (``fork`` / ``spawn`` / ``forkserver``); None uses the
            platform default.  Results are identical either way.
        backoff_rng: randomness for the retry jitter (injectable so
            tests stay deterministic); None draws a private RNG.
        sleep: the backoff sleep hook (injectable for tests).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.25,
        start_method: str | None = None,
        backoff_rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if start_method is not None and start_method not in (
            multiprocessing.get_all_start_methods()
        ):
            raise ConfigurationError(
                f"unknown start method {start_method!r}; choose from "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive (or None)")
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.start_method = start_method
        self._backoff_rng = backoff_rng
        self._sleep = sleep
        self.records: list[JobRecord] = []
        #: Canonical spec -> its outcome, for every simulation this
        #: runner has run or loaded (see :meth:`run`).
        self._resolved: dict[JobSpec, JobOutcome] = {}
        #: Jobs that hit their wall-clock deadline (across attempts).
        self.timeouts = 0
        #: Times the worker pool itself died (BrokenProcessPool).
        self.pool_failures = 0
        self._pool_broken = False

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
        bit for bit.  If any job still fails after its retries, a single
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
        if misses:

            def harvest(position: int, triple) -> None:
                canonical, key, description = misses[position]
                result, disabled, wall_s = triple
                outcome = JobOutcome(
                    result=result,
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
                            "result": result.to_dict(),
                            "smd_disabled_fraction": disabled,
                            "wall_s": wall_s,
                        },
                    )
                self._resolved[canonical] = outcome
                first, *others = sharers[canonical]
                outcomes[first] = outcome
                self._record(first, key, wall_s, "run")
                for spec in others:
                    self._serve(spec, outcome, outcomes)

            errors = self._execute_resilient(
                [canonical for canonical, _, _ in misses], harvest
            )
            for position in sorted(errors):
                canonical, key, _ = misses[position]
                exc = errors[position]
                status = "timeout" if isinstance(exc, JobTimeoutError) else "failed"
                for spec in sharers[canonical]:
                    self._record(spec, key, 0.0, "run", status)
                    failures.append((spec.label(), exc))
        if failures:
            summary = "; ".join(f"{label}: {exc}" for label, exc in failures)
            raise JobExecutionError(
                f"{len(failures)} job(s) failed after "
                f"{self.retries + 1} attempt(s): {summary}",
                failures=failures,
            )
        return outcomes

    def forget_results(self) -> None:
        """Drop the outcomes held in memory; the disk cache is kept."""
        self._resolved.clear()

    def _serve(
        self, spec: JobSpec, outcome: JobOutcome, outcomes: dict[JobSpec, JobOutcome]
    ) -> None:
        """Answer ``spec`` with a simulation this runner already holds."""
        outcomes[spec] = (
            outcome if outcome.cached else dataclasses.replace(outcome, cached=True)
        )
        self._record(spec, outcome.key, outcome.wall_s, "cache")

    def _use_pool(self, n_jobs: int) -> bool:
        if self._pool_broken:
            return False
        if self.jobs > 1 and n_jobs > 1:
            return True
        # A timeout can only be enforced on a killable worker process.
        return self.timeout_s is not None and n_jobs > 0

    def _execute_resilient(
        self, specs: list[JobSpec], harvest: Callable[[int, tuple], None]
    ) -> dict[int, Exception]:
        """Run every spec, retrying failures; returns index -> final error.

        ``harvest`` is invoked once per *successful* job, in submission
        order within each attempt, so caching happens as results arrive
        rather than at sweep end.
        """
        errors: dict[int, Exception] = {}
        pending: list[tuple[int, JobSpec]] = list(enumerate(specs))
        backoff = DecorrelatedJitter(
            self.retry_backoff_s, 30.0, rng=self._backoff_rng
        )
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt:
                delay = backoff.next_delay()
                logger.info(
                    "retry %d/%d for %d job(s) after %.2f s backoff",
                    attempt,
                    self.retries,
                    len(pending),
                    delay,
                )
                if delay:
                    self._sleep(delay)
            failed: list[tuple[int, JobSpec, Exception]] = []
            leftover = pending
            if self._use_pool(len(pending)):
                failed, leftover = self._attempt_pool(pending, harvest)
            for index, spec in leftover:
                # Inline path: jobs == 1, pool permanently broken, or
                # jobs a killed pool never got to.
                try:
                    harvest(index, execute_job(spec))
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    failed.append((index, spec, exc))
            pending = []
            for index, spec, exc in failed:
                errors[index] = exc
                pending.append((index, spec))
            pending.sort()
        return {index: errors[index] for index, _ in pending}

    def _attempt_pool(
        self,
        pending: list[tuple[int, JobSpec]],
        harvest: Callable[[int, tuple], None],
    ) -> tuple[list[tuple[int, JobSpec, Exception]], list[tuple[int, JobSpec]]]:
        """One pooled attempt; returns (failed-with-error, never-ran).

        Jobs in the second list were victims of a pool death or timeout
        kill — they did not fail on their own and run inline (or retry)
        without consuming extra attempts for a fault that was not theirs.
        """
        failed: list[tuple[int, JobSpec, Exception]] = []
        leftover: list[tuple[int, JobSpec]] = []
        workers = min(self.jobs, len(pending)) if self.jobs > 1 else 1
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=(
                multiprocessing.get_context(self.start_method)
                if self.start_method
                else None
            ),
        )
        futures = []
        try:
            for index, spec in pending:
                futures.append((pool.submit(execute_job, spec), index, spec))
        except _POOL_DEATH + (RuntimeError,):
            self._mark_pool_broken()
            submitted = {idx for _, idx, _ in futures}
            leftover.extend(
                (idx, spec) for idx, spec in pending if idx not in submitted
            )
        dead = False
        for future, index, spec in futures:
            if dead:
                # Pool already killed/broken: salvage finished results,
                # requeue everything else.
                if future.done() and not future.cancelled():
                    exc = future.exception()
                    if exc is None:
                        try:
                            harvest(index, future.result())
                        except Exception as err:
                            failed.append((index, spec, err))
                    elif isinstance(exc, _POOL_DEATH):
                        leftover.append((index, spec))
                    else:
                        failed.append((index, spec, exc))
                else:
                    leftover.append((index, spec))
                continue
            try:
                triple = future.result(timeout=self.timeout_s)
            except FutureTimeoutError:
                self.timeouts += 1
                failed.append(
                    (
                        index,
                        spec,
                        JobTimeoutError(
                            f"job {spec.label()} exceeded the "
                            f"{self.timeout_s:g} s wall-clock deadline; "
                            "worker pool killed"
                        ),
                    )
                )
                logger.warning(
                    "job %s timed out after %g s; killing the worker pool",
                    spec.label(),
                    self.timeout_s,
                )
                self._kill_pool(pool)
                dead = True
                continue
            except _POOL_DEATH:
                self._mark_pool_broken()
                leftover.append((index, spec))
                dead = True
                continue
            except Exception as exc:
                failed.append((index, spec, exc))
                continue
            try:
                harvest(index, triple)
            except Exception as err:
                failed.append((index, spec, err))
        if not dead:
            pool.shutdown(wait=True)
        return failed, leftover

    def _mark_pool_broken(self) -> None:
        self.pool_failures += 1
        if not self._pool_broken:
            logger.warning(
                "worker pool died (BrokenProcessPool); falling back to "
                "serial in-process execution for the rest of the sweep"
            )
        self._pool_broken = True

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate every worker and abandon the pool (timeout path)."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except OSError:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

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
            "parallelism": {
                "jobs": self.jobs,
                "start_method": self.start_method,
            },
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
            "resilience": {
                "timeout_s": self.timeout_s,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "pool_failures": self.pool_failures,
                "serial_fallback": self._pool_broken,
            },
            "totals": {
                "job_count": total,
                "simulated_wall_s": sum(r.wall_s for r in ran),
                "max_job_wall_s": max((r.wall_s for r in ran), default=0.0),
                "failed_jobs": sum(
                    1 for r in self.records if r.status in ("failed", "timeout")
                ),
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
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    start_method: str | None = None,
) -> ExperimentRunner:
    """Install (and return) the process-wide default runner.

    Args:
        jobs: worker-process count (1 = inline).
        cache_dir: on-disk cache directory; None disables persistence.
        timeout_s: per-job wall-clock deadline (None = unlimited).
        retries: extra attempts for failed/timed-out jobs.
        start_method: worker-pool start method (None = platform default).
    """
    global _default_runner
    cache = ResultCache(cache_dir) if cache_dir else None
    _default_runner = ExperimentRunner(
        jobs=jobs,
        cache=cache,
        timeout_s=timeout_s,
        retries=retries,
        start_method=start_method,
    )
    return _default_runner


def get_runner() -> ExperimentRunner:
    """The default runner; built from the environment on first use.

    ``REPRO_JOBS`` (int), ``REPRO_CACHE_DIR`` (path),
    ``REPRO_JOB_TIMEOUT_S`` (float), ``REPRO_RETRIES`` (int), and
    ``REPRO_POOL_START_METHOD`` (``fork``/``spawn``/``forkserver``)
    configure it; with none set the default is
    serial and memory-only, matching the pre-runner behavior exactly.
    """
    global _default_runner
    if _default_runner is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        timeout_env = os.environ.get("REPRO_JOB_TIMEOUT_S") or None
        retries = int(os.environ.get("REPRO_RETRIES", "0") or "0")
        start_method = os.environ.get("REPRO_POOL_START_METHOD") or None
        _default_runner = configure_runner(
            jobs=max(1, jobs),
            cache_dir=cache_dir,
            timeout_s=float(timeout_env) if timeout_env else None,
            retries=max(0, retries),
            start_method=start_method,
        )
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
