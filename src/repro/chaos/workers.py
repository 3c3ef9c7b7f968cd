"""Worker-fault chaos campaign for the dispatch backend.

Where :mod:`repro.chaos.campaign` attacks the modeled *control plane*
(MDT bits, mode state), this campaign attacks the *execution
infrastructure*: real coordinator, real worker subprocesses, real
injected faults — a worker SIGKILLed mid-job, one that goes silent and
lets its lease expire, one that stalls until the slow-worker eviction
fires, a partitioned socket, duplicate result delivery, and a flaky
worker whose job failures must be retried.

Every scenario runs a small real sweep through
:class:`repro.dispatch.backend.DispatchBackend` (plus the local
degradation path for jobs the workers never finished, exactly as the
experiment runner would) and asserts the two invariants the dispatch
ledger promises:

* **exactly-once completion** — every job commits exactly once; late or
  repeated deliveries are counted duplicates, never double-commits, and
  no job is lost;
* **bit-identical results** — each committed payload equals a fault-free
  local run of the same spec, field for field.

``repro chaos --campaign workers`` runs the full campaign; the CI
dispatch job gates on a zero-lost / zero-double-commit / zero-mismatch
report.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError

logger = logging.getLogger("repro.chaos")

#: Default sweep behind each scenario: small enough that a full
#: campaign (one coordinator + two subprocess workers per scenario)
#: stays in CI-smoke territory, large enough that the healthy worker
#: banks the wall-time samples slow-eviction needs.
DEFAULT_INSTRUCTIONS = 3000
DEFAULT_BENCHMARKS = ("libq", "milc", "sphinx")
DEFAULT_POLICIES = ("mecc", "secded")


@dataclass(frozen=True)
class WorkerChaosScenario:
    """One named fault configuration: which worker misbehaves, and how."""

    name: str
    description: str
    #: ``(mode, arg)`` per spawned worker index; missing = healthy.
    faults: tuple = ()
    workers: int = 2
    lease_s: float = 1.0
    heartbeat_s: float = 0.25
    #: Scenario-specific :class:`repro.dispatch.DispatchConfig` extras.
    overrides: dict = field(default_factory=dict)
    #: Scenarios that *must* record at least one of these ledger events
    #: to prove the fault actually fired (e.g. ``leases_expired``).
    expect_events: tuple = ()


WORKER_SCENARIOS: dict[str, WorkerChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        WorkerChaosScenario(
            name="kill",
            description="worker SIGKILLed mid-job; dropped connection requeues",
            faults=(("kill", 0.05),),
            expect_events=("requeues",),
        ),
        WorkerChaosScenario(
            name="silent",
            description="heartbeats stop mid-job; lease expires and requeues",
            faults=(("silent", 2.0),),
            expect_events=("leases_expired", "requeues"),
        ),
        WorkerChaosScenario(
            name="slow",
            description="worker stalls while heartbeating; slow-eviction fires",
            faults=(("slow", 6.0),),
            overrides={"slow_grace_s": 1.0, "slow_factor": 8.0},
            expect_events=("requeues",),
        ),
        WorkerChaosScenario(
            name="partition",
            description="socket freezes completely; silence requeues the lease",
            faults=(("partition", 4.0),),
            expect_events=("requeues",),
        ),
        WorkerChaosScenario(
            name="duplicate",
            description="every result delivered twice; second copy is a no-op",
            faults=(("duplicate", 0.0),),
            expect_events=("duplicates",),
        ),
        WorkerChaosScenario(
            name="flaky",
            description="first two jobs raise; bounded retries recover them",
            faults=(("flaky", 2.0),),
            expect_events=("retried_failures",),
        ),
    )
}

#: Named scenario sets for ``--campaign`` style selection.
WORKER_CAMPAIGNS: dict[str, tuple[str, ...]] = {
    "workers": tuple(WORKER_SCENARIOS),
    "workers-smoke": ("kill", "duplicate", "flaky"),
}


def resolve_worker_scenarios(names) -> tuple[WorkerChaosScenario, ...]:
    """Map scenario names to scenarios; unknown names raise."""
    scenarios = []
    for name in names:
        if name not in WORKER_SCENARIOS:
            raise ConfigurationError(
                f"unknown worker-chaos scenario {name!r}; choose from "
                f"{', '.join(WORKER_SCENARIOS)}"
            )
        scenarios.append(WORKER_SCENARIOS[name])
    if not scenarios:
        raise ConfigurationError("no worker-chaos scenarios selected")
    return tuple(scenarios)


@dataclass
class WorkerScenarioRecord:
    """Outcome of one scenario run, with the invariant verdicts."""

    scenario: str
    jobs: int
    committed: int
    completed_locally: int
    failed: int
    lost: int
    double_commits: int
    duplicates: int
    requeues: int
    leases_expired: int
    retried_failures: int
    workers_lost: int
    workers_evicted: int
    workers_quarantined: int
    mismatches: int
    #: Count of each of the scenario's ``expect_events`` in the ledger.
    expected_events: dict = field(default_factory=dict)
    missing_events: tuple = ()
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.lost == 0
            and self.double_commits == 0
            and self.failed == 0
            and self.mismatches == 0
            and not self.missing_events
        )

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "jobs": self.jobs,
            "committed": self.committed,
            "completed_locally": self.completed_locally,
            "failed": self.failed,
            "lost": self.lost,
            "double_commits": self.double_commits,
            "duplicates": self.duplicates,
            "requeues": self.requeues,
            "leases_expired": self.leases_expired,
            "retried_failures": self.retried_failures,
            "workers_lost": self.workers_lost,
            "workers_evicted": self.workers_evicted,
            "workers_quarantined": self.workers_quarantined,
            "mismatches": self.mismatches,
            "missing_events": ",".join(self.missing_events),
            "wall_s": self.wall_s,
            "ok": self.ok,
        }


@dataclass
class WorkerChaosReport:
    """Campaign verdict: per-scenario records plus aggregate invariants."""

    records: list

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def jobs_total(self) -> int:
        return sum(record.jobs for record in self.records)

    @property
    def lost_total(self) -> int:
        return sum(record.lost for record in self.records)

    @property
    def double_commits_total(self) -> int:
        return sum(record.double_commits for record in self.records)

    @property
    def mismatch_total(self) -> int:
        return sum(record.mismatches for record in self.records)

    def as_dict(self) -> dict:
        payload = {
            "scenarios": len(self.records),
            "jobs_total": self.jobs_total,
            "lost_total": self.lost_total,
            "double_commits_total": self.double_commits_total,
            "mismatch_total": self.mismatch_total,
            "duplicates_total": sum(r.duplicates for r in self.records),
            "ok": self.ok,
        }
        for record in self.records:
            payload[record.scenario] = record.as_dict()
        return payload

    def render_table(self) -> str:
        rows = [
            [
                record.scenario,
                record.jobs,
                record.committed,
                record.completed_locally,
                record.duplicates,
                record.requeues,
                record.lost,
                record.double_commits,
                record.mismatches,
                ", ".join(f"{e}={n}" for e, n in record.expected_events.items()),
                "PASS" if record.ok else "FAIL",
            ]
            for record in self.records
        ]
        verdict = "PASS" if self.ok else "FAIL"
        return format_table(
            [
                "scenario", "jobs", "committed", "local", "dups",
                "requeues", "lost", "double", "mismatch", "expected event",
                "verdict",
            ],
            rows,
            title=(
                f"worker chaos: {len(self.records)} scenario(s), "
                f"{self.jobs_total} jobs, {self.lost_total} lost, "
                f"{self.double_commits_total} double-committed — {verdict}"
            ),
        )


class WorkerChaosCampaign:
    """Run fault scenarios against a real coordinator + worker fleet.

    Args:
        scenarios: scenario objects (default: every registered one).
        instructions: per-job slice length; the default keeps one
            scenario around a second of wall time.
        benchmarks / policies: the sweep grid behind every scenario.
    """

    def __init__(
        self,
        scenarios=None,
        instructions: int = DEFAULT_INSTRUCTIONS,
        benchmarks=DEFAULT_BENCHMARKS,
        policies=DEFAULT_POLICIES,
    ):
        if instructions < 1:
            raise ConfigurationError("instructions must be >= 1")
        self.scenarios = (
            tuple(scenarios)
            if scenarios is not None
            else tuple(WORKER_SCENARIOS.values())
        )
        if not self.scenarios:
            raise ConfigurationError("no worker-chaos scenarios selected")
        self.instructions = instructions
        self.benchmarks = tuple(benchmarks)
        self.policies = tuple(policies)

    def _specs(self):
        from repro.analysis.runner import JobSpec
        from repro.workloads.spec import BENCHMARKS_BY_NAME

        specs = []
        for name in self.benchmarks:
            if name not in BENCHMARKS_BY_NAME:
                raise ConfigurationError(f"unknown benchmark {name!r}")
            for policy in self.policies:
                specs.append(
                    JobSpec(
                        benchmark=BENCHMARKS_BY_NAME[name],
                        instructions=self.instructions,
                        policy=policy,
                    )
                )
        return specs

    def run(self) -> WorkerChaosReport:
        """Run every scenario; the report carries the verdicts."""
        import time

        from repro.analysis.runner import execute_job

        specs = self._specs()
        # Fault-free reference results, computed once in-process: the
        # bar every chaos-delivered payload must match bit for bit.
        reference = {
            index: execute_job(spec)[0].to_dict()
            for index, spec in enumerate(specs)
        }
        records = []
        for scenario in self.scenarios:
            started = time.monotonic()
            record = self._run_scenario(scenario, specs, reference)
            record.wall_s = time.monotonic() - started
            records.append(record)
            logger.info(
                "worker chaos %s: %s (%d jobs, %d dups, %d requeues, %.2fs)",
                scenario.name,
                "PASS" if record.ok else "FAIL",
                record.jobs,
                record.duplicates,
                record.requeues,
                record.wall_s,
            )
        return WorkerChaosReport(records=records)

    def _run_scenario(self, scenario, specs, reference) -> WorkerScenarioRecord:
        from repro.analysis.runner import execute_job
        from repro.dispatch import DispatchBackend, DispatchConfig

        config = DispatchConfig(
            workers=scenario.workers,
            lease_s=scenario.lease_s,
            heartbeat_s=scenario.heartbeat_s,
            worker_faults=tuple(scenario.faults),
            **scenario.overrides,
        )
        pending = list(enumerate(specs))
        commit_counts: Counter = Counter()
        harvested: dict[int, dict] = {}

        def harvest(index, triple):
            commit_counts[index] += 1
            harvested[index] = triple[0].to_dict()

        backend = DispatchBackend(config)
        failed, leftover = backend.execute(pending, harvest)
        committed = len(harvested)
        # The runner's graceful-degradation path: jobs workers never
        # finished run locally.  They still count toward exactly-once.
        for index, spec in leftover:
            result, _, _, _ = execute_job(spec)
            harvested[index] = result.to_dict()
        summary = backend.summary or {}
        mismatches = sum(
            1
            for index, payload in harvested.items()
            if payload != reference[index]
        )
        expected = {
            event: summary.get(event, 0) for event in scenario.expect_events
        }
        return WorkerScenarioRecord(
            scenario=scenario.name,
            jobs=len(specs),
            committed=committed,
            completed_locally=len(leftover),
            failed=len(failed),
            lost=len(specs) - len(harvested),
            double_commits=sum(
                1 for count in commit_counts.values() if count > 1
            ),
            duplicates=summary.get("duplicates", 0),
            requeues=summary.get("requeues", 0),
            leases_expired=summary.get("leases_expired", 0),
            retried_failures=summary.get("retried_failures", 0),
            workers_lost=summary.get("workers_lost", 0),
            workers_evicted=summary.get("workers_evicted", 0),
            workers_quarantined=summary.get("workers_quarantined", 0),
            mismatches=mismatches,
            expected_events=expected,
            missing_events=tuple(e for e, n in expected.items() if not n),
        )
