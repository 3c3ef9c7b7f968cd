"""Worker-fault chaos campaign: real subprocess faults, exactly-once.

One end-to-end campaign over a scenario subset keeps the wall time in
CI-smoke territory (the full six-scenario campaign runs in the CI
dispatch job via ``repro chaos --campaign workers``); everything else
here is unit-level on the report/registry plumbing.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    WORKER_CAMPAIGNS,
    WORKER_SCENARIOS,
    WorkerChaosCampaign,
    WorkerChaosReport,
    WorkerChaosScenario,
    WorkerScenarioRecord,
    resolve_worker_scenarios,
)
from repro.errors import ConfigurationError


class TestCampaignEndToEnd:
    def test_faulted_workers_still_complete_every_job_exactly_once(self):
        """kill + duplicate + flaky with real worker subprocesses: all
        jobs commit exactly once, bit-identical to local execution, and
        each scenario's signature ledger event actually fired."""
        campaign = WorkerChaosCampaign(
            resolve_worker_scenarios(["kill", "duplicate", "flaky"]),
        )
        report = campaign.run()
        assert report.ok, report.render_table()
        assert report.lost_total == 0
        assert report.double_commits_total == 0
        assert report.mismatch_total == 0
        by_name = {record.scenario: record for record in report.records}
        assert by_name["kill"].requeues >= 1
        assert by_name["duplicate"].duplicates >= 1
        assert by_name["flaky"].retried_failures >= 1

    def test_expected_event_that_never_fires_fails_the_scenario(self):
        """A scenario that injects nothing cannot prove its fault fired:
        with no requeue in the ledger, the verdict must be FAIL."""
        idle = WorkerChaosScenario(
            name="idle",
            description="healthy workers, but a requeue is expected",
            faults=(("none", 0.0),),
            expect_events=("requeues",),
        )
        report = WorkerChaosCampaign(
            [idle], benchmarks=("libq",), policies=("mecc",)
        ).run()
        (record,) = report.records
        assert record.lost == 0 and record.mismatches == 0
        assert not report.ok, report.render_table()
        assert record.missing_events == ("requeues",)
        assert record.expected_events == {"requeues": 0}
        table = report.render_table()
        assert "requeues=0" in table and "— FAIL" in table


class TestRegistry:
    def test_every_scenario_is_registered_with_a_fault(self):
        assert set(WORKER_SCENARIOS) == {
            "kill", "silent", "slow", "partition", "duplicate", "flaky",
        }
        for scenario in WORKER_SCENARIOS.values():
            assert scenario.faults  # each scenario injects something
            assert scenario.heartbeat_s < scenario.lease_s

    def test_named_campaigns_resolve(self):
        assert WORKER_CAMPAIGNS["workers"] == tuple(WORKER_SCENARIOS)
        smoke = resolve_worker_scenarios(WORKER_CAMPAIGNS["workers-smoke"])
        assert [s.name for s in smoke] == ["kill", "duplicate", "flaky"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_worker_scenarios(["nonexistent"])
        with pytest.raises(ConfigurationError):
            resolve_worker_scenarios([])
        with pytest.raises(ConfigurationError):
            WorkerChaosCampaign(scenarios=())
        with pytest.raises(ConfigurationError):
            WorkerChaosCampaign(instructions=0)


def _record(**overrides) -> WorkerScenarioRecord:
    values = dict(
        scenario="kill", jobs=6, committed=6, completed_locally=0,
        failed=0, lost=0, double_commits=0, duplicates=0, requeues=1,
        leases_expired=0, retried_failures=0, workers_lost=1,
        workers_evicted=0, workers_quarantined=0, mismatches=0,
        missing_events=(),
    )
    values.update(overrides)
    return WorkerScenarioRecord(**values)


class TestReport:
    def test_verdicts(self):
        assert _record().ok
        assert not _record(lost=1).ok
        assert not _record(double_commits=1).ok
        assert not _record(failed=1).ok
        assert not _record(mismatches=1).ok
        assert not _record(missing_events=("requeues",)).ok

    def test_report_aggregates_and_renders(self):
        report = WorkerChaosReport(
            records=[_record(), _record(scenario="flaky", duplicates=2)]
        )
        assert report.ok and report.jobs_total == 12
        table = report.render_table()
        assert "0 lost, 0 double-committed — PASS" in table
        payload = report.as_dict()
        assert payload["ok"] and payload["duplicates_total"] == 2
        assert payload["kill"]["requeues"] == 1

    def test_metrics_registry_adapter(self):
        from repro.obs.metrics import MetricsRegistry

        report = WorkerChaosReport(records=[_record()])
        registry = MetricsRegistry()
        registry.record_chaos(report, namespace="chaos.workers")
        snapshot = registry.snapshot()
        assert snapshot["chaos.workers.jobs_total"] == 6
        assert snapshot["chaos.workers.ok"] is True
        assert snapshot["chaos.workers.kill.requeues"] == 1
