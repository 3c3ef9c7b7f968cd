"""CLI surface of the dispatch backend: verbs, flags, campaign routing."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.analysis.runner import configure_runner, get_runner


@pytest.fixture(autouse=True)
def _restore_runner():
    yield
    configure_runner(jobs=1, cache_dir=None)


class TestParser:
    def test_new_verbs_parse(self):
        parser = cli.build_parser()
        args = parser.parse_args(["workers", "--connect", "127.0.0.1:9999"])
        assert args.exhibit == "workers" and args.connect == "127.0.0.1:9999"
        args = parser.parse_args(["dispatch", "--dispatch-workers", "3"])
        assert args.exhibit == "dispatch" and args.dispatch_workers == 3

    def test_runner_backend_flag(self):
        parser = cli.build_parser()
        args = parser.parse_args(["table1", "--runner-backend", "dispatch"])
        assert args.runner_backend == "dispatch"
        with pytest.raises(SystemExit):
            parser.parse_args(["table1", "--runner-backend", "bogus"])


class TestWorkersVerb:
    def test_requires_connect(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["workers"])
        assert excinfo.value.code == 2
        assert "--connect" in capsys.readouterr().err

    def test_rejects_malformed_address(self, capsys):
        assert cli.main(["workers", "--connect", "nonsense"]) == 2

    def test_worker_exits_4_when_nothing_listens(self, monkeypatch):
        # Point at a port nobody listens on, with a single fast attempt.
        import repro.dispatch.worker as worker_mod

        original = worker_mod.worker_main

        async def fast(host, port, **kwargs):
            kwargs["connect_attempts"] = 1
            kwargs["connect_delay_s"] = 0.0
            return await original(host, port, **kwargs)

        monkeypatch.setattr(worker_mod, "worker_main", fast)
        assert cli.main(["workers", "--connect", "127.0.0.1:1"]) == 4


class TestDispatchVerb:
    def test_verification_sweep_passes(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        status = cli.main([
            "dispatch",
            "--instructions", "3000",
            "--dispatch-workers", "2",
            "--metrics-out", str(metrics),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "bit-identical to local execution" in out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["dispatch.commits"] == 4
        assert snapshot["dispatch.state_failed"] == 0

    def test_runner_backend_flag_configures_the_runner(self, monkeypatch):
        monkeypatch.setattr(cli, "EXHIBITS", dict(cli.EXHIBITS))
        cli.main(["table1", "--runner-backend", "dispatch"])
        assert get_runner().backend == "dispatch"


class TestChaosRouting:
    def test_named_worker_campaign_routes(self, monkeypatch, capsys):
        """--campaign workers-smoke must reach the worker campaign with
        the registered scenario subset (campaign itself is stubbed —
        the real subprocess run lives in tests/chaos)."""
        import repro.chaos as chaos_mod

        captured = {}

        class FakeReport:
            ok = True

            def render_table(self):
                return "fake worker chaos table"

        class FakeCampaign:
            def __init__(self, scenarios):
                captured["scenarios"] = [s.name for s in scenarios]

            def run(self):
                return FakeReport()

        monkeypatch.setattr(chaos_mod, "WorkerChaosCampaign", FakeCampaign)
        assert cli.main(["chaos", "--campaign", "workers-smoke"]) == 0
        assert captured["scenarios"] == ["kill", "duplicate", "flaky"]
        assert "fake worker chaos table" in capsys.readouterr().out

    def test_scenario_list_routes_to_worker_campaign(self, monkeypatch):
        import repro.chaos as chaos_mod

        class FakeReport:
            ok = False  # violation -> exit 1

            def render_table(self):
                return "table"

        class FakeCampaign:
            def __init__(self, scenarios):
                self.names = [s.name for s in scenarios]

            def run(self):
                return FakeReport()

        monkeypatch.setattr(chaos_mod, "WorkerChaosCampaign", FakeCampaign)
        assert cli.main(["chaos", "--campaign", "kill,duplicate"]) == 1

    def test_control_plane_campaign_still_routes(self, capsys):
        assert cli.main([
            "chaos", "--campaign", "metadata", "--trials", "5",
        ]) == 0
        assert "chaos" in capsys.readouterr().out.lower()

    def test_unknown_campaign_is_an_error(self, capsys):
        assert cli.main(["chaos", "--campaign", "bogus-campaign"]) == 2
