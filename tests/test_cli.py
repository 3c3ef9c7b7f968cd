"""Tests for the command-line interface."""

import pytest

from repro.cli import EXHIBITS, build_parser, main


@pytest.fixture(autouse=True)
def _restore_runner():
    """main() installs a global runner; re-pin the hermetic one after."""
    yield
    from repro.analysis.runner import configure_runner

    configure_runner(jobs=1, cache_dir=None)


class TestParser:
    def test_all_exhibits_are_choices(self):
        parser = build_parser()
        for name in EXHIBITS:
            args = parser.parse_args([name])
            assert args.exhibit == name

    def test_default_instructions(self):
        args = build_parser().parse_args(["table1"])
        assert args.instructions == 400_000

    def test_rejects_unknown_exhibit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXHIBITS:
            assert name in out

    def test_analytic_exhibits(self, capsys):
        for name in ("table1", "fig2", "fig8", "related-work"):
            assert main([name]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Fig. 8" in out

    def test_simulation_exhibit_small(self, capsys):
        from repro.analysis.experiments import clear_caches

        clear_caches()
        assert main(["fig3", "--instructions", "30000"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "High-MPKI" in out


class TestTraceTools:
    def test_trace_gen_and_sim_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["trace-gen", "--benchmark", "povray",
                     "--instructions", "30000", "-o", str(path)]) == 0
        assert path.exists()
        assert main(["trace-sim", "-i", str(path), "--policy", "secded"]) == 0
        out = capsys.readouterr().out
        assert "povray" in out
        assert "IPC" in out

    def test_trace_gen_requires_output(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-gen", "--benchmark", "povray"])
        assert excinfo.value.code == 2
        assert "--output" in capsys.readouterr().err

    def test_trace_gen_unknown_benchmark(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-gen", "--benchmark", "doom", "-o", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert "choose from" in capsys.readouterr().err

    def test_trace_sim_requires_input(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-sim"])
        assert excinfo.value.code == 2
        assert "--input" in capsys.readouterr().err

    def test_trace_sim_exports_event_trace(self, tmp_path, capsys):
        from repro.obs.trace import read_jsonl

        trace_path = tmp_path / "t.trace"
        events_path = tmp_path / "events.jsonl"
        assert main(["trace-gen", "--benchmark", "povray",
                     "--instructions", "20000", "-o", str(trace_path)]) == 0
        assert main(["trace-sim", "-i", str(trace_path), "--policy", "mecc",
                     "--trace", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert f"trace events to {events_path}" in out
        assert "invariants:" in out and "0 violations" in out
        with open(events_path, encoding="utf-8") as stream:
            events = read_jsonl(stream)
        kinds = {(e.source, e.kind) for e in events}
        assert ("engine", "run_start") in kinds
        assert ("engine", "run_end") in kinds

    def test_trace_sim_writes_metrics(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "t.trace"
        metrics_path = tmp_path / "metrics.json"
        assert main(["trace-gen", "--benchmark", "povray",
                     "--instructions", "20000", "-o", str(trace_path)]) == 0
        assert main(["trace-sim", "-i", str(trace_path), "--policy", "mecc+smd",
                     "--metrics-out", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert f"metrics to {metrics_path}" in out
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        # trace-gen rounds up to whole inter-access gaps.
        assert snapshot["sim.instructions"] >= 20000
        assert snapshot["invariants.violations"] == 0
        assert snapshot["obs.trace.emitted"] >= 2
        assert "dram.reads" in snapshot

    def test_exhibit_metrics_out_records_runner(self, tmp_path, capsys):
        import json

        from repro.analysis.experiments import clear_caches

        clear_caches()
        metrics_path = tmp_path / "runner_metrics.json"
        assert main(["fig3", "--instructions", "30000",
                     "--metrics-out", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert snapshot["runner.jobs"] == 1
        assert snapshot["runner.job_count"] > 0
        assert "runner.code_version" in snapshot


class TestFaultInject:
    def test_fixed_errors(self, capsys):
        assert main(["fault-inject", "--errors", "6", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "corrected" in out
        assert "silent-corruption rate 0.0000" in out

    def test_ber_mode(self, capsys):
        assert main(["fault-inject", "--mode", "weak", "--trials", "30"]) == 0
        out = capsys.readouterr().out
        assert "weak mode" in out


class TestRunnerFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.jobs is None
        assert args.cache_dir is None
        assert not args.no_cache
        assert args.manifest is None

    def test_cache_and_manifest_flags(self, tmp_path, capsys):
        import json

        from repro.analysis.experiments import clear_caches

        cache = tmp_path / "cache"
        manifest = tmp_path / "manifest.json"
        argv = ["fig14", "--instructions", "20000",
                "--cache-dir", str(cache), "--manifest", str(manifest)]
        clear_caches()
        assert main(argv) == 0
        first = json.loads(manifest.read_text())
        assert first["cache"]["hits"] == 0
        assert first["totals"]["job_count"] > 0
        assert list(cache.glob("v*/*.log"))

        # Second invocation: every job served from the on-disk cache.
        clear_caches()
        assert main(argv) == 0
        second = json.loads(manifest.read_text())
        assert second["cache"]["hits"] == first["totals"]["job_count"]
        assert second["cache"]["misses"] == 0
        out = capsys.readouterr().out
        assert "Experiment runner" in out
        assert "cache hit rate 100%" in out

    def test_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        from repro.analysis.experiments import clear_caches

        cache = tmp_path / "cache"
        clear_caches()
        assert main(["fig14", "--instructions", "20000", "--jobs", "1",
                     "--cache-dir", str(cache), "--no-cache"]) == 0
        assert not cache.exists()


class TestChaosCli:
    def test_chaos_runs_and_reports_zero_silent(self, capsys):
        assert main(["chaos", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign 'metadata'" in out
        assert "silent corruptions: 0" in out

    def test_chaos_is_deterministic(self, capsys):
        assert main(["chaos", "--trials", "4", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--trials", "4", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_custom_class_list(self, capsys):
        code = main(
            ["chaos", "--campaign", "mdt-false-set,smd-counter", "--trials", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos campaign 'custom'" in out

    @pytest.mark.parametrize("campaign", ["not-a-fault", "workers",
                                          "workers-smoke"])
    def test_chaos_unknown_class_fails_cleanly(self, campaign, capsys):
        assert main(["chaos", "--campaign", campaign]) == 2
        assert "unknown fault class" in capsys.readouterr().err

    def test_chaos_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--trials", "3", "--metrics-out", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["chaos.silent_corruptions"] == 0


class TestValidate:
    def test_validate_passes_at_default_tolerance(self, capsys):
        assert main(["validate", "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert "model validation" in out
        assert "PASS" in out

    def test_validate_forced_disagreement_exits_nonzero(self, capsys):
        # An impossible tolerance with the noise fallback disabled must
        # turn every comparison into a disagreement and exit 1.
        assert main(
            ["validate", "--trials", "200", "--tolerance", "-1", "--sigma", "0"]
        ) == 1
        captured = capsys.readouterr()
        assert "DISAGREEMENT" in captured.err
        assert "FAIL" in captured.out


class TestFidelity:
    def test_reduced_set_passes(self, capsys):
        assert main(["fidelity", "--claim-set", "reduced"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "F8-REFRESH-16X" in out

    def test_violated_claim_named_and_nonzero(self, monkeypatch, capsys):
        import dataclasses

        from repro.fidelity import claims as claims_mod

        claim = claims_mod.CLAIMS["F8-REFRESH-16X"]
        monkeypatch.setitem(
            claims_mod.CLAIMS,
            "F8-REFRESH-16X",
            dataclasses.replace(claim, expected=0.95, low=0.9, high=1.0),
        )
        assert main(["fidelity", "--claim-set", "reduced"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION F8-REFRESH-16X" in out
        assert "verdict: FAIL" in out

    def test_list_claims(self, capsys):
        assert main(["fidelity", "--list-claims"]) == 0
        out = capsys.readouterr().out
        assert "F8-REFRESH-16X" in out
        assert "T1-LINE-FAILURE-ECC6" in out

    def test_explicit_claims_and_report_json(self, tmp_path, capsys):
        import json

        report = tmp_path / "fidelity.json"
        code = main([
            "fidelity", "--claims", "MDT-STORAGE-128B,F8-REFRESH-16X",
            "--report-json", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["evaluated"] == 2
        assert payload["failed"] == 0
        assert {c["id"] for c in payload["claims"]} == {
            "MDT-STORAGE-128B", "F8-REFRESH-16X",
        }

    def test_unknown_claim_exits_2(self, capsys):
        assert main(["fidelity", "--claims", "NO-SUCH-CLAIM"]) == 2
        assert "NO-SUCH-CLAIM" in capsys.readouterr().err


class TestFleet:
    ARGS = ["--devices", "2000", "--shard-size", "500", "--instructions", "10000"]

    def test_fleet_summary_table(self, capsys):
        assert main(["fleet"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fleet: 2000 devices, 4 shard(s)" in out
        assert "saving_fraction.mean" in out
        assert "best_policy.mecc" in out

    def test_fleet_report_and_metrics(self, tmp_path, capsys):
        import json

        report = tmp_path / "fleet.json"
        metrics = tmp_path / "metrics.json"
        code = main([
            "fleet", *self.ARGS, "--output", str(report),
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["devices"] == 2000
        assert payload["aggregate"]["devices"] == 2000
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["fleet.devices"] == 2000
        assert "runner.job_count" in snapshot

    def test_fleet_report_is_deterministic(self, tmp_path):
        import json

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "fleet", *self.ARGS, "--fleet-seed", "3",
                "--output", str(path),
            ]) == 0
        a = json.loads(paths[0].read_text(encoding="utf-8"))
        b = json.loads(paths[1].read_text(encoding="utf-8"))
        assert a == b

    def test_fleet_custom_mix_and_schemes(self, capsys):
        code = main([
            "fleet", *self.ARGS,
            "--mix", "minimal:0.6,gamer:0.4",
            "--schemes", "baseline,mecc",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy_j.mecc.mean" in out
        assert "energy_j.secded.mean" not in out

    def test_fleet_bad_mix_exits_2(self, capsys):
        assert main(["fleet", *self.ARGS, "--mix", "nosuch:1.0"]) == 2
        assert "unknown personas" in capsys.readouterr().err

    def test_fleet_unknown_scheme_lists_valid_choices(self, capsys):
        assert main([
            "fleet", *self.ARGS, "--schemes", "baseline,bogus"
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown schemes" in err
        assert "bogus" in err
        assert "choose from" in err
        assert "mecc" in err


class TestVerbOwnership:
    """Each verb accepts only its own flags and the shared parents."""

    @pytest.mark.parametrize("argv", [
        ["table1", "--port", "9"],
        ["table1", "--knn", "3"],
        ["table1", "--devices", "5"],
        ["dse", "--slowdown-cap", "0.1"],
        ["trace-gen", "--jobs", "2", "-o", "t.trace"],
        ["report", "-o", "r.md"],
        ["csv", "-o", "out"],
        # The committed report tree is the one golden and `repro report
        # --diff` its gate: no verb keeps a golden or drift flag.
        ["fidelity", "--golden", "x"],
        ["fidelity", "--update-golden"],
        ["tune", "--drift-check"],
        ["tune", "--drift-tolerance", "0.1"],
        # One local runner: no serving, dispatch or worker verbs, and no
        # backend or index flags.
        ["serve"],
        ["dispatch"],
        ["workers", "--connect", "h:1"],
        ["fig7", "--runner-backend", "local"],
        ["fleet", "--index-out", "x"],
    ])
    def test_foreign_flag_or_verb_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag,bad", [
        ("--jobs", "0"),
        ("--devices", "0"),
        ("--shard-size", "0"),
    ])
    def test_bad_counts_rejected_at_parse_time(self, flag, bad, capsys):
        verb = {"--devices": "fleet", "--shard-size": "fleet"}.get(flag, "fig7")
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([verb, flag, bad])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        # The smallest valid value still parses.
        args = build_parser().parse_args([verb, flag, "1"])
        assert getattr(args, flag[2:].replace("-", "_")) == 1

    @pytest.mark.parametrize("argv", [
        ["dse", "--grid", "ecc=6;period=1.024;threshold=1;mdt=1024",
         "--instructions", "10000"],
        ["fidelity", "--claims", "MDT-STORAGE-128B"],
    ])
    def test_metrics_out_carries_runner(self, argv, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(argv + ["--metrics-out", str(path)]) == 0
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        assert "runner.job_count" in snapshot
        assert "runner.backend" not in snapshot


def _doc_invocations():
    """Every ``python -m repro ...`` line in README.md and docs/api.md."""
    import pathlib
    import re
    import shlex

    root = pathlib.Path(__file__).resolve().parent.parent
    for doc in ("README.md", "docs/api.md"):
        for line in (root / doc).read_text(encoding="utf-8").splitlines():
            if "python -m repro" not in line:
                continue
            argv = shlex.split(line.strip().strip("`"), comments=True)
            while argv and re.fullmatch(r"[A-Z_]+=\S*", argv[0]):
                argv.pop(0)
            if argv[:3] == ["python", "-m", "repro"]:
                yield pytest.param(argv[3:], id=f"{doc}:{' '.join(argv[3:])}")


@pytest.mark.parametrize("argv", list(_doc_invocations()))
def test_documented_invocations_parse(argv):
    assert build_parser().parse_args(argv).func
