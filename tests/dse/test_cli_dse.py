"""CLI regression tests for `repro dse` / `repro tune` and the unified
grid-spec error paths (exit 2 + "choose from", matching fleet/serve)."""

import json

import pytest

from repro.cli import main

INSTR = ["--instructions", "20000"]
SMALL_GRID = "ecc=4,6;period=0.256,1.024;threshold=2;mdt=1024"


@pytest.fixture(autouse=True)
def _restore_runner():
    """main() installs a global runner; re-pin the hermetic one after."""
    yield
    from repro.analysis.runner import configure_runner

    configure_runner(jobs=1, cache_dir=None)


class TestBadGridsExitTwo:
    def test_empty_axis(self, capsys):
        assert main(["dse", "--grid", "ecc="] + INSTR) == 2
        err = capsys.readouterr().err
        assert err.startswith("dse: ")
        assert "is empty" in err

    def test_non_positive_refresh_period(self, capsys):
        assert main(["dse", "--grid", "period=-1"] + INSTR) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_unknown_policy_lists_choices(self, capsys):
        assert main(["dse", "--grid", "policy=raid5"] + INSTR) == 2
        assert "choose from" in capsys.readouterr().err

    def test_unknown_axis_lists_choices(self, capsys):
        assert main(["dse", "--grid", "voltage=1.1"] + INSTR) == 2
        assert "choose from" in capsys.readouterr().err

    def test_unknown_benchmark_lists_choices(self, capsys):
        code = main(["dse", "--grid", SMALL_GRID,
                     "--benchmarks", "doom"] + INSTR)
        assert code == 2
        assert "choose from" in capsys.readouterr().err

    def test_tune_shares_grid_validation(self, capsys):
        assert main(["tune", "--grid", "ecc="] + INSTR) == 2
        err = capsys.readouterr().err
        assert err.startswith("tune: ")
        assert "is empty" in err

    def test_tune_unknown_persona_lists_choices(self, capsys):
        code = main(["tune", "--grid", SMALL_GRID,
                     "--personas", "martian"] + INSTR)
        assert code == 2
        assert "choose from" in capsys.readouterr().err


class TestReportErrorPathsUnified:
    """The latent gap: report/fidelity used to traceback instead of
    exiting 2 with the fleet/serve-style message."""

    def test_report_list_unknown_exhibit(self, capsys):
        assert main(["report", "--list", "--exhibits", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("report: ")
        assert "choose from" in err

    def test_report_unknown_exhibit(self, capsys):
        assert main(["report", "--exhibits", "fig99"] + INSTR) == 2
        err = capsys.readouterr().err
        assert err.startswith("report: ")
        assert "choose from" in err

    def test_fidelity_unknown_claim(self, capsys):
        assert main(["fidelity", "--claims", "NOT-A-CLAIM"] + INSTR) == 2
        err = capsys.readouterr().err
        assert err.startswith("fidelity: ")
        assert "choose from" in err

    def test_fidelity_unknown_claim_set(self, capsys):
        # argparse validates --claim-set choices itself; exit code is
        # still 2 and the message still lists the choices.
        with pytest.raises(SystemExit) as excinfo:
            main(["fidelity", "--claim-set", "tiny"] + INSTR)
        assert excinfo.value.code == 2
        assert "choose from" in capsys.readouterr().err

    def test_claims_in_set_names_the_choices(self):
        from repro.errors import ConfigurationError
        from repro.fidelity import claims_in_set

        with pytest.raises(ConfigurationError, match="choose from"):
            claims_in_set("tiny")


class TestDseHappyPath:
    def test_prints_frontier_and_knee(self, capsys):
        assert main(["dse", "--grid", SMALL_GRID] + INSTR) == 0
        out = capsys.readouterr().out
        assert "knee" in out
        assert "frontier" in out
        assert "mecc+smd/t" in out

    def test_frontier_out_is_canonical_json(self, tmp_path, capsys):
        out_path = tmp_path / "frontier.json"
        assert main(["dse", "--grid", SMALL_GRID,
                     "--frontier-out", str(out_path)] + INSTR) == 0
        payload = json.loads(out_path.read_text())
        assert payload["grid"]["policy"] == "mecc+smd"
        assert payload["knee"] in payload["frontier"]
        assert len(payload["results"]) == 4

    def test_frontier_bytes_identical_across_jobs(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        args = ["dse", "--grid", SMALL_GRID] + INSTR
        assert main(args + ["--jobs", "1", "--frontier-out", str(serial)]) == 0
        assert main(args + ["--jobs", "4", "--frontier-out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestTuneHappyPath:
    def test_trains_and_reports(self, capsys, tmp_path):
        tuner_path = tmp_path / "tuner.json"
        code = main(["tune", "--grid", SMALL_GRID,
                     "--personas", "light,heavy",
                     "--tuner-out", str(tuner_path)] + INSTR)
        assert code == 0
        out = capsys.readouterr().out
        assert "light" in out and "heavy" in out
        assert "regret" in out
        payload = json.loads(tuner_path.read_text())
        assert payload["kind"] == "dse-tuner"
        assert len(payload["samples"]) == 2
