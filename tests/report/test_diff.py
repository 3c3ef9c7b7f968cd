"""Tree diff: identical trees pass; a perturbed cell names exhibit + cell."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.report.diff import CellDiff, diff_exhibit, diff_trees
from repro.report.pipeline import MANIFEST_NAME, ReportPipeline
from repro.sim.system import ScaledRun

RUN = ScaledRun(instructions=10_000)
EXHIBITS = "table1,fig2"


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    out = tmp_path_factory.mktemp("diff-base")
    return ReportPipeline(
        out_dir=out, run_id="base", formats="json", run=RUN
    ).generate(EXHIBITS)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("diff-regen")
    return ReportPipeline(
        out_dir=out, run_id="regen", formats="json", run=RUN
    ).generate(EXHIBITS)


def _copy(tree: Path, tmp_path: Path) -> Path:
    cand = tmp_path / "cand"
    shutil.copytree(tree, cand)
    return cand


def _perturb_cell(tree: Path, exhibit: str, column: str, factor: float):
    """Scale one numeric cell; returns (row_key, column)."""
    path = tree / f"{exhibit}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    col = payload["columns"].index(column)
    row = payload["rows"][0]
    row[col] = row[col] * factor
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(row[0]), column


class TestCleanDiff:
    def test_independent_regenerations_diff_clean(self, base, regenerated):
        diff = diff_trees(regenerated, base)
        assert diff.exhibits_compared == 2
        assert diff.mismatches == []
        assert diff.clean
        assert "0 mismatch(es)" in diff.render()

    def test_subset_narrows_comparison(self, base, regenerated):
        diff = diff_trees(regenerated, base, exhibits="table1")
        assert diff.exhibits_compared == 1
        assert diff.clean

    def test_nothing_compared_is_not_clean(self, base, regenerated):
        diff = diff_trees(regenerated, base, exhibits=[])
        assert diff.exhibits_compared == 0
        assert not diff.clean


class TestDrift:
    def test_perturbed_cell_names_exhibit_and_cell(self, base, tmp_path):
        cand = _copy(base, tmp_path)
        key, column = _perturb_cell(cand, "table1", "line_failure", 1.01)
        diff = diff_trees(cand, base)
        assert not diff.clean
        assert len(diff.mismatches) == 1
        mismatch = diff.mismatches[0]
        assert mismatch.exhibit == "table1"
        assert mismatch.location == f"{key}.{column}"
        assert f"table1[{key}.{column}]" in diff.render()

    def test_drift_within_rtol_band_passes(self, base, tmp_path):
        cand = _copy(base, tmp_path)
        _perturb_cell(cand, "table1", "line_failure", 1.01)
        # Widen the baseline's band for table1: the 1% nudge is in-band.
        manifest_path = base / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["exhibits"]["table1"]["diff_rtol"] = 0.5
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        try:
            assert diff_trees(cand, base).clean
        finally:
            manifest["exhibits"]["table1"]["diff_rtol"] = 1e-9
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    def test_missing_exhibit_is_a_presence_mismatch(self, base, tmp_path):
        only_table1 = ReportPipeline(
            out_dir=tmp_path, run_id="narrow", formats="json", run=RUN
        ).generate("table1")
        diff = diff_trees(only_table1, base)
        assert not diff.clean
        assert any(
            m.exhibit == "fig2" and m.location == "presence"
            for m in diff.mismatches
        )

    def test_row_count_mismatch_short_circuits(self, base, tmp_path):
        cand = _copy(base, tmp_path)
        path = cand / "fig2.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["rows"] = payload["rows"][:-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        diff = diff_trees(cand, base)
        assert [m.location for m in diff.mismatches if m.exhibit == "fig2"] == [
            "row count"
        ]

    def test_column_rename_is_structural(self, base, tmp_path):
        cand = _copy(base, tmp_path)
        path = cand / "table1.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["columns"][1] = "renamed"
        path.write_text(json.dumps(payload), encoding="utf-8")
        diff = diff_trees(cand, base)
        assert any(
            m.exhibit == "table1" and m.location == "columns"
            for m in diff.mismatches
        )

    def test_missing_baseline_tree_raises(self, base, tmp_path):
        with pytest.raises(ConfigurationError):
            diff_trees(base, tmp_path / "nope")


class TestDiffExhibit:
    def test_bools_compared_exactly_not_in_band(self):
        baseline = {"columns": ["k", "ok"], "rows": [["a", True]]}
        candidate = {"columns": ["k", "ok"], "rows": [["a", False]]}
        out = diff_exhibit("x", baseline, candidate, rtol=10.0)
        assert len(out) == 1
        assert out[0].location == "a.ok"

    def test_nan_matches_nan(self):
        baseline = {"columns": ["k", "v"], "rows": [["a", float("nan")]]}
        candidate = {"columns": ["k", "v"], "rows": [["a", float("nan")]]}
        assert diff_exhibit("x", baseline, candidate) == []

    def test_tiny_values_are_banded_relatively(self):
        # Table I's ECC-6 line failure is ~1.25e-16: a 4x move must show,
        # not vanish under an absolute floor the size of rtol.
        baseline = {"columns": ["k", "v"], "rows": [["ECC-6", 1.25e-16]]}
        candidate = {"columns": ["k", "v"], "rows": [["ECC-6", 5e-16]]}
        out = diff_exhibit("table1", baseline, candidate)
        assert [m.location for m in out] == ["ECC-6.v"]

    def test_zero_matches_only_zero(self):
        baseline = {"columns": ["k", "v"], "rows": [["a", 0.0], ["b", 0]]}
        candidate = {"columns": ["k", "v"], "rows": [["a", 1e-300], ["b", 0.0]]}
        out = diff_exhibit("x", baseline, candidate)
        assert [m.location for m in out] == ["a.v"]

    @pytest.mark.parametrize("cells", [["a"], ["a", 1.0, 2.0]])
    def test_ragged_row_is_structural(self, cells):
        baseline = {"columns": ["k", "v"], "rows": [["a", 1.0]]}
        candidate = {"columns": ["k", "v"], "rows": [cells]}
        out = diff_exhibit("x", baseline, candidate)
        assert [(m.location, m.baseline, m.candidate) for m in out] == [
            ("a width", 2, len(cells))
        ]

    def test_render_includes_tolerance(self):
        diff = CellDiff("fig8", "MECC.total_w", 1.0, 2.0, rtol=1e-9)
        assert diff.render() == "fig8[MECC.total_w]: 2.0 != 1.0 (rtol 1e-09)"


class TestReportVerbExitCodes:
    """`repro report --diff` is the drift gate: 0 clean, 1 drift, 2 bad baseline."""

    @pytest.fixture(autouse=True)
    def _restore_runner(self):
        yield
        from repro.analysis.runner import configure_runner

        configure_runner(jobs=1, cache_dir=None)

    def _report(self, tmp_path, baseline) -> int:
        from repro.cli import main

        return main([
            "report", "--exhibits", "table1", "--format", "json",
            "--no-cache", "--out", str(tmp_path / "out"), "--run-id", "cand",
            "--diff", str(baseline),
        ])

    def test_clean_tree_exits_zero(self, base, tmp_path, capsys):
        assert self._report(tmp_path, base) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out

    def test_drifted_cell_exits_one(self, base, tmp_path, capsys):
        baseline = _copy(base, tmp_path)
        key, column = _perturb_cell(baseline, "table1", "line_failure", 1.01)
        assert self._report(tmp_path, baseline) == 1
        assert f"table1[{key}.{column}]" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        assert self._report(tmp_path, tmp_path / "nope") == 2
        assert capsys.readouterr().err.startswith("report: ")
        assert not (tmp_path / "out").exists()
