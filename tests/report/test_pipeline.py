"""Artifact-tree pipeline: layout, manifest, and the committed golden tree.

The golden tree under ``golden_tree/golden`` is the reproduction's one
figure golden: every registered exhibit's JSON at the CLI's default
scale.  Regenerate after an *intentional* model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/report/test_pipeline.py

or ``repro report --out tests/report/golden_tree --run-id golden
--format json``.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.report.diff import diff_trees
from repro.report.pipeline import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    ReportPipeline,
    default_run_id,
    load_manifest,
)
from repro.report.spec import ExhibitSpec, exhibit_ids
from repro.sim.system import ScaledRun

RUN = ScaledRun(instructions=10_000)

#: The golden tree's scale: the CLI default, so ``repro report --diff``
#: without ``--instructions`` compares like with like.
GOLDEN_RUN = ScaledRun(instructions=400_000)
GOLDEN_TREE = Path(__file__).parent / "golden_tree" / "golden"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    pipeline = ReportPipeline(out_dir=out, run_id="r1", run=RUN)
    return pipeline.generate("table1,fig2")


class TestTreeLayout:
    def test_tree_lands_under_run_id(self, tree):
        assert tree.name == "r1"
        assert (tree / MANIFEST_NAME).is_file()

    def test_every_format_written_per_exhibit(self, tree):
        for exhibit_id in ("table1", "fig2"):
            for fmt in ("csv", "json", "md", "tex"):
                assert (tree / f"{exhibit_id}.{fmt}").is_file(), (exhibit_id, fmt)

    def test_concatenated_markdown_report(self, tree):
        text = (tree / "report.md").read_text(encoding="utf-8")
        assert text.startswith("# Reproduction report — run r1")
        assert "Table I" in text
        assert "Fig. 2" in text

    def test_exhibit_json_payload_shape(self, tree):
        payload = json.loads((tree / "table1.json").read_text(encoding="utf-8"))
        assert payload["exhibit"] == "table1"
        assert payload["columns"][0] == "ecc_t"
        assert payload["rows"]

    def test_format_subset_skips_other_renderers(self, tmp_path):
        out = ReportPipeline(
            out_dir=tmp_path, run_id="csvjson", formats="csv,json", run=RUN
        ).generate("table1")
        assert (out / "table1.csv").is_file()
        assert (out / "table1.json").is_file()
        assert not (out / "table1.tex").exists()
        assert not (out / "report.md").exists()


class TestManifest:
    def test_manifest_contents(self, tree):
        manifest = load_manifest(tree)
        assert manifest["schema"] == SCHEMA_VERSION
        assert manifest["run_id"] == "r1"
        assert manifest["instructions"] == RUN.instructions
        assert manifest["formats"] == ["csv", "json", "md", "tex"]
        assert set(manifest["exhibits"]) == {"table1", "fig2"}
        assert set(manifest["runner"]) == {
            "jobs", "cache_hits", "cache_misses", "cache_hit_rate",
        }
        for described in manifest["exhibits"].values():
            assert described["columns"]
            assert described["rows"] > 0
            assert described["diff_rtol"] > 0

    def test_bad_run_ids_rejected(self, tmp_path):
        for bad in ("a/b", ".", ".."):
            with pytest.raises(ConfigurationError):
                ReportPipeline(out_dir=tmp_path, run_id=bad)

    def test_empty_run_id_falls_back_to_default(self, tmp_path):
        assert ReportPipeline(out_dir=tmp_path, run_id="").run_id

    def test_default_run_id_is_utc_stamp(self):
        assert default_run_id(0.0) == "19700101T000000Z"

    def test_load_manifest_rejects_missing_tree(self, tmp_path):
        with pytest.raises(ConfigurationError, match=MANIFEST_NAME):
            load_manifest(tmp_path / "nope")

    def test_load_manifest_rejects_foreign_schema(self, tmp_path):
        tree = tmp_path / "old"
        tree.mkdir()
        (tree / MANIFEST_NAME).write_text('{"schema": 99}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema"):
            load_manifest(tree)

    def test_load_manifest_rejects_corrupt_json(self, tmp_path):
        tree = tmp_path / "bad"
        tree.mkdir()
        (tree / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="corrupt"):
            load_manifest(tree)


@pytest.fixture(scope="module")
def golden_candidate(tmp_path_factory):
    """A fresh tree at the golden scale with the fidelity digest, and the
    ``ExhibitSpec.build`` calls it took, by (exhibit id, run)."""
    calls: Counter = Counter()
    build = ExhibitSpec.build

    def counting_build(spec, run=None, **overrides):
        calls[spec.id, run] += 1
        return build(spec, run, **overrides)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExhibitSpec, "build", counting_build)
        tree = ReportPipeline(
            out_dir=tmp_path_factory.mktemp("golden"),
            run_id="candidate",
            formats="json",
            run=GOLDEN_RUN,
            fidelity=True,
        ).generate()
    return tree, calls


class TestGoldenTree:
    def test_tree_matches_committed_golden(self, golden_candidate):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            shutil.rmtree(GOLDEN_TREE, ignore_errors=True)
            ReportPipeline(
                out_dir=GOLDEN_TREE.parent,
                run_id=GOLDEN_TREE.name,
                formats="json",
                run=GOLDEN_RUN,
            ).generate()
        candidate, _ = golden_candidate
        diff = diff_trees(candidate, GOLDEN_TREE)
        assert diff.clean, diff.render()

    def test_fidelity_summary_builds_each_exhibit_once(self, golden_candidate):
        # The reduced claims read the tree's own exhibits at its own run.
        tree, calls = golden_candidate
        assert load_manifest(tree)["fidelity"]["passed"]
        assert calls == Counter({(i, GOLDEN_RUN): 1 for i in exhibit_ids()})

    def test_golden_covers_every_registered_exhibit(self):
        manifest = load_manifest(GOLDEN_TREE)
        assert set(manifest["exhibits"]) == set(exhibit_ids())
        assert manifest["instructions"] == GOLDEN_RUN.instructions
