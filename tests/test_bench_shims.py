"""Smoke-import every bench script and check its registry wiring.

The exhibit benches are thin shims over the ``repro.report`` registry:
each declares a module-level ``EXHIBIT_ID`` that must resolve.  This
test catches a bench drifting from the registry (renamed exhibit,
deleted spec, import error) without running any simulation.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.report.spec import exhibit_ids, get_exhibit

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))

#: Benches that drive subsystems directly rather than reproducing one
#: registered exhibit.
NON_EXHIBIT_BENCHES = {
    "bench_ablations",
    "bench_chaos",
    "bench_codec_micro",
    "bench_fleet",
    "bench_model_validation",
    "bench_obs_overhead",
    "bench_robustness",
}


def _load(path: Path):
    # benchmarks/ is intentionally not a package; load by file location.
    spec = importlib.util.spec_from_file_location(f"bench_smoke.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_directory_found():
    assert BENCH_FILES, f"no bench scripts under {BENCH_DIR}"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_bench_imports_and_resolves_its_exhibit(path):
    module = _load(path)
    if path.stem in NON_EXHIBIT_BENCHES:
        assert not hasattr(module, "EXHIBIT_ID"), (
            f"{path.stem} grew an EXHIBIT_ID; drop it from "
            "NON_EXHIBIT_BENCHES"
        )
        return
    exhibit_id = getattr(module, "EXHIBIT_ID", None)
    assert exhibit_id, f"{path.stem} must declare EXHIBIT_ID"
    spec = get_exhibit(exhibit_id)
    assert spec.id == exhibit_id


def test_every_figure_and_table_exhibit_has_a_bench():
    covered = set()
    for path in BENCH_FILES:
        if path.stem in NON_EXHIBIT_BENCHES:
            continue
        covered.add(_load(path).EXHIBIT_ID)
    registered = set(exhibit_ids())
    assert covered == registered, (
        f"benches and registry disagree: missing {registered - covered}, "
        f"stale {covered - registered}"
    )
