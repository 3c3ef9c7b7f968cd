"""Fixtures shared by the fidelity suites."""

from pathlib import Path

import pytest

from repro.report.diff import _load_exhibit_json
from repro.report.spec import ExhibitData, exhibit_ids

GOLDEN_TREE = Path(__file__).parents[1] / "report" / "golden_tree" / "golden"


@pytest.fixture(scope="session")
def golden_exhibits() -> dict[str, ExhibitData]:
    """Every exhibit of the committed golden tree, as printed (400k)."""
    exhibits = {}
    for exhibit_id in exhibit_ids():
        payload = _load_exhibit_json(GOLDEN_TREE, exhibit_id)
        exhibits[exhibit_id] = ExhibitData(
            payload["exhibit"],
            tuple(payload["columns"]),
            tuple(tuple(row) for row in payload["rows"]),
            meta=payload["meta"],
        )
    return exhibits
