"""Tolerance-banded comparison of two artifact trees.

``diff_trees(candidate, baseline)`` walks the exhibits both manifests
declare, loads each exhibit's JSON artifact, and compares cell by cell.
Numeric cells get a per-exhibit relative tolerance band (the
``diff_rtol`` each spec recorded into the manifest); everything else
must match exactly.  Volatile manifest fields (timestamps, git rev,
runner stats, wall times) are ignored by construction — only exhibit
content drifts.

Every mismatch names the exhibit, the row key, and the column, so a CI
failure reads as ``fig7[libq].mecc: 0.981 != 0.912`` rather than a
blob-level "trees differ".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.report.pipeline import load_manifest
from repro.report.spec import DEFAULT_DIFF_RTOL


@dataclass(frozen=True)
class CellDiff:
    """One divergent cell (or structural mismatch)."""

    exhibit: str
    location: str
    baseline: object
    candidate: object
    rtol: float | None = None

    def render(self) -> str:
        where = f"{self.exhibit}[{self.location}]"
        if self.rtol is not None:
            return (
                f"{where}: {self.candidate!r} != {self.baseline!r} "
                f"(rtol {self.rtol:g})"
            )
        return f"{where}: {self.candidate!r} != {self.baseline!r}"


@dataclass
class TreeDiff:
    """Outcome of comparing a candidate tree against a baseline."""

    baseline: str
    candidate: str
    exhibits_compared: int = 0
    mismatches: list[CellDiff] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.exhibits_compared > 0 and not self.mismatches

    def render(self, limit: int = 50) -> str:
        lines = [
            f"diff: {self.candidate} vs baseline {self.baseline} — "
            f"{self.exhibits_compared} exhibit(s), "
            f"{len(self.mismatches)} mismatch(es)"
        ]
        for m in self.mismatches[:limit]:
            lines.append(f"  {m.render()}")
        if len(self.mismatches) > limit:
            lines.append(f"  ... and {len(self.mismatches) - limit} more")
        return "\n".join(lines)


def _numbers_match(a: float, b: float, rtol: float) -> bool:
    # Purely relative (isclose's abs_tol defaults to 0): an absolute floor
    # would swallow every cell below it, and Table I's ECC-6 line failure
    # is ~1e-16.  A zero therefore matches only an exact zero.
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=rtol)


def _load_exhibit_json(tree: Path, exhibit_id: str) -> dict:
    path = tree / f"{exhibit_id}.json"
    if not path.is_file():
        raise ConfigurationError(f"tree {tree} has no {exhibit_id}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _row_label(payload: dict, index: int) -> str:
    try:
        return str(payload["rows"][index][0])
    except (IndexError, KeyError, TypeError):
        return f"row {index}"


def diff_exhibit(
    exhibit_id: str,
    baseline: dict,
    candidate: dict,
    rtol: float = DEFAULT_DIFF_RTOL,
) -> list[CellDiff]:
    """Compare two exhibit JSON payloads cell by cell."""
    out: list[CellDiff] = []
    b_cols = baseline.get("columns", [])
    c_cols = candidate.get("columns", [])
    if b_cols != c_cols:
        out.append(CellDiff(exhibit_id, "columns", b_cols, c_cols))
        return out
    b_rows = baseline.get("rows", [])
    c_rows = candidate.get("rows", [])
    if len(b_rows) != len(c_rows):
        out.append(CellDiff(exhibit_id, "row count", len(b_rows), len(c_rows)))
        return out
    for i, (b_row, c_row) in enumerate(zip(b_rows, c_rows)):
        label = _row_label(baseline, i)
        # zip() below would silently drop a missing or extra cell.
        if len(b_row) != len(b_cols) or len(c_row) != len(b_cols):
            out.append(
                CellDiff(exhibit_id, f"{label} width", len(b_row), len(c_row))
            )
            continue
        for col, b_cell, c_cell in zip(b_cols, b_row, c_row):
            loc = f"{label}.{col}"
            # bool is an int subclass; compare it exactly, not in-band.
            numeric = (
                isinstance(b_cell, (int, float))
                and isinstance(c_cell, (int, float))
                and not isinstance(b_cell, bool)
                and not isinstance(c_cell, bool)
            )
            if numeric:
                if not _numbers_match(float(b_cell), float(c_cell), rtol):
                    out.append(
                        CellDiff(exhibit_id, loc, b_cell, c_cell, rtol=rtol)
                    )
            elif b_cell != c_cell:
                out.append(CellDiff(exhibit_id, loc, b_cell, c_cell))
    return out


def diff_trees(
    candidate: str | Path,
    baseline: str | Path,
    exhibits=None,
) -> TreeDiff:
    """Compare two artifact trees; only exhibits present in both count.

    An exhibit listed by one manifest but missing from the other is a
    mismatch in itself (trees must agree on coverage unless the caller
    narrows ``exhibits``).
    """
    candidate = Path(candidate)
    baseline = Path(baseline)
    c_manifest = load_manifest(candidate)
    b_manifest = load_manifest(baseline)
    c_ids = list(c_manifest.get("exhibits", {}))
    b_ids = list(b_manifest.get("exhibits", {}))
    if exhibits is not None:
        if isinstance(exhibits, str):
            exhibits = [p.strip() for p in exhibits.split(",") if p.strip()]
        wanted = list(dict.fromkeys(exhibits))
    else:
        wanted = list(dict.fromkeys(c_ids + b_ids))

    result = TreeDiff(baseline=str(baseline), candidate=str(candidate))
    for exhibit_id in wanted:
        in_c, in_b = exhibit_id in c_ids, exhibit_id in b_ids
        if not (in_c and in_b):
            result.mismatches.append(
                CellDiff(
                    exhibit_id,
                    "presence",
                    "present" if in_b else "absent",
                    "present" if in_c else "absent",
                )
            )
            continue
        rtol = float(
            b_manifest["exhibits"][exhibit_id].get(
                "diff_rtol", DEFAULT_DIFF_RTOL
            )
        )
        b_payload = _load_exhibit_json(baseline, exhibit_id)
        c_payload = _load_exhibit_json(candidate, exhibit_id)
        result.mismatches.extend(
            diff_exhibit(exhibit_id, b_payload, c_payload, rtol=rtol)
        )
        result.exhibits_compared += 1
    return result
