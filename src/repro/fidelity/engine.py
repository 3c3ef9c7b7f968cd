"""Conformance engine: evaluate registered paper claims and report.

The engine walks the claims registry (:mod:`repro.fidelity.claims`),
measures every claim, and folds the results into a
:class:`ConformanceReport` with per-claim relative error.  A claim that
cites exhibit cells reads them from the exhibit as a report tree prints
it: the engine builds each cited exhibit once, through the report
pipeline's own :func:`~repro.report.pipeline.build_exhibit`, unless the
caller hands it that exhibit already built.  A claim citing no cell runs
its model function at the evaluation's :class:`ScaledRun`.

A claim that raises does not abort the pass: the exception is captured
on that claim's :class:`ClaimResult` (an errored claim counts as a
violation) and the remaining claims still run, so one broken layer
produces a complete report instead of a stack trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.fidelity.claims import (
    CLAIMS,
    DEFAULT_CLAIM_INSTRUCTIONS,
    Claim,
    claims_in_set,
    resolve_claims,
)
from repro.report.pipeline import build_exhibit
from repro.report.spec import ExhibitData, get_exhibit
from repro.sim.system import ScaledRun


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of evaluating one claim."""

    claim: Claim
    measured: float | None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return (
            self.error is None
            and self.measured is not None
            and self.claim.band_contains(self.measured)
        )

    @property
    def relative_error(self) -> float | None:
        if self.measured is None:
            return None
        return self.claim.relative_error(self.measured)

    def as_dict(self) -> dict:
        return {
            "id": self.claim.id,
            "source": self.claim.source,
            "kind": self.claim.kind,
            "expected": self.claim.expected,
            "band": [self.claim.low, self.claim.high],
            "unit": self.claim.unit,
            "measured": self.measured,
            "relative_error": self.relative_error,
            "passed": self.passed,
            "error": self.error,
        }


@dataclass
class ConformanceReport:
    """Pass/fail verdict over one conformance evaluation pass."""

    results: list[ClaimResult]
    wall_s: float = 0.0
    instructions: int = 0
    labels: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    @property
    def violations(self) -> list[ClaimResult]:
        return [r for r in self.results if not r.passed]

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "passed": self.passed,
            "evaluated": len(self.results),
            "failed": len(self.violations),
            "violated_ids": [r.claim.id for r in self.violations],
            "wall_s": self.wall_s,
            "instructions": self.instructions,
            "claims": [r.as_dict() for r in self.results],
        }

    def render_table(self) -> str:
        rows = []
        for r in self.results:
            rows.append([
                r.claim.id,
                r.claim.source,
                r.claim.expected,
                f"[{r.claim.low:g}, {r.claim.high:g}]",
                "error" if r.measured is None else r.measured,
                "-" if r.relative_error is None else f"{r.relative_error:.2%}",
                "PASS" if r.passed else "FAIL",
            ])
        table = format_table(
            ["claim", "source", "expected", "band", "measured", "rel err", "verdict"],
            rows,
            title=f"Paper-fidelity conformance ({len(self.results)} claims)",
        )
        lines = [table]
        for r in self.violations:
            detail = r.error or (
                f"measured {r.measured:g} outside [{r.claim.low:g}, {r.claim.high:g}]"
            )
            lines.append(f"VIOLATION {r.claim.id}: {detail}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"verdict: {verdict} "
            f"({len(self.results) - len(self.violations)}/{len(self.results)} claims "
            f"in band, {self.wall_s:.2f}s)"
        )
        return "\n".join(lines)


def _measure(claim: Claim, exhibits: dict[str, ExhibitData], run: ScaledRun) -> float:
    """One claim's value: its cited cells, or its model at ``run``."""
    if not claim.cells:
        return claim.compute(run)
    values = []
    for exhibit_id, key, column in claim.cells:
        if exhibit_id not in exhibits:
            exhibits[exhibit_id] = build_exhibit(get_exhibit(exhibit_id), run)
        values.append(exhibits[exhibit_id].cell(key, column))
    return claim.compute(*values) if claim.compute else values[0]


def evaluate_claims(
    ids: list[str] | None = None,
    run: ScaledRun | None = None,
    exhibits: dict[str, ExhibitData] | None = None,
) -> ConformanceReport:
    """Evaluate claims (all by default) and return a report.

    ``ids`` selects a subset by claim ID; unknown IDs raise
    :class:`~repro.errors.ConfigurationError`.  ``run`` is the scale
    cited exhibits are built at (400k instructions by default);
    ``exhibits`` maps exhibit id to data already built at that scale,
    and only cited exhibits missing from it are built.  Evaluation is
    deterministic — every underlying model and simulation is
    seed-pinned — so two passes over the same code produce identical
    reports.
    """
    run = run or ScaledRun(instructions=DEFAULT_CLAIM_INSTRUCTIONS)
    built = dict(exhibits or {})
    claims = resolve_claims(ids)
    start = time.perf_counter()
    results = []
    for claim in claims:
        try:
            results.append(ClaimResult(claim, float(_measure(claim, built, run))))
        except Exception as exc:  # one broken layer must not hide the rest
            results.append(
                ClaimResult(claim, None, error=f"{type(exc).__name__}: {exc}")
            )
    return ConformanceReport(
        results=results,
        wall_s=time.perf_counter() - start,
        instructions=run.instructions,
    )


def evaluate_claim(claim_id: str, run: ScaledRun | None = None) -> ClaimResult:
    """Evaluate a single claim by ID."""
    if claim_id not in CLAIMS:
        raise ConfigurationError(
            f"unknown claim id {claim_id!r}; choose from {', '.join(CLAIMS)}"
        )
    return evaluate_claims([claim_id], run).results[0]


def conformance_summary(
    claim_set: str = "reduced",
    run: ScaledRun | None = None,
    exhibits: dict[str, ExhibitData] | None = None,
) -> dict:
    """Manifest-ready fidelity digest for the publication pipeline.

    Evaluates one named claim set (``reduced`` keeps this cheap enough
    to stamp into every ``repro report`` manifest) over the exhibits the
    report just built, and compresses the report to the fields an
    artifact consumer needs: pass/fail, counts, and the violated claim
    ids.
    """
    claims = claims_in_set(claim_set)
    report = evaluate_claims([c.id for c in claims], run, exhibits)
    return {
        "claim_set": claim_set,
        "passed": report.passed,
        "evaluated": len(report.results),
        "failed": len(report.violations),
        "violated_ids": [r.claim.id for r in report.violations],
    }
