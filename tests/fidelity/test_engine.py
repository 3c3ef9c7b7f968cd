"""Conformance-engine behavior: verdicts, violations, error capture."""

import dataclasses

import pytest

import repro.fidelity.engine as engine
from repro.errors import ConfigurationError
from repro.fidelity import (
    ClaimResult,
    claims_in_set,
    evaluate_claim,
    evaluate_claims,
)
from repro.fidelity.claims import CLAIMS
from repro.report.spec import get_exhibit
from repro.sim.system import ScaledRun


REDUCED_IDS = [c.id for c in claims_in_set("reduced")]


class TestReducedSetConformance:
    def test_all_analytic_claims_in_band(self):
        report = evaluate_claims(REDUCED_IDS)
        assert report.passed, report.render_table()
        assert len(report.results) == len(REDUCED_IDS)
        assert report.violations == []

    def test_report_is_deterministic(self):
        first = evaluate_claims(REDUCED_IDS[:5])
        second = evaluate_claims(REDUCED_IDS[:5])
        strip = lambda d: {k: v for k, v in d.items() if k != "wall_s"}
        assert strip(first.as_dict()) == strip(second.as_dict())

    def test_relative_error_reported_per_claim(self):
        report = evaluate_claims(["T1-LINE-FAILURE-ECC6"])
        (result,) = report.results
        assert result.relative_error is not None
        assert 0.0 <= result.relative_error < 0.25

    def test_as_dict_schema(self):
        report = evaluate_claims(REDUCED_IDS[:3])
        payload = report.as_dict()
        assert payload["schema"] == 1
        assert payload["evaluated"] == 3
        assert payload["failed"] == 0
        assert payload["violated_ids"] == []
        for entry in payload["claims"]:
            assert set(entry) >= {
                "id", "source", "expected", "band", "measured",
                "relative_error", "passed",
            }


class TestViolations:
    def test_out_of_band_claim_fails_and_is_named(self, monkeypatch):
        claim_id = "F8-REFRESH-16X"
        impossible = dataclasses.replace(
            CLAIMS[claim_id], low=0.9, high=1.0, expected=0.95
        )
        monkeypatch.setitem(CLAIMS, claim_id, impossible)
        report = evaluate_claims([claim_id, "MDT-STORAGE-128B"])
        assert not report.passed
        assert [r.claim.id for r in report.violations] == [claim_id]
        assert claim_id in report.as_dict()["violated_ids"]
        rendered = report.render_table()
        assert f"VIOLATION {claim_id}" in rendered
        assert "FAIL" in rendered

    def test_evaluator_exception_is_captured_not_raised(self, monkeypatch):
        claim_id = "MDT-STORAGE-128B"

        def explode(run):
            raise RuntimeError("synthetic evaluator failure")

        monkeypatch.setitem(
            CLAIMS, claim_id, dataclasses.replace(CLAIMS[claim_id], compute=explode)
        )
        report = evaluate_claims([claim_id, "E6-PARITY-60-BITS"])
        assert not report.passed
        (violation,) = report.violations
        assert violation.claim.id == claim_id
        assert violation.measured is None
        assert "synthetic evaluator failure" in violation.error
        # The healthy claim still evaluated.
        other = [r for r in report.results if r.claim.id != claim_id]
        assert other[0].passed

    def test_empty_report_does_not_pass(self):
        from repro.fidelity.engine import ConformanceReport

        assert not ConformanceReport(results=[]).passed


class TestSingleClaim:
    def test_evaluate_claim_returns_result(self):
        result = evaluate_claim("MDT-STORAGE-128B")
        assert isinstance(result, ClaimResult)
        assert result.passed
        assert result.measured == 128.0

    def test_unknown_claim_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_claim("F99-NOT-A-CLAIM")



class TestCitedExhibits:
    def test_only_missing_cited_exhibits_build_once_each(self, monkeypatch):
        run = ScaledRun(instructions=10_000)
        build = engine.build_exhibit
        built = []

        def recording_build(spec, at):
            built.append((spec.id, at))
            return build(spec, at)

        monkeypatch.setattr(engine, "build_exhibit", recording_build)
        report = evaluate_claims(
            ["T1-LINE-FAILURE-ECC6", "F8-REFRESH-16X", "RW-FLIKKER-ONE-THIRD",
             "RW-RAIDR-MECC-FLOOR", "RW-VRT-IMMUNITY"],
            run,
            {"fig8": build(get_exhibit("fig8"), run)},
        )
        assert report.passed, report.render_table()
        assert report.instructions == run.instructions
        assert built == [("table1", run), ("related-work", run)]
