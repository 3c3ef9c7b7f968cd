"""Claims-registry integrity: IDs, bands, cited cells, and the artifact."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fidelity import (
    CLAIMS,
    Claim,
    claims_in_set,
    claims_payload,
    evaluate_claims,
    packaged_claims_path,
    resolve_claims,
)
from repro.report.spec import ExhibitData, get_exhibit

#: The claims no exhibit prints a cell for; each keeps a model function.
MODEL_ONLY = {
    "T1-PROVISION-ECC6",
    "F2-BER-64MS",
    "E6-PARITY-60-BITS",
    "MDT-STORAGE-128B",
    "MDT-FULL-UPGRADE-400MS",
    "MDT-ENCODER-ENERGY-8X",
    "VAL-LINE-FAILURE",
    "VAL-RETENTION-INVERSE",
    "VAL-REFRESH-LINEARITY",
    "F14-SMD-PERFORMANCE",
}

CELL_CLAIMS = [c for c in CLAIMS.values() if c.cells]

CELL = (("fig8", "MECC", "refresh_norm"),)


class TestRegistryShape:
    def test_at_least_ten_claims(self):
        # Acceptance criterion: `repro fidelity` evaluates >= 10 claims.
        assert len(CLAIMS) >= 10

    def test_every_claim_has_an_evaluator(self):
        # A claim reads its cited cells; only one citing none runs a model.
        assert {c.id for c in CLAIMS.values() if not c.cells} == MODEL_ONLY

    def test_ids_are_stable_and_self_keyed(self):
        for claim_id, claim in CLAIMS.items():
            assert claim.id == claim_id

    def test_expected_value_inside_or_near_band(self):
        # The paper's number anchors relative error; the band states what
        # the reproduction achieves.  They must at least be consistent:
        # the band may not sit entirely on one side of zero-width.
        for claim in CLAIMS.values():
            assert claim.low <= claim.high

    def test_every_claim_documents_its_source_and_checker(self):
        for claim in CLAIMS.values():
            assert claim.source
            assert claim.statement
            assert claim.module
            assert claim.checked_by

    def test_reduced_set_is_analytic_subset(self):
        reduced = claims_in_set("reduced")
        full = claims_in_set("full")
        assert {c.id for c in reduced} <= {c.id for c in full}
        assert all(c.kind == "analytic" for c in reduced)
        assert len(reduced) >= 10
        assert len(full) > len(reduced)

    def test_unknown_set_rejected(self):
        with pytest.raises(ConfigurationError):
            claims_in_set("weekly")


class TestCitedCells:
    """Cell claims read the committed golden tree, the tree CI diffs."""

    def test_cited_cells_resolve_in_golden_and_land_in_band(self, golden_exhibits):
        # An unresolved row or column would be that claim's error.
        report = evaluate_claims(
            [c.id for c in CELL_CLAIMS], exhibits=golden_exhibits
        )
        assert report.passed, report.render_table()

    def test_simulation_kind_iff_a_cited_exhibit_is_simulated(self):
        for claim in CELL_CLAIMS:
            simulated = any(get_exhibit(e).simulated for e, _, _ in claim.cells)
            assert (claim.kind == "simulation") == simulated, claim.id

    def test_missing_cited_row_errors_that_claim_only(self, golden_exhibits):
        fig8 = golden_exhibits["fig8"]
        exhibits = dict(golden_exhibits, fig8=ExhibitData(
            "fig8", fig8.columns, tuple(r for r in fig8.rows if r[0] != "MECC")
        ))
        report = evaluate_claims(
            ["T1-LINE-FAILURE-ECC6", "F8-REFRESH-16X", "F8-REFRESH-SHARE"],
            exhibits=exhibits,
        )
        (violation,) = report.violations
        assert violation.claim.id == "F8-REFRESH-16X"
        assert violation.measured is None
        assert violation.error == (
            "ConfigurationError: exhibit 'fig8' has no row keyed 'MECC'"
        )
        assert len(report.results) == 3


class TestResolution:
    def test_resolve_none_is_full_registry(self):
        assert resolve_claims() == list(CLAIMS.values())

    def test_resolve_subset_preserves_registry_order(self):
        ids = list(CLAIMS)[:3]
        resolved = resolve_claims(list(reversed(ids)))
        assert [c.id for c in resolved] == ids

    def test_unknown_id_named_in_error(self):
        with pytest.raises(ConfigurationError, match="NO-SUCH-CLAIM"):
            resolve_claims(["NO-SUCH-CLAIM"])


class TestClaimValidation:
    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigurationError):
            Claim(id="X", source="s", statement="t", expected=1.0, low=2.0, high=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Claim(
                id="X", source="s", statement="t",
                expected=1.0, low=0.0, high=2.0, kind="vibes",
            )

    def test_claim_without_a_value_source_rejected(self):
        for cells in ((), CELL * 2):
            with pytest.raises(ConfigurationError, match="compute"):
                Claim(
                    id="X", source="s", statement="t",
                    expected=1.0, low=0.0, high=2.0, cells=cells,
                )

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Claim(id="", source="s", statement="t", expected=1.0, low=0.0, high=1.0)

    def test_band_contains_rejects_nan(self):
        claim = Claim(
            id="X", source="s", statement="t", expected=1.0, low=0.0, high=2.0,
            cells=CELL,
        )
        assert claim.band_contains(1.0)
        assert not claim.band_contains(float("nan"))

    def test_relative_error_absolute_at_zero_expected(self):
        claim = Claim(
            id="X", source="s", statement="t", expected=0.0, low=0.0, high=1.0,
            cells=CELL,
        )
        assert claim.relative_error(0.25) == 0.25


class TestArtifact:
    def test_packaged_claims_json_in_sync(self):
        """claims.json must match the registry byte-for-byte.

        Regenerate after adding a claim::

            PYTHONPATH=src python -c "from repro.fidelity import write_claims_json; write_claims_json()"
        """
        path = packaged_claims_path()
        assert path.exists(), "claims.json artifact missing from the package"
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == json.loads(json.dumps(claims_payload()))

    def test_payload_is_json_round_trippable(self):
        payload = claims_payload()
        assert payload["schema"] == 1
        assert len(payload["claims"]) == len(CLAIMS)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload
