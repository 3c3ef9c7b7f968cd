"""Full conformance pass: every registered claim, simulations included.

The cell claims read the committed golden tree (``TestGoldenTree`` in
``tests/report/test_pipeline.py`` proves a fresh 400k-instruction tree
equals it), so only the model claims run here; ``repro fidelity
--claim-set full`` builds the same exhibits from scratch.
"""

import pytest

import repro.fidelity.engine as engine
from repro.fidelity import claims_in_set, evaluate_claims
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def report(golden_exhibits):
    def no_build(spec, run):
        raise AssertionError(f"{spec.id} is in the golden tree; nothing builds it")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "build_exhibit", no_build)
        return evaluate_claims(
            [c.id for c in claims_in_set("full")], exhibits=golden_exhibits
        )


def test_full_claim_set_conforms(report):
    assert report.passed, report.render_table()
    assert len(report.results) >= 10
    kinds = {r.claim.kind for r in report.results}
    assert kinds == {"analytic", "simulation"}


def test_full_report_feeds_metrics(report):
    registry = MetricsRegistry()
    registry.record_fidelity(report)
    assert registry.get("fidelity.passed") is True
    assert registry.get("fidelity.evaluated") == len(report.results)
    assert registry.get("fidelity.failed") == 0
    for result in report.results:
        assert registry.get(f"fidelity.claim.{result.claim.id}.passed") is True
