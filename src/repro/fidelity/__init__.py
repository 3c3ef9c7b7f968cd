"""Paper-fidelity conformance gate.

Ties the reproduction to the paper's numbers: a machine-readable claims
registry (:mod:`repro.fidelity.claims`) whose claims cite the exhibit
cells they read, a conformance engine that measures every claim and
reports per-claim relative error
(:mod:`repro.fidelity.engine`), and the hypothesis profiles plus
metamorphic drivers behind the property suites
(:mod:`repro.fidelity.properties`).  Exposed on the CLI as
``repro fidelity``.
"""

from repro.fidelity.claims import (
    CLAIM_SETS,
    CLAIMS,
    Claim,
    claims_in_set,
    claims_payload,
    packaged_claims_path,
    resolve_claims,
    write_claims_json,
)
from repro.fidelity.engine import (
    ClaimResult,
    ConformanceReport,
    conformance_summary,
    evaluate_claim,
    evaluate_claims,
)
from repro.fidelity.properties import (
    install_hypothesis_profiles,
)

__all__ = [
    "CLAIMS",
    "CLAIM_SETS",
    "Claim",
    "ClaimResult",
    "ConformanceReport",
    "claims_in_set",
    "claims_payload",
    "conformance_summary",
    "evaluate_claim",
    "evaluate_claims",
    "install_hypothesis_profiles",
    "packaged_claims_path",
    "resolve_claims",
    "write_claims_json",
]
