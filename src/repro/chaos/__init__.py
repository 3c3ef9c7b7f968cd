"""Chaos harness: seeded fault-injection campaigns for the control plane.

The reliability layer (:mod:`repro.reliability.faults`) injects faults
into *stored codewords*; this package injects them into the *modeled
control plane* — the MDT bit table, per-line mode state, stored mode
replicas, SMD registers, and the refresh-mode machinery — while a
functional data plane holds real morphable codewords underneath.  Each
trial is classified differentially against a fault-free reference run
of the same seed into {masked, detected-recovered, detected-unrecovered,
silent-degradation, silent-corruption}.

Graceful-degradation mitigations under test:

* the controller's **conservative MDT fallback** (rescan everything when
  the table provably lied), and
* **patrol-scrub mode repair** (re-encode lines whose stored mode
  disagrees with the idle-state expectation).

With both enabled, the default ``metadata`` campaign must classify zero
trials as silent-corruption — the CI chaos smoke enforces exactly that.
"""

from repro.chaos.campaign import (
    ChaosCampaign,
    ChaosOutcome,
    OUTCOME_ORDER,
    classify_trial,
)
from repro.chaos.injectors import (
    CAMPAIGNS,
    FAULT_CLASSES,
    FaultClass,
    METADATA_CAMPAIGN,
    resolve_classes,
)
from repro.chaos.report import ChaosReport, OUTCOME_NAMES, TrialRecord
from repro.chaos.system import (
    ChaosParams,
    ChaosSystem,
    INJECTION_POINTS,
    TrialSnapshot,
)

__all__ = [
    "CAMPAIGNS",
    "ChaosCampaign",
    "ChaosOutcome",
    "ChaosParams",
    "ChaosReport",
    "ChaosSystem",
    "FAULT_CLASSES",
    "FaultClass",
    "INJECTION_POINTS",
    "METADATA_CAMPAIGN",
    "OUTCOME_NAMES",
    "OUTCOME_ORDER",
    "TrialRecord",
    "TrialSnapshot",
    "classify_trial",
    "resolve_classes",
]
