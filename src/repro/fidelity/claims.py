"""Machine-readable registry of the paper's quantitative claims.

Every headline number in *Reducing Refresh Power in Mobile Devices with
Morphable ECC* — the 16x refresh reduction, the ~2x idle-power saving,
the ~1.2% MECC slowdown vs ~10% for ECC-6-everywhere, the 400 ms → 50 ms
MDT upgrade latency, the MPKC=2 SMD gating — is registered here as a
:class:`Claim`: an ID, its paper source (section / figure / table), the
expected value, an explicit tolerance band ``[low, high]``, and where
the measured value comes from.  The conformance engine
(:mod:`repro.fidelity.engine`) measures every claim and fails loudly
when a value drifts out of its band, so a regression anywhere in the
stack cannot silently bend a figure.

Most claims *cite cells* of the exhibits the report prints (``cells``:
``(exhibit, row key, column)`` triples); their value is the cited cell,
or a function of the cited cells, read from the very table a report
tree holds.  The few numbers no exhibit prints keep a model function
that receives the :class:`~repro.sim.system.ScaledRun`.

Claims come in two kinds:

* ``analytic`` — closed-form or cheap model numbers (Table I, the
  retention anchors, idle power, MDT latency, the related-work rates,
  the :mod:`repro.analysis.validation` cross-checks).  These form the
  ``reduced`` claim set used as a CI merge gate.
* ``simulation`` — claims measured from cycle simulation of the full
  benchmark suite (Figs. 7/10/14).  The exhibits they cite route through
  the cached :class:`repro.analysis.runner.ExperimentRunner`, so they
  parallelize with ``--jobs`` and reuse the on-disk cache; seeds are
  pinned end to end, making every measured value deterministic.

The registry is exported as a machine-readable artifact
(``claims.json``, checked by ``tests/fidelity/test_claims.py`` and
regenerated with :func:`write_claims_json`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from repro.analysis.experiments import run_policy_suites, run_smd_suite
from repro.analysis.validation import (
    validate_line_failure,
    validate_refresh_linearity,
    validate_retention_inverse,
)
from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.device import DramDevice
from repro.ecc.bch import BchCode
from repro.errors import ConfigurationError
from repro.reliability.failure import DEFAULT_BER
from repro.reliability.provisioning import required_ecc_strength
from repro.reliability.retention import RetentionModel
from repro.sim.stats import geometric_mean
from repro.sim.system import ScaledRun
from repro.workloads.spec import ALL_BENCHMARKS, SMD_ALWAYS_DISABLED

#: Schema version of the exported ``claims.json`` artifact.
CLAIMS_SCHEMA = 1

#: Default slice length for simulation-backed claims (matches the CLI).
DEFAULT_CLAIM_INSTRUCTIONS = 400_000

#: One cited exhibit cell: ``(exhibit id, row key, column)``.  A tuple
#: row key matches a row's leading cells (see ``ExhibitData.row``).
Cell = tuple[str, object, str]


@dataclass(frozen=True)
class Claim:
    """One quantitative paper claim with its tolerance band.

    Attributes:
        id: stable identifier (``F8-REFRESH-16X`` style).
        source: where the paper states it (section / figure / table).
        statement: the claim in the paper's words (abbreviated).
        expected: the paper's value (what ``relative_error`` is against).
        low: inclusive lower bound of the acceptance band.
        high: inclusive upper bound of the acceptance band.
        unit: unit of the measured value ("" for ratios/counts).
        kind: ``analytic`` (reduced set) or ``simulation`` (full set).
        module: the implementing module (documentation cross-link).
        checked_by: the test/bench that also pins this claim.
        cells: the exhibit cells the value is read from.
        compute: ``compute(*cell values)`` for a claim citing several
            cells, ``compute(run)`` for a claim citing none; ``None``
            when the value is the one cited cell itself.
    """

    id: str
    source: str
    statement: str
    expected: float
    low: float
    high: float
    unit: str = ""
    kind: str = "analytic"
    module: str = ""
    checked_by: str = ""
    cells: tuple[Cell, ...] = ()
    compute: Callable[..., float] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("claim id must be non-empty")
        if not self.low <= self.high:
            raise ConfigurationError(f"claim {self.id}: low must be <= high")
        if self.kind not in ("analytic", "simulation"):
            raise ConfigurationError(f"claim {self.id}: unknown kind {self.kind!r}")
        if self.compute is None and len(self.cells) != 1:
            raise ConfigurationError(
                f"claim {self.id}: cite exactly one cell or give a compute function"
            )

    def band_contains(self, measured: float) -> bool:
        """True when ``measured`` lies inside ``[low, high]``."""
        return self.low <= measured <= self.high and math.isfinite(measured)

    def relative_error(self, measured: float) -> float:
        """|measured - expected| / |expected| (absolute error at expected 0)."""
        if self.expected == 0:
            return abs(measured)
        return abs(measured - self.expected) / abs(self.expected)

    def as_dict(self) -> dict:
        payload = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "compute"
        }
        payload["cells"] = [cell_label(cell) for cell in self.cells]
        return payload


def cell_label(cell: Cell) -> str:
    """``exhibit[row].column``, the row named as ``repro report --diff``
    names it (a tuple key joins its cells with ``|``)."""
    exhibit, key, column = cell
    row = "|".join(map(str, key)) if isinstance(key, tuple) else key
    return f"{exhibit}[{row}].{column}"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CLAIMS: dict[str, Claim] = {}


def register(claim: Claim) -> None:
    """Add ``claim`` to the registry (registry order is report order)."""
    if claim.id in CLAIMS:
        raise ConfigurationError(f"duplicate claim id {claim.id!r}")
    CLAIMS[claim.id] = claim


def claims_in_set(name: str) -> list[Claim]:
    """Resolve a named claim set: ``reduced`` (analytic) or ``full``."""
    if name == "full":
        return list(CLAIMS.values())
    if name == "reduced":
        return [c for c in CLAIMS.values() if c.kind == "analytic"]
    raise ConfigurationError(
        f"unknown claim set {name!r}; choose from {', '.join(CLAIM_SETS)}"
    )


CLAIM_SETS = ("reduced", "full")


def resolve_claims(ids: list[str] | None = None) -> list[Claim]:
    """Claims for explicit ids (registry order), or the full set."""
    if ids is None:
        return list(CLAIMS.values())
    unknown = [i for i in ids if i not in CLAIMS]
    if unknown:
        raise ConfigurationError(
            f"unknown claim id(s): {', '.join(sorted(unknown))}; choose from "
            f"{', '.join(CLAIMS)}"
        )
    wanted = set(ids)
    return [c for c in CLAIMS.values() if c.id in wanted]


def claims_payload() -> dict:
    """The registry as a JSON-safe payload (the ``claims.json`` artifact)."""
    return {
        "schema": CLAIMS_SCHEMA,
        "paper": "Reducing Refresh Power in Mobile Devices with Morphable ECC (DSN 2015)",
        "claims": [c.as_dict() for c in CLAIMS.values()],
    }


def write_claims_json(path: str | Path | None = None) -> str:
    """Write the registry artifact; defaults to the packaged location."""
    target = Path(path) if path is not None else packaged_claims_path()
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(claims_payload(), stream, indent=2, sort_keys=True)
        stream.write("\n")
    return str(target)


def packaged_claims_path() -> Path:
    """Location of the shipped ``claims.json`` artifact."""
    return Path(__file__).resolve().parent / "claims.json"


# ---------------------------------------------------------------------------
# Analytic claims (the ``reduced`` merge-gate set)
# ---------------------------------------------------------------------------

register(Claim(
    id="T1-LINE-FAILURE-ECC6",
    source="Table I",
    statement="P(line failure) for ECC-6 at BER 10^-4.5 is 1.2e-16",
    expected=1.2e-16, low=1.0e-16, high=1.5e-16,
    module="repro.reliability.failure",
    checked_by="tests/reliability/test_failure.py::TestTable1",
    cells=(("table1", 6, "line_failure"),),
))

register(Claim(
    id="T1-PROVISION-ECC6",
    source="Table I / Sec. II-C",
    statement="1e-6 system target needs ECC-5; +1 soft-error margin = ECC-6",
    expected=6, low=6, high=6, unit="t",
    module="repro.reliability.provisioning",
    checked_by="tests/reliability/test_provisioning.py",
    compute=lambda run: float(required_ecc_strength(DEFAULT_BER)),
))

register(Claim(
    id="F2-BER-64MS",
    source="Fig. 2 / Sec. II-B",
    statement="bit failure probability at the 64 ms JEDEC period is 1e-9",
    expected=1e-9, low=0.999e-9, high=1.001e-9,
    module="repro.reliability.retention",
    checked_by="tests/reliability/test_retention.py::TestAnchors",
    compute=lambda run: RetentionModel().ber_at_refresh_period(0.064),
))

register(Claim(
    id="F2-BER-1S",
    source="Fig. 2 / Sec. II-B",
    statement="bit failure probability at a 1 s refresh period is 10^-4.5",
    expected=10.0 ** -4.5, low=0.999 * 10.0 ** -4.5, high=1.001 * 10.0 ** -4.5,
    module="repro.reliability.retention",
    checked_by="tests/reliability/test_retention.py::TestAnchors",
    cells=(("fig2", 1.0, "bit_failure_probability"),),
))

register(Claim(
    id="E6-PARITY-60-BITS",
    source="Sec. III-E",
    statement="BCH ECC-6 over a 512-bit line needs t*m = 60 parity bits",
    expected=60, low=60, high=60, unit="bits",
    module="repro.ecc.bch",
    checked_by="tests/ecc/test_bch.py::test_paper_ecc6_parity_budget",
    compute=lambda run: float(BchCode(t=6, data_bits=512).parity_bits),
))

register(Claim(
    id="F8-REFRESH-16X",
    source="Fig. 8 / Sec. V-B",
    statement="MECC cuts idle refresh operations 16x (1 s vs 64 ms period)",
    expected=1 / 16, low=0.0624, high=0.0626,
    module="repro.power.calculator",
    checked_by="benchmarks/bench_fig08_idle_power.py",
    cells=(("fig8", "MECC", "refresh_norm"),),
))

register(Claim(
    id="F8-IDLE-POWER-2X",
    source="Fig. 8 / Sec. V-B",
    statement="total idle power drops to ~0.57 of baseline ('almost 2X')",
    expected=0.57, low=0.40, high=0.60,
    module="repro.power.calculator",
    checked_by="benchmarks/bench_fig08_idle_power.py",
    cells=(("fig8", "MECC", "total_norm"),),
))

register(Claim(
    id="F8-REFRESH-SHARE",
    source="Fig. 8 / Sec. I",
    statement="refresh is about half of baseline idle (self-refresh) power",
    expected=0.5, low=0.40, high=0.60,
    module="repro.power.calculator",
    checked_by="benchmarks/bench_fig08_idle_power.py",
    cells=(("fig8", "Baseline", "refresh_w"), ("fig8", "Baseline", "total_w")),
    compute=lambda refresh_w, total_w: refresh_w / total_w,
))

register(Claim(
    id="MDT-STORAGE-128B",
    source="Sec. VI-A",
    statement="a 1K-entry MDT costs 128 bytes of controller storage",
    expected=128, low=128, high=128, unit="bytes",
    module="repro.core.mdt",
    checked_by="tests/core/test_mdt.py::TestPaperConfiguration",
    compute=lambda run: float(MemoryDowngradeTracker().storage_bytes),
))

register(Claim(
    id="MDT-FULL-UPGRADE-400MS",
    source="Sec. VI-A",
    statement="ECC-Upgrade of the full 1 GB memory takes ~400 ms",
    expected=400.0, low=300.0, high=500.0, unit="ms",
    module="repro.dram.device",
    checked_by="benchmarks/bench_fig11_mdt.py",
    compute=lambda run: 1000.0 * DramDevice().full_upgrade_seconds(),
))

register(Claim(
    id="MDT-TRACKED-UPGRADE-50MS",
    source="Sec. VI-A",
    statement="MDT cuts the upgrade pass to ~50 ms for the average footprint",
    expected=50.0, low=25.0, high=100.0, unit="ms",
    module="repro.core.mdt / repro.dram.device",
    checked_by="benchmarks/bench_fig11_mdt.py",
    cells=(("fig11", "ALL", "upgrade_ms"),),
))

register(Claim(
    id="MDT-ENCODER-ENERGY-8X",
    source="Sec. VI-A",
    statement="MDT saves 8x of upgrade encoder energy (128 MB of 1 GB touched)",
    expected=8.0, low=7.5, high=8.5, unit="x",
    module="repro.dram.device",
    checked_by="benchmarks/bench_fig11_mdt.py",
    compute=lambda run: (
        DramDevice().full_upgrade_seconds()
        / DramDevice().upgrade_seconds_for_regions(128, 1 << 20)
    ),
))

register(Claim(
    id="RW-FLIKKER-ONE-THIRD",
    source="Sec. VII-A",
    statement="Flikker with 1/4 critical memory still refreshes at ~1/3 rate",
    expected=1 / 3, low=0.28, high=0.35,
    module="repro.baselines.flikker",
    checked_by="tests/baselines/test_flikker.py::TestEffectiveRate",
    cells=(("related-work", ("refresh_rate", "Flikker (1/4 critical)"), "value"),),
))

register(Claim(
    id="RW-RAIDR-MECC-FLOOR",
    source="Sec. VII-B",
    statement="a reliability-honest RAIDR+MECC combination cannot beat MECC's 1/16",
    expected=1 / 16, low=1 / 16 - 1e-9, high=0.07,
    module="repro.baselines.raidr",
    checked_by="tests/baselines/test_rapid_raidr.py",
    cells=(("related-work", ("refresh_rate", "RAIDR + MECC (honest)"), "value"),),
))

register(Claim(
    id="RW-VRT-IMMUNITY",
    source="Sec. VII-B",
    statement="VRT flips land inside MECC's ECC-6 budget (~0 uncorrectable lines/GB)",
    expected=0.0, low=0.0, high=1e-6, unit="lines",
    module="repro.baselines.vrt",
    checked_by="tests/baselines/test_secret_vrt.py",
    cells=(("related-work", ("vrt_uncorrectable_lines", "MECC"), "value"),),
))

register(Claim(
    id="VAL-LINE-FAILURE",
    source="Table I cross-check",
    statement="binomial failure model agrees with Monte-Carlo sampling",
    expected=0.0, low=0.0, high=0.12, unit="rel. err.",
    module="repro.analysis.validation",
    checked_by="tests/analysis/test_validation.py",
    compute=lambda run: validate_line_failure().relative_error,
))

register(Claim(
    id="VAL-RETENTION-INVERSE",
    source="Fig. 2 cross-check",
    statement="retention CDF agrees with inverse-transform sampling",
    expected=0.0, low=0.0, high=0.12, unit="rel. err.",
    module="repro.analysis.validation",
    checked_by="tests/analysis/test_validation.py",
    compute=lambda run: validate_retention_inverse().relative_error,
))

register(Claim(
    id="VAL-REFRESH-LINEARITY",
    source="Fig. 8 premise",
    statement="refresh power scales exactly inversely with refresh period",
    expected=1.0, low=1.0 - 1e-9, high=1.0 + 1e-9, unit="worst factor",
    module="repro.analysis.validation",
    checked_by="tests/analysis/test_validation.py",
    compute=lambda run: validate_refresh_linearity().empirical,
))


# ---------------------------------------------------------------------------
# Simulation claims (added by the ``full`` set)
# ---------------------------------------------------------------------------

register(Claim(
    id="F7-SECDED-OVERHEAD",
    source="Fig. 7 / Sec. V-A",
    statement="SECDED costs ~0.5% average performance (normalized IPC 0.995)",
    expected=0.995, low=0.985, high=1.005, kind="simulation",
    module="repro.sim.engine / repro.core.policy",
    checked_by="benchmarks/bench_fig07_performance.py",
    cells=(("fig7", "ALL", "secded"),),
))

register(Claim(
    id="F7-ECC6-OVERHEAD",
    source="Fig. 7 / Sec. V-A",
    statement="ECC-6 everywhere costs ~10% average performance",
    expected=0.90, low=0.85, high=0.94, kind="simulation",
    module="repro.sim.engine / repro.core.policy",
    checked_by="benchmarks/bench_fig07_performance.py",
    cells=(("fig7", "ALL", "ecc6"),),
))

register(Claim(
    id="F7-MECC-OVERHEAD",
    source="Fig. 7 / Sec. V-A",
    statement="MECC with ECC-Downgrade costs only ~1.2% average performance",
    expected=0.988, low=0.96, high=1.005, kind="simulation",
    module="repro.core.mecc",
    checked_by="benchmarks/bench_fig07_performance.py",
    cells=(("fig7", "ALL", "mecc"),),
))

register(Claim(
    id="F7-LIBQ-WORST-CASE",
    source="Fig. 7 / Sec. II-D",
    statement="libquantum is ECC-6's worst case at ~21% slowdown",
    expected=0.79, low=0.70, high=0.85, kind="simulation",
    module="repro.sim.engine",
    checked_by="benchmarks/bench_fig07_performance.py",
    cells=(("fig7", "libq", "ecc6"),),
))

register(Claim(
    id="F10-MECC-TOTAL-ENERGY",
    source="Fig. 10 / Sec. V-D",
    statement="MECC cuts total memory energy by ~26% at 95% idle",
    expected=0.74, low=0.60, high=0.85, kind="simulation",
    module="repro.power.energy",
    checked_by="benchmarks/bench_fig10_total_energy.py",
    cells=(("fig10", "mecc", "total_norm"),),
))

register(Claim(
    id="F14-SMD-NEVER-ENABLED",
    source="Fig. 14 / Sec. VI-B",
    statement="with MPKC threshold 2, seven benchmarks never enable downgrade",
    expected=7, low=7, high=7, unit="benchmarks", kind="simulation",
    module="repro.core.smd",
    checked_by="benchmarks/bench_fig14_smd.py",
    cells=tuple(
        ("fig14", name, "disabled_fraction") for name in SMD_ALWAYS_DISABLED
    ),
    compute=lambda *fractions: float(fractions.count(1.0)),
))


def _smd_performance(run: ScaledRun) -> float:
    outcomes = run_smd_suite(run, ALL_BENCHMARKS)
    base = run_policy_suites(ALL_BENCHMARKS, run, policies=("baseline",))
    return geometric_mean([
        outcomes[spec.name].result.ipc / base[spec.name]["baseline"].ipc
        for spec in ALL_BENCHMARKS
    ])


register(Claim(
    id="F14-SMD-PERFORMANCE",
    source="Fig. 14 / Sec. VI-B",
    statement="average performance with SMD stays within 2% of no-ECC baseline",
    expected=0.98, low=0.96, high=1.005, kind="simulation",
    module="repro.core.smd",
    checked_by="benchmarks/bench_fig14_smd.py",
    compute=_smd_performance,
))
