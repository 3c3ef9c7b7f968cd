"""Declarative sweep grids for design-space exploration.

The paper fixes one MECC operating point — ECC-6, a 1.024 s idle
refresh period, and an SMD threshold of ~1 MPKC — but the mechanism
defines a whole family of operating points.  A :class:`GridSpec` names
the four tunable axes:

* ``ecc_strength`` — strong-code correction strength ``t`` (Sec. IV-A);
  flows into :class:`repro.sim.system.SystemConfig` as ``strong_t``.
* ``refresh_period_s`` — idle self-refresh period; only the energy and
  failure-probability objectives depend on it (the active burst runs at
  the base 64 ms period either way).
* ``threshold_mpkc`` — SMD morph threshold (misses per kilo-cycle).
* ``mdt_entries`` — Memory Downgrade Tracker geometry (entry count;
  region size follows as capacity / entries).

``GridSpec.points()`` expands the Cartesian product into frozen
:class:`OperatingPoint` values in a canonical order, so every consumer
(frontier JSON, the report exhibits, the tuner) sees points in the same
sequence regardless of how the axes were written down.

Only distinct ``(policy, ecc_strength, threshold_mpkc)`` triples need
cycle simulation; refresh period and MDT geometry reshape the analytic
energy/failure terms.  A 64-point grid therefore usually costs a
handful of simulator jobs (see :mod:`repro.dse.engine`).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError

#: Policies a grid may sweep.  Both morphable variants exercise the
#: strong/weak ECC machinery; ``mecc+smd`` additionally uses the
#: threshold axis (plain ``mecc`` ignores it for simulation but keeps
#: it in the point key so grids stay rectangular).
GRID_POLICIES = ("mecc", "mecc+smd")

#: Axis spellings accepted by :func:`parse_grid` (CLI shorthand).
AXIS_ALIASES = {
    "ecc": "ecc_strength",
    "ecc_strength": "ecc_strength",
    "t": "ecc_strength",
    "period": "refresh_period_s",
    "refresh": "refresh_period_s",
    "refresh_period_s": "refresh_period_s",
    "threshold": "threshold_mpkc",
    "threshold_mpkc": "threshold_mpkc",
    "smd": "threshold_mpkc",
    "mdt": "mdt_entries",
    "entries": "mdt_entries",
    "mdt_entries": "mdt_entries",
    "policy": "policy",
}

#: Axis names in canonical order (also the sensitivity-report order).
AXES = ("ecc_strength", "refresh_period_s", "threshold_mpkc", "mdt_entries")


@dataclass(frozen=True)
class OperatingPoint:
    """One candidate configuration: a single cell of the sweep grid."""

    ecc_t: int
    refresh_period_s: float
    threshold_mpkc: float
    mdt_entries: int
    policy: str = "mecc+smd"

    def key(self) -> str:
        """Stable human-readable identity (sort key, JSON map key)."""
        return (
            f"{self.policy}/t{self.ecc_t}/p{self.refresh_period_s:g}"
            f"/th{self.threshold_mpkc:g}/mdt{self.mdt_entries}"
        )

    def axis_value(self, axis: str) -> float:
        """The point's coordinate along one named grid axis."""
        if axis == "ecc_strength":
            return self.ecc_t
        if axis == "refresh_period_s":
            return self.refresh_period_s
        if axis == "threshold_mpkc":
            return self.threshold_mpkc
        if axis == "mdt_entries":
            return self.mdt_entries
        raise ConfigurationError(
            f"unknown grid axis {axis!r}; choose from {', '.join(AXES)}"
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GridSpec:
    """A rectangular sweep grid over the four MECC design axes.

    Axis values are deduplicated and sorted at construction, so two
    grids written in different orders are the same grid (equal specs,
    identical ``points()`` expansion, identical cache behavior).
    """

    ecc_strength: tuple[int, ...] = (2, 4, 6, 8)
    refresh_period_s: tuple[float, ...] = (0.128, 0.256, 0.512, 1.024)
    threshold_mpkc: tuple[float, ...] = (1.0, 2.0)
    mdt_entries: tuple[int, ...] = (512, 1024)
    policy: str = "mecc+smd"
    org: DramOrganization = field(default_factory=DramOrganization)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ecc_strength", _canon_axis("ecc_strength", self.ecc_strength)
        )
        object.__setattr__(
            self,
            "refresh_period_s",
            _canon_axis("refresh_period_s", self.refresh_period_s),
        )
        object.__setattr__(
            self,
            "threshold_mpkc",
            _canon_axis("threshold_mpkc", self.threshold_mpkc),
        )
        object.__setattr__(
            self, "mdt_entries", _canon_axis("mdt_entries", self.mdt_entries)
        )
        for t in self.ecc_strength:
            if not isinstance(t, int) or t < 1:
                raise ConfigurationError(
                    f"ecc_strength values must be integers >= 1, got {t!r}"
                )
        for period in self.refresh_period_s:
            if period <= 0.0:
                raise ConfigurationError(
                    f"refresh_period_s values must be positive, got {period!r}"
                )
        for threshold in self.threshold_mpkc:
            if threshold <= 0.0:
                raise ConfigurationError(
                    f"threshold_mpkc values must be positive, got {threshold!r}"
                )
        for entries in self.mdt_entries:
            if not isinstance(entries, int) or entries < 1:
                raise ConfigurationError(
                    f"mdt_entries values must be integers >= 1, got {entries!r}"
                )
            if self.org.capacity_bytes % entries:
                raise ConfigurationError(
                    f"mdt_entries {entries} must divide capacity "
                    f"({self.org.capacity_bytes} B)"
                )
            if self.org.capacity_bytes // entries < self.org.line_bytes:
                raise ConfigurationError(
                    f"mdt_entries {entries} gives regions smaller than one "
                    f"{self.org.line_bytes} B line"
                )
        if self.policy not in GRID_POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; choose from "
                f"{', '.join(GRID_POLICIES)}"
            )

    # -- expansion -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of operating points in the Cartesian expansion."""
        return (
            len(self.ecc_strength)
            * len(self.refresh_period_s)
            * len(self.threshold_mpkc)
            * len(self.mdt_entries)
        )

    def axis_values(self, axis: str) -> tuple:
        """The sorted values along one named axis."""
        if axis not in AXES:
            raise ConfigurationError(
                f"unknown grid axis {axis!r}; choose from {', '.join(AXES)}"
            )
        return getattr(self, axis)

    def points(self) -> tuple[OperatingPoint, ...]:
        """Every operating point, in canonical (sorted-axes) order."""
        return tuple(
            OperatingPoint(
                ecc_t=t,
                refresh_period_s=period,
                threshold_mpkc=threshold,
                mdt_entries=entries,
                policy=self.policy,
            )
            for t, period, threshold, entries in itertools.product(
                self.ecc_strength,
                self.refresh_period_s,
                self.threshold_mpkc,
                self.mdt_entries,
            )
        )

    def sim_pairs(self) -> tuple[tuple[int, float], ...]:
        """Distinct ``(ecc_t, threshold_mpkc)`` pairs needing simulation."""
        if self.policy == "mecc":
            # Plain MECC has no SMD threshold; one sim per strength.
            return tuple((t, self.threshold_mpkc[0]) for t in self.ecc_strength)
        return tuple(itertools.product(self.ecc_strength, self.threshold_mpkc))

    # -- serialization ---------------------------------------------------------

    def describe(self) -> dict:
        """Plain-dict form (frontier-report provenance)."""
        return {
            "ecc_strength": list(self.ecc_strength),
            "refresh_period_s": list(self.refresh_period_s),
            "threshold_mpkc": list(self.threshold_mpkc),
            "mdt_entries": list(self.mdt_entries),
            "policy": self.policy,
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GridSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in payload.items():
            if key == "size":
                continue
            if key not in known:
                raise ConfigurationError(
                    f"unknown grid field {key!r}; choose from "
                    f"{', '.join(sorted(known - {'org'}))}"
                )
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


def _canon_axis(name: str, values) -> tuple:
    """Dedup + sort one axis; empty axes are configuration errors."""
    if isinstance(values, (str, bytes)):
        raise ConfigurationError(f"grid axis {name} must be a sequence of values")
    try:
        canon = tuple(sorted(set(values)))
    except TypeError as exc:
        raise ConfigurationError(f"grid axis {name}: {exc}") from None
    if not canon:
        raise ConfigurationError(
            f"grid axis {name} is empty; every axis needs at least one value"
        )
    return canon


def parse_grid(text: str, policy: str | None = None) -> GridSpec:
    """Parse the CLI grid shorthand into a :class:`GridSpec`.

    The shorthand is ``axis=v1,v2;axis=v1,...`` (``:`` also accepted as
    the axis separator), e.g.::

        ecc=4,6;period=0.256,1.024;threshold=1,2;mdt=1024

    Unlisted axes keep the :class:`GridSpec` defaults.  Axis names may
    use the short aliases in :data:`AXIS_ALIASES`.
    """
    kwargs: dict[str, object] = {}
    if policy is not None:
        kwargs["policy"] = policy
    for clause in filter(None, (part.strip() for part in text.split(";"))):
        sep = "=" if "=" in clause else ":"
        name, _, body = clause.partition(sep)
        axis = AXIS_ALIASES.get(name.strip().lower())
        if axis is None:
            raise ConfigurationError(
                f"unknown grid axis {name.strip()!r}; choose from "
                f"{', '.join(sorted(set(AXIS_ALIASES)))}"
            )
        if axis == "policy":
            kwargs["policy"] = body.strip()
            continue
        raw = [item.strip() for item in body.split(",") if item.strip()]
        if not raw:
            raise ConfigurationError(
                f"grid axis {axis} is empty; every axis needs at least one value"
            )
        caster = int if axis in ("ecc_strength", "mdt_entries") else float
        try:
            kwargs[axis] = tuple(caster(item) for item in raw)
        except ValueError:
            raise ConfigurationError(
                f"grid axis {axis}: could not parse {body.strip()!r} as "
                f"{caster.__name__} values"
            ) from None
    return GridSpec(**kwargs)
