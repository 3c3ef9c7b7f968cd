"""Declarative exhibit registry for the publication pipeline.

Every paper exhibit (figure, table, or reproduction extension) is one
:class:`ExhibitSpec`: a stable id, the paper anchor it reproduces, a
parameter grid, and a builder that regenerates the exhibit's data as a
tidy :class:`ExhibitData` table.  Builders route their simulations
through :mod:`repro.analysis.experiments`, so everything the pipeline
replays shares the cached :class:`repro.analysis.runner.ExperimentRunner`
jobs with the benches and the fidelity gate.

Registration is declarative::

    @register_exhibit(
        "fig7", title="Fig. 7 — per-benchmark performance",
        paper_anchor="Fig. 7", kind="figure", simulated=True,
    )
    def _fig7(run, **params) -> ExhibitData: ...

The registry is the single source of truth: the CLI's exhibit verbs,
the markdown report, the CSV exporters, the ``repro report`` artifact
pipeline, and the bench shims (each declares ``EXHIBIT_ID``) all
resolve through it, so an exhibit's logic lives exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.sim.system import ScaledRun

#: Render targets every exhibit supports (see repro.report.render).
DEFAULT_FORMATS = ("csv", "json", "md", "tex")

#: Exhibit kinds, in presentation order.
KINDS = ("figure", "table", "extension")

#: Default per-cell relative tolerance band for ``repro report --diff``.
#: The pipeline rounds floats to 12 significant digits, and every
#: builder is deterministic end to end, so drift beyond rounding noise
#: is a real model change.
DEFAULT_DIFF_RTOL = 1e-9

#: Scalar cell types an exhibit row may carry (JSON-native).
_CELL_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class ExhibitData:
    """One exhibit's regenerated data as a tidy table.

    ``rows`` are tuples of JSON-native scalars, one per ``columns``
    entry.  The first column is the row key (benchmark name, scheme,
    ECC strength, ...) used by cell lookups and diff messages.
    """

    exhibit_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ConfigurationError(f"exhibit {self.exhibit_id!r} has no columns")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ConfigurationError(
                    f"exhibit {self.exhibit_id!r} row {i} has {len(row)} "
                    f"cells for {len(self.columns)} columns"
                )
            for cell in row:
                if not isinstance(cell, _CELL_TYPES):
                    raise ConfigurationError(
                        f"exhibit {self.exhibit_id!r} row {i} carries a "
                        f"non-scalar cell of type {type(cell).__name__}"
                    )

    # -- lookups ---------------------------------------------------------------

    def _column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise ConfigurationError(
                f"exhibit {self.exhibit_id!r} has no column {column!r}; "
                f"columns: {list(self.columns)}"
            ) from None

    def column(self, column: str) -> list:
        """Every value of one column, in row order."""
        index = self._column_index(column)
        return [row[index] for row in self.rows]

    def row(self, key) -> dict:
        """The first row whose leading cell equals ``key``, as a dict.

        A tuple ``key`` matches that many leading cells, which tells
        apart rows sharing a first cell (``("refresh_rate", "SECRET (1 s)")``).
        """
        lead = key if isinstance(key, tuple) else (key,)
        for row in self.rows:
            if tuple(row[:len(lead)]) == lead:
                return dict(zip(self.columns, row))
        raise ConfigurationError(
            f"exhibit {self.exhibit_id!r} has no row keyed {key!r}"
        )

    def cell(self, key, column: str):
        """One cell, addressed by row key (see :meth:`row`) and column name."""
        return self.row(key)[column]

    def row_keys(self) -> list:
        return [row[0] for row in self.rows]

    def as_dict(self) -> dict:
        """JSON-native payload (the canonical artifact content)."""
        return {
            "exhibit": self.exhibit_id,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class ExhibitSpec:
    """One registered exhibit: identity, provenance, and how to rebuild it.

    Args:
        id: stable exhibit id (``fig7``, ``table1``, ``related-work``).
        title: display title (CLI tables, report headings).
        paper_anchor: where in the paper this exhibit lives ("Fig. 7",
            "Table I", "Sec. VII"); extensions use "Extension".
        kind: ``figure`` / ``table`` / ``extension``.
        builder: ``builder(run, **params) -> ExhibitData``.
        paper_note: the paper's expectation, shown above the exhibit.
        params: default parameter grid forwarded to the builder and
            recorded in the artifact manifest.
        simulated: True when the builder needs cycle simulation (cost
            hint for reduced CI sets).
        diff_rtol: per-cell relative tolerance band for ``--diff``.
        formats: render targets this exhibit supports.
    """

    id: str
    title: str
    paper_anchor: str
    kind: str
    builder: Callable[..., ExhibitData] = field(compare=False)
    paper_note: str = ""
    params: Mapping = field(default_factory=dict)
    simulated: bool = False
    diff_rtol: float = DEFAULT_DIFF_RTOL
    formats: tuple[str, ...] = DEFAULT_FORMATS

    def __post_init__(self) -> None:
        if not self.id or any(c.isspace() or c == "," for c in self.id):
            raise ConfigurationError(f"bad exhibit id {self.id!r}")
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"exhibit {self.id!r} kind must be one of {KINDS}, got "
                f"{self.kind!r}"
            )
        if self.diff_rtol < 0:
            raise ConfigurationError(f"exhibit {self.id!r} diff_rtol < 0")
        unknown = set(self.formats) - set(DEFAULT_FORMATS)
        if not self.formats or unknown:
            raise ConfigurationError(
                f"exhibit {self.id!r} has unknown formats {sorted(unknown)}"
            )

    def build(self, run: ScaledRun | None = None, **overrides) -> ExhibitData:
        """Regenerate the exhibit's data (params merged with overrides)."""
        run = run or ScaledRun()
        params = {**self.params, **overrides}
        data = self.builder(run, **params)
        if data.exhibit_id != self.id:
            raise ConfigurationError(
                f"builder for {self.id!r} returned data labeled "
                f"{data.exhibit_id!r}"
            )
        return data

    def describe(self) -> dict:
        """Manifest-ready description (no callables)."""
        return {
            "id": self.id,
            "title": self.title,
            "paper_anchor": self.paper_anchor,
            "kind": self.kind,
            "paper_note": self.paper_note,
            "params": dict(self.params),
            "simulated": self.simulated,
            "diff_rtol": self.diff_rtol,
            "formats": list(self.formats),
        }


#: The process-wide registry, in registration (paper) order.
REGISTRY: dict[str, ExhibitSpec] = {}


def register_exhibit(
    id: str,
    *,
    title: str,
    paper_anchor: str,
    kind: str,
    paper_note: str = "",
    params: Mapping | None = None,
    simulated: bool = False,
    diff_rtol: float = DEFAULT_DIFF_RTOL,
    formats: tuple[str, ...] = DEFAULT_FORMATS,
) -> Callable:
    """Decorator: register ``fn`` as the builder for exhibit ``id``."""

    def wrap(fn: Callable[..., ExhibitData]) -> Callable[..., ExhibitData]:
        if id in REGISTRY:
            raise ConfigurationError(f"duplicate exhibit id {id!r}")
        REGISTRY[id] = ExhibitSpec(
            id=id,
            title=title,
            paper_anchor=paper_anchor,
            kind=kind,
            builder=fn,
            paper_note=paper_note,
            params=dict(params or {}),
            simulated=simulated,
            diff_rtol=diff_rtol,
            formats=tuple(formats),
        )
        return fn

    return wrap


def _ensure_registered() -> None:
    # Builders live in repro.report.exhibits; importing it populates the
    # registry exactly once (idempotent thanks to module caching).
    if not REGISTRY:
        from repro.report import exhibits  # noqa: F401


def all_exhibits() -> list[ExhibitSpec]:
    """Every registered exhibit, in registration order."""
    _ensure_registered()
    return list(REGISTRY.values())


def exhibit_ids() -> list[str]:
    _ensure_registered()
    return list(REGISTRY)


def get_exhibit(id: str) -> ExhibitSpec:
    """Look one exhibit up; unknown ids name the valid choices."""
    _ensure_registered()
    spec = REGISTRY.get(id)
    if spec is None:
        raise ConfigurationError(
            f"unknown exhibit {id!r}; choose from {', '.join(REGISTRY)}"
        )
    return spec


def resolve_exhibits(ids: str | Iterable[str] | None) -> list[ExhibitSpec]:
    """Resolve a comma-separated string / iterable / None (= all)."""
    _ensure_registered()
    if ids is None:
        return all_exhibits()
    if isinstance(ids, str):
        ids = [part.strip() for part in ids.split(",") if part.strip()]
    ids = list(ids)
    if not ids:
        return all_exhibits()
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown exhibits: {unknown}; choose from {', '.join(REGISTRY)}"
        )
    # Deduplicate while preserving the caller's order.
    return [REGISTRY[i] for i in dict.fromkeys(ids)]
