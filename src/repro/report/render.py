"""Render an :class:`ExhibitData` table to each artifact format.

Four targets: ``csv`` (tidy data), ``json`` (canonical payload the
``--diff`` comparator reads), ``md`` (human-readable report block),
``tex`` (``booktabs``-style table for the paper write-up).  Floats are
rounded to :data:`SIG_DIGITS` significant digits in every format so
artifact trees are byte-stable across platforms and the diff tolerance
bands only have to absorb real model drift.
"""

from __future__ import annotations

import csv
import io
import json

from repro.errors import ConfigurationError
from repro.report.spec import ExhibitData, ExhibitSpec

#: Significant digits kept in rendered floats.  Twelve drops the last-ulp
#: noise a different libm can leave in a double's 17 digits, so rendered
#: bytes match across platforms, and the rounding error (<= 5e-13
#: relative) stays well inside the 1e-9 ``repro report --diff`` band.
SIG_DIGITS = 12


def round_scalar(value):
    """Round one cell for rendering (floats only; ints/str/bool pass)."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return value
        return float(f"{value:.{SIG_DIGITS}g}")
    return value


def rounded(data: ExhibitData) -> ExhibitData:
    """A copy of ``data`` with every float cell rounded for rendering."""
    return ExhibitData(
        data.exhibit_id,
        data.columns,
        tuple(tuple(round_scalar(c) for c in row) for row in data.rows),
        meta={k: round_scalar(v) for k, v in data.meta.items()},
    )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(round_scalar(value))
    return str(value)


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------


def render_csv(data: ExhibitData) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(data.columns)
    for row in data.rows:
        writer.writerow([_format_cell(c) for c in row])
    return buf.getvalue()


def render_json(data: ExhibitData) -> str:
    payload = rounded(data).as_dict()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_md(data: ExhibitData, spec: ExhibitSpec | None = None) -> str:
    lines = []
    if spec is not None:
        lines.append(f"## {spec.title}")
        lines.append("")
        if spec.paper_note:
            lines.append(spec.paper_note)
            lines.append("")
    lines.append("| " + " | ".join(data.columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in data.columns) + "|")
    for row in data.rows:
        lines.append("| " + " | ".join(_format_cell(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


_TEX_ESCAPES = {
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
}


def tex_escape(text: str) -> str:
    return "".join(_TEX_ESCAPES.get(ch, ch) for ch in text)


def render_tex(data: ExhibitData, spec: ExhibitSpec | None = None) -> str:
    cols = "l" * 1 + "r" * (len(data.columns) - 1)
    lines = [r"\begin{table}[t]", r"\centering"]
    if spec is not None:
        lines.append(rf"\caption{{{tex_escape(spec.title)}}}")
        lines.append(rf"\label{{tab:{spec.id}}}")
    lines.append(rf"\begin{{tabular}}{{{cols}}}")
    lines.append(r"\toprule")
    lines.append(
        " & ".join(tex_escape(c) for c in data.columns) + r" \\"
    )
    lines.append(r"\midrule")
    for row in data.rows:
        lines.append(
            " & ".join(tex_escape(_format_cell(c)) for c in row) + r" \\"
        )
    lines.append(r"\bottomrule")
    lines.append(r"\end{tabular}")
    lines.append(r"\end{table}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "csv": lambda data, spec=None: render_csv(data),
    "json": lambda data, spec=None: render_json(data),
    "md": render_md,
    "tex": render_tex,
}


def render(data: ExhibitData, fmt: str, spec: ExhibitSpec | None = None) -> str:
    """Render one exhibit to one format."""
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ConfigurationError(
            f"unknown format {fmt!r}; choose from {', '.join(RENDERERS)}"
        ) from None
    return renderer(data, spec)


def resolve_formats(formats) -> tuple[str, ...]:
    """Resolve a comma-separated string / iterable / None (= all)."""
    if formats is None:
        return tuple(RENDERERS)
    if isinstance(formats, str):
        formats = [p.strip() for p in formats.split(",") if p.strip()]
    formats = list(formats)
    if not formats:
        return tuple(RENDERERS)
    unknown = [f for f in formats if f not in RENDERERS]
    if unknown:
        raise ConfigurationError(
            f"unknown formats: {unknown}; choose from {', '.join(RENDERERS)}"
        )
    return tuple(dict.fromkeys(formats))
