"""The publication pipeline: replay exhibits, emit a versioned tree.

``ReportPipeline.generate`` rebuilds a subset of the registry through
the cached experiment runner and writes one manifest-stamped artifact
tree::

    <out>/<run-id>/
        manifest.json          # schema, run id, git rev, stats
        fig7.csv / .json / .md / .tex
        table1.csv / ...
        report.md              # all exhibits concatenated (md runs only)

The JSON artifacts plus the manifest are the machine-readable contract
``repro report --diff`` (see :mod:`repro.report.diff`), the fidelity
gate, and CI consume.
"""

from __future__ import annotations

import datetime as _dt
import json
import subprocess
import time
from pathlib import Path

from repro import __version__
from repro.errors import ConfigurationError
from repro.report.render import render, resolve_formats, rounded
from repro.report.spec import ExhibitData, ExhibitSpec, resolve_exhibits
from repro.sim.system import ScaledRun

#: Artifact-tree schema version (bump on layout/manifest breaks).
SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"


def git_revision(repo_root: str | Path | None = None) -> str | None:
    """Current git commit hash, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_exhibit(spec: ExhibitSpec, run: ScaledRun) -> ExhibitData:
    """One exhibit's data at ``run``, rounded as every artifact prints it."""
    return rounded(spec.build(run))


def default_run_id(now: float | None = None) -> str:
    stamp = _dt.datetime.fromtimestamp(
        now if now is not None else time.time(), tz=_dt.timezone.utc
    )
    return stamp.strftime("%Y%m%dT%H%M%SZ")


class ReportPipeline:
    """Replay registered exhibits into one artifact tree.

    Args:
        out_dir: root output directory (the tree lands in
            ``out_dir/run_id/``).
        run_id: tree name; defaults to a UTC timestamp.
        formats: render targets (comma string / iterable / None = all).
        run: the scaled run forwarded to every builder.
        fidelity: also evaluate the reduced fidelity claim set over the
            exhibits just built (building only the cited ones the tree
            lacks, at ``run``) and stamp the digest into the manifest.
    """

    def __init__(
        self,
        out_dir: str | Path = "report",
        run_id: str | None = None,
        formats=None,
        run: ScaledRun | None = None,
        fidelity: bool = False,
    ):
        self.out_dir = Path(out_dir)
        self.run_id = run_id or default_run_id()
        if "/" in self.run_id or self.run_id in ("", ".", ".."):
            raise ConfigurationError(f"bad run id {self.run_id!r}")
        self.formats = resolve_formats(formats)
        self.run = run or ScaledRun()
        self.fidelity = fidelity

    @property
    def tree_dir(self) -> Path:
        return self.out_dir / self.run_id

    def generate(self, exhibits=None) -> Path:
        """Build the tree for a subset of exhibits; returns its path.

        ``exhibits`` accepts a comma-separated string, an iterable of
        ids, or None for the full registry.
        """
        specs = resolve_exhibits(exhibits)
        tree = self.tree_dir
        tree.mkdir(parents=True, exist_ok=True)

        built: list[tuple[ExhibitSpec, ExhibitData]] = []
        wall_start = time.perf_counter()
        for spec in specs:
            data = build_exhibit(spec, self.run)
            built.append((spec, data))
            for fmt in self.formats:
                if fmt not in spec.formats:
                    continue
                path = tree / f"{spec.id}.{fmt}"
                path.write_text(render(data, fmt, spec), encoding="utf-8")

        if "md" in self.formats:
            blocks = [f"# Reproduction report — run {self.run_id}", ""]
            for spec, data in built:
                blocks.append(render(data, "md", spec))
            (tree / "report.md").write_text(
                "\n".join(blocks), encoding="utf-8"
            )

        manifest = self._manifest(built, time.perf_counter() - wall_start)
        (tree / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return tree

    def _manifest(self, built, wall_s: float) -> dict:
        from repro.analysis.runner import get_runner

        runner = get_runner()
        total = runner.cache_hits + runner.cache_misses
        manifest = {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "tool_version": __version__,
            "git_rev": git_revision(),
            "instructions": self.run.instructions,
            "formats": list(self.formats),
            "wall_s": wall_s,
            "runner": {
                "jobs": runner.jobs,
                "cache_hits": runner.cache_hits,
                "cache_misses": runner.cache_misses,
                "cache_hit_rate": runner.cache_hits / total if total else 0.0,
            },
            "exhibits": {
                spec.id: dict(
                    spec.describe(),
                    columns=list(data.columns),
                    rows=len(data.rows),
                )
                for spec, data in built
            },
        }
        if self.fidelity:
            from repro.fidelity.engine import conformance_summary

            manifest["fidelity"] = conformance_summary(
                "reduced", self.run, {spec.id: data for spec, data in built}
            )
        return manifest


def load_manifest(tree: str | Path) -> dict:
    """Read and validate a tree's manifest."""
    path = Path(tree) / MANIFEST_NAME
    if not path.is_file():
        raise ConfigurationError(f"no {MANIFEST_NAME} under {tree}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"corrupt manifest {path}: {exc}") from exc
    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(
            f"manifest {path} has schema {schema!r}; this tool reads "
            f"schema {SCHEMA_VERSION}"
        )
    return manifest
