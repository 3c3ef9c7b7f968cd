"""Every ``repro`` module is reached from a verb, exhibit, claim or example.

The walk starts at the roots a user or the benchmark actually runs: the
CLI (``repro.cli`` and ``python -m repro``), the perfbench harness, the
examples and the shared test and bench fixtures.  It follows every
``import`` statement (function-level ones included) by parsing sources
with :mod:`ast`, nothing is imported.  A package ``__init__`` is only a
namespace: ``from repro.pkg import Name`` reaches the module that defines
``Name``, not every module ``pkg/__init__.py`` re-exports, so a module
that only a package's exports load still counts as unreached.

Modules reached only by their own tests are orphans.  The allowlist
names the few that stay on purpose; a new orphan fails here, and so
does an allowlisted module that is gone or has since been reached.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_FILES = (
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    ROOT / "tests" / "conftest.py",
    ROOT / "benchmarks" / "conftest.py",
)

#: Unreached modules that stay: each models part of the paper's own
#: argument and waits for ROADMAP direction 3 to give it a printed cell
#: in the report tree, or to delete it.
ALLOWED_UNREACHED = {
    "repro.analysis.sweep": "ablation sweeps (MDT size, SMD threshold, ECC strength); ROADMAP direction 3",
    "repro.core.governor": "temperature-aware divider keeping 1 s refresh inside the ECC-6 budget; ROADMAP direction 3",
    "repro.power.battery": "battery-life translation of the idle-power saving; ROADMAP direction 3",
    "repro.reliability.mttf": "MTTDL analysis behind the +1 soft-error margin; ROADMAP direction 3",
    "repro.reliability.profiling": "Sec. VII-B retention-profiling campaign model; ROADMAP direction 3",
}


def _module_paths() -> dict[str, Path]:
    paths = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@cache
def _package_bindings(package: str) -> dict[str, tuple[str, str]]:
    """Names a package ``__init__`` re-exports -> (defining module, name)."""
    bindings = {}
    for node in _tree(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bindings[alias.asname or alias.name] = (node.module, alias.name)
    return bindings


def _resolve(module: str, name: str | None) -> set[str]:
    """Modules reached by ``from module import name`` (or ``import module``)."""
    if name is not None and f"{module}.{name}" in MODULES:
        return _resolve(f"{module}.{name}", None)
    if module not in MODULES:
        return set()
    if module not in PACKAGES:
        return {module}
    if name is None or name not in _package_bindings(module):
        return set()
    return _resolve(*_package_bindings(module)[name])


def _statements(body):
    """Every statement in a body, nested blocks included (imports are
    statements, so expressions need no visit)."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _statements(getattr(node, field, ()))


def _imports(path: Path) -> set[str]:
    """Modules one file reaches through its (absolute) import statements."""
    reached: set[str] = set()
    for node in _statements(_tree(path).body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached |= _resolve(alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                reached |= _resolve(node.module, alias.name)
    return reached


def reached_modules() -> set[str]:
    seen: set[str] = set()
    frontier = set(ROOT_MODULES)
    for path in ROOT_FILES:
        frontier |= _imports(path)
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        frontier |= _imports(MODULES[module]) - seen
    return seen


def test_every_module_is_reached_or_allowlisted():
    unreached = set(MODULES) - PACKAGES - reached_modules()
    orphans = sorted(unreached - set(ALLOWED_UNREACHED))
    stale = sorted(set(ALLOWED_UNREACHED) - unreached)
    assert not orphans, (
        f"modules no verb, exhibit, claim or example reaches: {orphans}; "
        "wire them in or delete them with their tests"
    )
    assert not stale, f"allowlisted modules that are reached or gone: {stale}"

