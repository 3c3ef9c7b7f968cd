"""Shared configuration for the reproduction benchmarks.

Each bench file regenerates one paper exhibit (see DESIGN.md's experiment
index), prints it as a paper-vs-measured table, and asserts the *shape*
of the paper's result.  Simulation results are memoized process-wide, so
exhibits sharing the same runs (Figs. 3/7/9/10) pay for them once.

``REPRO_BENCH_INSTRUCTIONS`` scales the per-benchmark slice length
(default 400,000 — about 10,000x smaller than the paper's 4 billion, with
SMD quanta and working sets scaled accordingly; see repro.sim.system).

The bench suite routes all simulations through the parallel cached
experiment runner (see repro.analysis.runner): set ``REPRO_JOBS=4`` to
fan independent (benchmark, policy) jobs over 4 worker processes, and
``REPRO_CACHE_DIR=.repro-cache`` to reuse results across bench runs —
results are bit-identical either way.  A runner summary (per-policy job
counts, cache hit rate, simulated wall time) prints at session end when
either option is active.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.runner import configure_runner
from repro.ecc.backend import available_backends, reset_backend, set_backend
from repro.fidelity.properties import install_hypothesis_profiles
from repro.sim.system import ScaledRun

# Benchmarks share the suite-wide seed-pinned hypothesis profiles so a
# bench that uses property-based assertions reproduces deterministically.
install_hypothesis_profiles()

BENCH_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "400000"))
BENCH_JOBS = max(1, int(os.environ.get("REPRO_JOBS", "1") or "1"))
BENCH_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        default="auto",
        choices=("auto", "matrix", "bitsliced", "numpy", "all"),
        help="codec backend for the bench session ('all': the per-backend "
        "microbenchmarks in bench_codec_micro compare every available one)",
    )


@pytest.fixture(autouse=True, scope="session")
def _session_backend(request):
    """Apply ``--backend`` to the whole bench session (``all`` = auto)."""
    choice = request.config.getoption("--backend")
    if choice not in ("auto", "all"):
        set_backend(choice)
    yield
    reset_backend()


@pytest.fixture
def backend_matrix_request(request):
    """Concrete backends the per-backend microbenchmarks should cover."""
    choice = request.config.getoption("--backend")
    if choice in ("auto", "all"):
        return [n for n in ("matrix", "bitsliced", "numpy")
                if n in available_backends()]
    return [choice] if choice in available_backends() else []


@pytest.fixture(autouse=True, scope="session")
def _bench_runner():
    """Configure the shared experiment runner for the whole bench session."""
    runner = configure_runner(jobs=BENCH_JOBS, cache_dir=BENCH_CACHE_DIR)
    yield runner
    if runner.records and (BENCH_JOBS > 1 or BENCH_CACHE_DIR):
        from repro.analysis.runner import render_runner_summary

        summary = render_runner_summary(runner)
        if summary:
            print("\n" + summary)


@pytest.fixture(scope="session")
def run():
    return ScaledRun(instructions=BENCH_INSTRUCTIONS)


@pytest.fixture
def show(capsys):
    """Print an exhibit table to the real terminal, bypassing capture."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _show
