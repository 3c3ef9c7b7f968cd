"""Frontier JSON is byte-identical across parallelism.

The determinism contract from ``tests/sim/test_batched_equivalence.py``
extended to the DSE layer: an identical grid + workload must render the
*same bytes* of canonical frontier JSON whether the sims ran inline or
over a 4-process pool.  Everything downstream (golden fixtures, CI replay diffs, the
tuner) leans on this.
"""

import pytest

from repro.analysis.runner import configure_runner, reset_runner
from repro.dse import DesignSpaceExplorer, GridSpec
from repro.sim.system import ScaledRun

#: Small but non-degenerate: 2 strengths x 2 periods x 2 thresholds x
#: 2 geometries = 16 points, 4 simulated pairs x 2 benchmarks + 2
#: baselines = 10 sim jobs.
GRID = GridSpec(
    ecc_strength=(4, 6),
    refresh_period_s=(0.256, 1.024),
    threshold_mpkc=(1.0, 2.0),
    mdt_entries=(512, 1024),
)
RUN = ScaledRun(instructions=20_000)
BENCHMARKS = ("povray", "libq")


@pytest.fixture(autouse=True)
def _restore_runner():
    """These tests reconfigure the global runner; re-pin the hermetic one."""
    yield
    configure_runner(jobs=1, cache_dir=None)


def _explore_json() -> str:
    return (
        DesignSpaceExplorer(grid=GRID, benchmarks=BENCHMARKS, run=RUN)
        .explore()
        .to_json()
    )


def test_frontier_json_identical_across_jobs_1_and_4():
    configure_runner(jobs=1, cache_dir=None)
    serial = _explore_json()
    reset_runner()
    configure_runner(jobs=4, cache_dir=None)
    parallel = _explore_json()
    assert serial == parallel


def test_repeated_exploration_is_byte_stable():
    configure_runner(jobs=1, cache_dir=None)
    assert _explore_json() == _explore_json()


def test_grid_axis_order_does_not_change_bytes():
    configure_runner(jobs=1, cache_dir=None)
    reordered = GridSpec(
        ecc_strength=(6, 4),
        refresh_period_s=(1.024, 0.256),
        threshold_mpkc=(2.0, 1.0),
        mdt_entries=(1024, 512),
    )
    a = _explore_json()
    b = (
        DesignSpaceExplorer(grid=reordered, benchmarks=BENCHMARKS, run=RUN)
        .explore()
        .to_json()
    )
    assert a == b
