"""Fig. 10: total memory-system energy split into active and idle parts.

Paper: with 95% idle time, idle energy is a significant share of total
memory energy; halving idle power cuts total memory energy ~15% in the
paper's accounting.  Our simulated active power sits nearer the 9x-idle
ratio of the paper's own Fig. 1, which makes the idle share (and hence
MECC's total saving) larger — direction and mechanism identical; see
EXPERIMENTS.md for the discussion of this internal tension in the paper.

Thin shim over the ``repro.report`` registry (exhibit ``fig10``).
"""

import pytest

from repro.analysis.tables import format_table
from repro.report.spec import get_exhibit

EXHIBIT_ID = "fig10"


def test_fig10_total_energy(benchmark, run, show):
    spec = get_exhibit(EXHIBIT_ID)
    data = benchmark.pedantic(spec.build, args=(run,), rounds=1, iterations=1)
    show(format_table(
        list(data.columns),
        [list(row) for row in data.rows],
        title=(
            "Fig. 10 — total memory energy over a 1-hour, 95%-idle "
            "session"
        ),
    ))
    # Baseline and SECDED are indistinguishable.
    assert data.cell("secded", "total_norm") == pytest.approx(1.0, abs=0.05)
    # MECC and ECC-6 halve the idle component.
    for scheme in ("mecc", "ecc6"):
        assert data.cell(scheme, "idle_j") == pytest.approx(
            data.cell("baseline", "idle_j") * 0.52, rel=0.1
        ), scheme
    # Total memory energy drops materially (paper: ~15%; ours more, see
    # module docstring).
    assert data.cell("mecc", "total_norm") < 0.90
    # MECC's saving comes without ECC-6's active-mode slowdown; its total
    # energy is in the same band as ECC-6's (ECC-6 trades its saving for
    # a 10% runtime hit that this energy-only figure does not show).
    assert data.cell("mecc", "total_norm") <= data.cell("ecc6", "total_norm") * 1.15
