"""Fig. 7: per-benchmark normalized IPC of SECDED, ECC-6 and MECC.

Paper headline numbers: SECDED ~0.5% average slowdown, ECC-6 ~10%
(libquantum worst at ~21%), MECC ~1.2% — within 1% of SECDED.

Thin shim over the ``repro.report`` registry (exhibit ``fig7``); the
registry table carries the 28 benchmark rows plus per-class and ALL
geomean rows.
"""

from repro.analysis.tables import format_table
from repro.report.spec import get_exhibit
from repro.workloads.spec import ALL_BENCHMARKS

EXHIBIT_ID = "fig7"


def test_fig07_per_benchmark_performance(benchmark, run, show):
    spec = get_exhibit(EXHIBIT_ID)
    data = benchmark.pedantic(spec.build, args=(run,), rounds=1, iterations=1)
    show(format_table(
        list(data.columns),
        [list(row) for row in data.rows],
        title=(
            "Fig. 7 — normalized IPC (paper ALL: SECDED 0.995, "
            "ECC-6 0.90, MECC 0.988)"
        ),
    ))
    # Headline shape assertions (the ALL row is the cross-benchmark geomean).
    assert data.cell("ALL", "secded") > 0.985
    assert 0.85 <= data.cell("ALL", "ecc6") <= 0.94
    assert data.cell("ALL", "mecc") > 0.96
    # libquantum is the worst case for ECC-6 at roughly 20-28% slowdown.
    libq_ecc6 = data.cell("libq", "ecc6")
    assert 0.70 <= libq_ecc6 <= 0.85
    # MECC recovers most of that loss.
    assert data.cell("libq", "mecc") > libq_ecc6 + 0.15
    # Every benchmark: ECC-6 <= MECC (demand downgrades can only help).
    for b in ALL_BENCHMARKS:
        assert data.cell(b.name, "ecc6") <= data.cell(b.name, "mecc") + 0.01, b.name
    # Class ordering as in the paper's grouping.
    assert (
        data.cell("GEOMEAN:Low-MPKI", "ecc6")
        > data.cell("GEOMEAN:Med-MPKI", "ecc6")
        > data.cell("GEOMEAN:High-MPKI", "ecc6")
    )
