"""Fig. 14: fraction of execution time with ECC-Downgrade disabled (SMD).

Paper: with an MPKC threshold of 2, seven benchmarks (povray, tonto, wrf,
gamess, hmmer, sjeng, h264ref) never enable ECC-Downgrade — refresh stays
at 1 s even while active — while memory-intensive benchmarks enable it in
the first quanta.  Average performance stays within 2% of baseline.

The disabled-fraction table is a thin shim over the ``repro.report``
registry (exhibit ``fig14``); the performance companion drives the
simulator directly.
"""

from repro.analysis.experiments import run_policy_suite
from repro.analysis.runner import trace_for
from repro.analysis.tables import format_table
from repro.ecc.backend import selected_backend
from repro.report.spec import get_exhibit
from repro.sim.engine import simulate
from repro.sim.stats import geometric_mean
from repro.sim.system import SystemConfig
from repro.workloads.spec import ALL_BENCHMARKS, SMD_ALWAYS_DISABLED

EXHIBIT_ID = "fig14"


def test_fig14_smd_disabled_fraction(benchmark, run, show):
    spec = get_exhibit(EXHIBIT_ID)
    data = benchmark.pedantic(spec.build, args=(run,), rounds=1, iterations=1)
    show(format_table(
        ["benchmark", "disabled fraction", "paper: never enables?"],
        [[name, data.cell(name, "disabled_fraction"),
          "yes" if name in SMD_ALWAYS_DISABLED else ""]
         for name in data.row_keys()],
        title=(
            "Fig. 14 — time with ECC-Downgrade disabled (threshold "
            f"MPKC=2) [codec backend: {selected_backend()}]"
        ),
    ))
    # The paper's seven stay disabled for the entire run.
    for name in SMD_ALWAYS_DISABLED:
        assert data.cell(name, "disabled_fraction") == 1.0, name
    # Memory-intensive benchmarks enable almost immediately.
    for name in ("libq", "lbm", "bwaves", "milc"):
        assert data.cell(name, "disabled_fraction") < 0.15, name
    # Mid-intensity benchmarks show the gradient.
    assert 0.1 < data.cell("gobmk", "disabled_fraction") < 0.9
    assert 0.1 < data.cell("namd", "disabled_fraction") < 0.9


def test_fig14_smd_performance_within_two_percent(benchmark, run, show):
    """Paper: 'The average performance with SMD is within 2% of a baseline
    that does not perform error correction.'"""

    def measure():
        config = SystemConfig()
        ratios = {}
        for spec in ALL_BENCHMARKS:
            base = run_policy_suite(spec, run, policies=("baseline",))["baseline"]
            policy = config.policy_by_name(
                "mecc+smd", quantum_cycles=run.quantum_cycles
            )
            result = simulate(trace_for(spec, run.instructions), policy)
            ratios[spec.name] = result.ipc / base.ipc
        return ratios

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    geomean = geometric_mean(list(ratios.values()))
    show(format_table(
        ["benchmark", "MECC+SMD normalized IPC"],
        sorted(ratios.items()) + [["GEOMEAN", geomean]],
        title="Fig. 14 companion — MECC+SMD performance (paper: within 2%)",
    ))
    assert geomean > 0.96
