"""Experiment harness: one entry point per paper table/figure.

:mod:`repro.analysis.experiments` computes the data behind every figure
and table in the paper's evaluation (see DESIGN.md's experiment index);
:mod:`repro.analysis.tables` renders them as text tables;
:mod:`repro.analysis.sweep` holds the ablation sweeps for the design
choices the paper calls out (MDT size, SMD threshold, mode-bit
redundancy, ECC strength vs. refresh period);
:mod:`repro.analysis.runner` fans simulation jobs out over a process
pool behind an on-disk, content-hash-keyed result cache.
"""

from repro.analysis.experiments import (
    PerformanceResult,
    fig2_retention_curve,
    fig3_ecc_overhead_by_class,
    fig7_performance,
    fig8_idle_power,
    fig9_active_metrics,
    fig10_total_energy,
    fig11_mdt_tracking,
    fig12_latency_sensitivity,
    fig13_transition,
    fig14_smd_disabled,
    run_policy_suite,
    run_policy_suites,
    run_smd_suite,
    table1_failure,
    table3_characterization,
)
from repro.analysis.runner import (
    ExperimentRunner,
    JobOutcome,
    JobSpec,
    ResultCache,
    configure_runner,
    get_runner,
    render_runner_summary,
    reset_runner,
)
from repro.analysis.tables import format_table
from repro.analysis.validation import run_all_validations

__all__ = [
    "ExperimentRunner",
    "JobOutcome",
    "JobSpec",
    "PerformanceResult",
    "ResultCache",
    "configure_runner",
    "get_runner",
    "render_runner_summary",
    "reset_runner",
    "run_policy_suites",
    "run_smd_suite",
    "fig2_retention_curve",
    "fig3_ecc_overhead_by_class",
    "fig7_performance",
    "fig8_idle_power",
    "fig9_active_metrics",
    "fig10_total_energy",
    "fig11_mdt_tracking",
    "fig12_latency_sensitivity",
    "fig13_transition",
    "fig14_smd_disabled",
    "format_table",
    "run_all_validations",
    "run_policy_suite",
    "table1_failure",
    "table3_characterization",
]
