"""Unified, namespaced metrics snapshots.

The stack accumulates counters in several disjoint places — the memory
controller's :class:`repro.dram.controller.ControllerStats`, the
experiment runner's manifest, the tracer and invariant suite — and every
consumer used to pick its own subset.  :class:`MetricsRegistry` merges
them into one flat ``namespace.key -> value`` snapshot with stable,
sorted keys, exported by the CLI (``--metrics-out``).

Namespaces:

* ``sim.*`` — per-run results (:class:`repro.types.SimResult`).
* ``dram.*`` — memory-controller counters.
* ``runner.*`` — experiment-runner manifest aggregates.
* ``obs.trace.*`` — tracer buffer statistics.
* ``invariants.*`` — invariant-suite evaluation/violation counts.
* ``fidelity.*`` — paper-claim conformance verdicts and relative errors.
* ``fleet.*`` — fleet-simulation aggregates (:mod:`repro.fleet`).
* ``dse.*`` — design-space-exploration frontier/knee summaries and
  tuner report-card aggregates (:mod:`repro.dse`).
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import ConfigurationError

_SCALAR_TYPES = (int, float, str, bool)


class MetricsRegistry:
    """A flat registry of ``namespace.key`` scalar metrics."""

    def __init__(self):
        self._values: dict[str, object] = {}

    # -- generic access ------------------------------------------------------

    def set(self, name: str, value) -> None:
        """Set one metric; values must be JSON-safe scalars."""
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        if value is not None and not isinstance(value, _SCALAR_TYPES):
            raise ConfigurationError(
                f"metric {name!r} must be a scalar, got {type(value).__name__}"
            )
        self._values[name] = value

    def update(self, namespace: str, values: Mapping[str, object]) -> None:
        """Set many metrics under one namespace prefix."""
        for key, value in values.items():
            self.set(f"{namespace}.{key}", value)

    def get(self, name: str):
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def namespace(self, prefix: str) -> dict[str, object]:
        """All metrics under ``prefix.`` with the prefix stripped."""
        lead = prefix + "."
        return {
            name[len(lead):]: value
            for name, value in self._values.items()
            if name.startswith(lead)
        }

    def snapshot(self) -> dict[str, object]:
        """The full registry as a sorted plain dict (stable key order)."""
        return dict(sorted(self._values.items()))

    # -- adapters for the stack's counter sources ----------------------------

    def record_sim_result(self, result, namespace: str = "sim") -> None:
        """Merge one :class:`repro.types.SimResult` (+ derived rates)."""
        self.update(
            namespace,
            {
                "instructions": result.instructions,
                "cycles": result.cycles,
                "reads": result.reads,
                "writes": result.writes,
                "downgrades": result.downgrades,
                "strong_decodes": result.strong_decodes,
                "weak_decodes": result.weak_decodes,
                "read_latency_sum": result.read_latency_sum,
                "ipc": result.ipc,
                "mpki": result.mpki,
                "avg_read_latency": result.avg_read_latency,
                "energy_j": result.energy.total,
                "energy_refresh_j": result.energy.refresh,
                "energy_ecc_j": result.energy.ecc_codec,
            },
        )

    def record_controller_stats(self, stats, namespace: str = "dram") -> None:
        """Merge :class:`repro.dram.controller.ControllerStats` counters."""
        self.update(
            namespace,
            {
                "reads": stats.reads,
                "writes": stats.writes,
                "activates": stats.activates,
                "row_hits": stats.row_hits,
                "row_hit_rate": stats.row_hit_rate,
                "refresh_windows_hit": stats.refresh_windows_hit,
                "write_drains": stats.write_drains,
                "busy_cycles": stats.busy_cycles,
                "powerdown_exits": stats.powerdown_exits,
            },
        )

    def record_runner(self, runner, namespace: str = "runner") -> None:
        """Merge an experiment runner's manifest aggregates."""
        manifest = runner.manifest()
        self.update(
            namespace,
            {
                "jobs": manifest["parallelism"]["jobs"],
                "job_count": manifest["totals"]["job_count"],
                "simulated_wall_s": manifest["totals"]["simulated_wall_s"],
                "max_job_wall_s": manifest["totals"]["max_job_wall_s"],
                "cache_enabled": manifest["cache"]["enabled"],
                "cache_hits": manifest["cache"]["hits"],
                "cache_misses": manifest["cache"]["misses"],
                "cache_hit_rate": manifest["cache"]["hit_rate"],
                "quarantined": manifest["cache"].get("quarantined", 0),
                "quarantine_evicted": manifest["cache"].get(
                    "quarantine_evicted", 0
                ),
                "code_version": manifest["code_version"],
            },
        )

    def record_tracer(self, tracer, namespace: str = "obs.trace") -> None:
        """Merge an :class:`repro.obs.trace.EventTracer`'s buffer stats."""
        self.update(
            namespace,
            {
                "emitted": tracer.emitted,
                "buffered": len(tracer),
                "dropped": tracer.dropped,
                "capacity": tracer.capacity,
            },
        )

    def record_invariants(self, suite, namespace: str = "invariants") -> None:
        """Merge an :class:`repro.obs.invariants.InvariantSuite` summary."""
        summary = suite.summary()
        self.update(
            namespace,
            {
                "evaluations": summary["evaluations"],
                "violations": summary["violations"],
                "tolerant": suite.tolerant,
            },
        )
        for check, count in summary["by_check"].items():
            self.set(f"{namespace}.by_check.{check}", count)

    def record_chaos(self, report, namespace: str = "chaos") -> None:
        """Merge a chaos-campaign report (:mod:`repro.chaos`).

        Accepts anything exposing ``as_dict()`` with scalar outcome
        totals plus per-class breakdown dicts.
        """
        payload = report.as_dict()
        for key, value in payload.items():
            if isinstance(value, Mapping):
                for inner_key, inner_value in value.items():
                    if isinstance(inner_value, _SCALAR_TYPES):
                        self.set(f"{namespace}.{key}.{inner_key}", inner_value)
            elif value is None or isinstance(value, _SCALAR_TYPES):
                self.set(f"{namespace}.{key}", value)

    def record_fidelity(self, report, namespace: str = "fidelity") -> None:
        """Merge a :class:`repro.fidelity.engine.ConformanceReport`.

        Emits the pass/fail totals plus one ``claim.<id>`` triple
        (passed / measured / relative_error) per evaluated claim, so a
        metrics sink can watch individual paper claims drift over time.
        """
        self.update(
            namespace,
            {
                "passed": report.passed,
                "evaluated": len(report.results),
                "failed": len(report.violations),
                "wall_s": report.wall_s,
                "instructions": report.instructions,
            },
        )
        for result in report.results:
            prefix = f"{namespace}.claim.{result.claim.id}"
            self.set(f"{prefix}.passed", result.passed)
            self.set(f"{prefix}.measured", result.measured)
            self.set(f"{prefix}.relative_error", result.relative_error)

    def record_fleet(self, report, namespace: str = "fleet") -> None:
        """Merge a :class:`repro.fleet.simulator.FleetReport` summary.

        Emits the sharding/caching totals plus per-metric mean and p95
        (the full histograms live in the report artifact, not here).
        """
        self.update(
            namespace,
            {
                "devices": report.devices,
                "shards": report.shards,
                "shard_size": report.shard_size,
                "cohort_jobs": report.cohort_jobs,
                "cohort_cache_hits": report.cohort_cache_hits,
                "seed": report.population["seed"],
                "schemes": ",".join(report.schemes),
            },
        )
        skip = {"devices", "shards", "cohort_jobs"}
        for key, value in report.summary().items():
            if key not in skip and isinstance(value, _SCALAR_TYPES):
                self.set(f"{namespace}.{key}", value)

    def record_dse(self, report, namespace: str = "dse") -> None:
        """Merge a :class:`repro.dse.engine.FrontierReport` summary.

        Emits the grid/frontier sizes, the knee's identity and
        objective triple, and the energy range — enough for a metrics
        sink to notice the knee moving between runs.
        """
        self.update(namespace, report.summary())
        for axis, entry in sorted(report.sensitivity.items()):
            for objective in ("energy_j_day", "slowdown", "failure_prob_day"):
                self.set(
                    f"{namespace}.sensitivity.{axis}.{objective}",
                    entry[objective]["spread"],
                )

    def record_tuner(self, tuner, namespace: str = "dse.tuner") -> None:
        """Merge a :class:`repro.dse.tuner.PolicyTuner` report card.

        Emits the training-set size, leave-one-out hit rate, and
        mean/max regret, plus each workload's predicted point.
        """
        card = tuner.report_card()
        regrets = [row["regret"] for row in card]
        self.update(
            namespace,
            {
                "samples": len(tuner.samples),
                "k": tuner.k,
                "loo_hits": sum(1 for row in card if row["hit"]),
                "loo_hit_rate": sum(1 for row in card if row["hit"]) / len(card),
                "mean_regret": sum(regrets) / len(regrets),
                "max_regret": max(regrets),
            },
        )
        for row in card:
            self.set(f"{namespace}.predicted.{row['workload']}", row["predicted"])

    # -- export --------------------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path) -> str:
        """Write the snapshot as JSON; returns the path written."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json())
            stream.write("\n")
        return str(path)
