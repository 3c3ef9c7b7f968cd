"""One benchmark iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration (and once more to prime
the runner cache where a workload needs it).  Everything from
interpreter start to the timed phase is set-up; the timed phase is the
workload itself.  The script writes one JSON object to ``--out``:
timings, peak resident memory, an output digest per checked output,
operation counts and provenance, plus the per-layer metrics when the
iteration is traced.

Usage (normally only through ``run.py``)::

    python3 perfbench/iteration.py --workload sim-cold --seed 0 \\
        --mode timed --cache-dir .perfbench/c --out it.json \\
        --spawned-at 123.4 [--spans spans.jsonl]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"

#: Instructions per simulated slice, for every workload.  Chosen so a
#: cold build of the nine simulated exhibits takes ~3.5 s at reference
#: speed, leaving room for several iterations per run.
INSTRUCTIONS = 50_000

#: The simulated exhibits built by ``sim-cold``.
SIM_COLD_EXHIBITS = (
    "fig3", "fig7", "fig12", "fig13", "fig14",
    "personas", "device", "dse-frontier", "dse-tuner",
)

#: Simulated exhibits that never submit runner jobs (priming skips them).
RUNNER_BYPASS = ("personas", "device", "functional")

#: fig11's address-only scan does not depend on the instruction count;
#: at the registry's coverage factor (2.0) it alone runs ~55 s here, so
#: ``report-warm`` pins it to a factor that keeps the scan at ~1.4 s.
FIG11_COVERAGE = 0.05

CHAOS_TRIALS = 80
VALIDATE_TRIALS = 40_000  # `repro validate` defaults
VALIDATE_SAMPLES = 50_000
VALIDATE_TOLERANCE = 0.05
FLEET_DEVICES = 100_000
FLEET_SHARD = 25_000


#: Nominal duration of one reference-kernel sample (seconds).
REFERENCE_KERNEL_S = 1e-3
_KERNEL_ROUNDS = 7000
_KERNEL_TABLE = {i * 7919 % 4099: i for i in range(4096)}


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


def reference_kernel() -> int:
    """A fixed pure-Python mix (dict reads, slot writes, list appends)."""
    table, cell, out = _KERNEL_TABLE, _Cell(), []
    for i in range(_KERNEL_ROUNDS):
        cell.value = (cell.value + table.get(i * 7919 % 4099, 0)) & 0xFFFF
        out.append(cell.value)
    return len(out)


class HostSpeedSampler:
    """Times ``reference_kernel`` every ``interval_s`` from a thread.

    This host's speed drifts: a fixed loop runs up to ~1.6x slower for
    seconds to minutes at a time.  The mean kernel time over a phase
    gives the factor that scales the phase's host seconds to a host on
    which the kernel takes ``REFERENCE_KERNEL_S``.  The kernel runs no
    ``repro`` code, so a change to ``repro`` cannot move it.
    """

    def __init__(self, interval_s: float = 0.025):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        """``REFERENCE_KERNEL_S`` over the mean sampled kernel time."""
        return REFERENCE_KERNEL_S / statistics.mean(self.samples)


def dse_grid():
    """A 4096-point grid: 8 strengths x 8 periods x 4 thresholds x 16 MDTs."""
    from repro.dse import GridSpec

    return GridSpec(
        ecc_strength=tuple(range(2, 10)),
        refresh_period_s=tuple(0.064 * 2 ** i for i in range(8)),
        threshold_mpkc=(0.5, 1.0, 2.0, 4.0),
        mdt_entries=tuple(2 ** i for i in range(4, 20)),
    )


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def jobs_digest(outcomes) -> str:
    """Digest of every runner job's result, keyed by ``JobSpec.describe()``.

    ``describe()`` rather than ``key()``: the key embeds the source
    fingerprint and so changes on any edit.
    """
    rows = sorted(
        (
            json.dumps(spec.describe(), sort_keys=True),
            outcome.result.to_dict(),
            outcome.smd_disabled_fraction,
        )
        for spec, outcome in outcomes.items()
    )
    return digest(rows)


class Context:
    """What one iteration knows: workload, seed, runner, work area."""

    def __init__(self, args):
        from repro.analysis import experiments
        from repro.analysis import runner as runner_mod
        from repro.analysis.robustness import reseeded
        from repro.ecc import backend, matrix
        from repro.sim.system import ScaledRun

        # Fresh in-process memos, even though the interpreter is new.
        experiments.clear_caches()
        runner_mod.reset_runner()
        matrix.clear_table_cache()
        backend.reset_backend()

        class SeedShiftRunner(runner_mod.ExperimentRunner):
            """Serial runner that re-seeds each job's benchmark by ``offset``.

            Offset 0 leaves every job as the registry builds it.
            """

            def __init__(self, offset: int, **kwargs):
                super().__init__(**kwargs)
                self.offset = offset
                self.outcomes = {}

            def run(self, specs):
                shifted = [
                    dataclasses.replace(
                        spec, benchmark=reseeded(spec.benchmark, self.offset)
                    )
                    for spec in specs
                ]
                outcomes = super().run(shifted)
                self.outcomes.update(outcomes)
                return {spec: outcomes[new] for spec, new in zip(specs, shifted)}

        self.seed = args.seed
        self.run = ScaledRun(instructions=INSTRUCTIONS)
        self.work = Path(args.cache_dir).parent
        self.runner = SeedShiftRunner(
            args.seed,
            jobs=1,
            cache=runner_mod.ResultCache(args.cache_dir),
        )
        # The exhibits, fleet and DSE all fetch the process-wide runner.
        runner_mod._default_runner = self.runner

    def job_ops(self) -> tuple[int, int]:
        records = self.runner.records
        failed = sum(1 for r in records if r.status in ("failed", "timeout"))
        return len(records), failed


def _build_all(specs, run, errors):
    data = {}
    for spec in specs:
        try:
            data[spec.id] = spec.build(run)
        except Exception:
            errors.append(traceback.format_exc())
    return data


# ---------------------------------------------------------------------------
# Workloads: each returns (timed callable, finish callable).  The timed
# callable is the measured phase; finish() runs after the clock stops and
# returns (digests, attempted, failed, extra).
# ---------------------------------------------------------------------------


def sim_cold(ctx: Context, errors: list):
    from repro.report.spec import get_exhibit

    specs = [get_exhibit(name) for name in SIM_COLD_EXHIBITS]
    built = {}

    def timed():
        built.update(_build_all(specs, ctx.run, errors))

    def finish():
        digests = {f"exhibit:{k}": digest(v.as_dict()) for k, v in built.items()}
        digests["jobs"] = jobs_digest(ctx.runner.outcomes)
        jobs, jobs_failed = ctx.job_ops()
        attempted = len(specs) + jobs
        failed = len(specs) - len(built) + jobs_failed
        return digests, attempted, failed, {}

    return timed, finish


def _report_registry():
    from repro.report.spec import REGISTRY, all_exhibits

    specs = all_exhibits()
    fig11 = REGISTRY["fig11"]
    REGISTRY["fig11"] = dataclasses.replace(
        fig11, params={**fig11.params, "coverage_factor": FIG11_COVERAGE}
    )
    return specs


def report_warm(ctx: Context, errors: list):
    from repro.report.pipeline import MANIFEST_NAME, ReportPipeline

    specs = _report_registry()
    out_dir = ctx.work / f"tree-{os.getpid()}"
    pipeline = ReportPipeline(out_dir=out_dir, run_id="perfbench", run=ctx.run)
    generated = []

    def timed():
        try:
            generated.append(pipeline.generate())
        except Exception:
            errors.append(traceback.format_exc())

    def finish():
        digests = {}
        if generated:
            tree = generated[0]
            for path in sorted(tree.iterdir()):
                if path.name != MANIFEST_NAME:
                    digests[f"file:{path.name}"] = hashlib.sha256(
                        path.read_bytes()
                    ).hexdigest()[:20]
        shutil.rmtree(out_dir, ignore_errors=True)
        digests["jobs"] = jobs_digest(ctx.runner.outcomes)
        runner = ctx.runner
        distinct = {r.key for r in runner.records}
        hit = {r.key for r in runner.records if r.source == "cache"}
        replayed = hit == distinct and runner.cache_misses == 0
        if not replayed:
            errors.append(
                f"cache replay incomplete: {len(hit)} of {len(distinct)} "
                f"distinct jobs hit ({runner.cache_misses} misses)"
            )
        jobs, jobs_failed = ctx.job_ops()
        # One op per exhibit build, per runner job, and the replay check.
        attempted = len(specs) + jobs + 1
        failed = (0 if generated else len(specs)) + jobs_failed + (not replayed)
        return digests, attempted, failed, {}

    return timed, finish


def report_warm_prime(ctx: Context, errors: list):
    specs = [
        s for s in _report_registry() if s.simulated and s.id not in RUNNER_BYPASS
    ]

    def timed():
        _build_all(specs, ctx.run, errors)

    return timed, _prime_finish(ctx)


def _integrity_objects(ctx: Context):
    from repro.chaos import ChaosCampaign
    from repro.dse import DesignSpaceExplorer
    from repro.fleet import FleetSimulator, PopulationModel

    campaign = ChaosCampaign(trials=CHAOS_TRIALS, seed=ctx.seed)
    fleet = FleetSimulator(
        PopulationModel(seed=ctx.seed), run=ctx.run, shard_size=FLEET_SHARD
    )
    explorer = DesignSpaceExplorer(grid=dse_grid(), run=ctx.run)
    return campaign, fleet, explorer


def integrity_fleet(ctx: Context, errors: list):
    from repro.analysis import validation

    campaign, fleet, explorer = _integrity_objects(ctx)
    out = {}
    phase_s = {}

    def phase(name, fn):
        start = time.perf_counter()
        try:
            out[name] = fn()
        except Exception:
            errors.append(traceback.format_exc())
        phase_s[name] = time.perf_counter() - start

    def validate():
        return [
            validation.validate_line_failure(
                trials=VALIDATE_TRIALS, seed=ctx.seed
            ),
            validation.validate_retention_inverse(
                samples=VALIDATE_SAMPLES, seed=1 + ctx.seed
            ),
            validation.validate_refresh_linearity(),
        ]

    def timed():
        phase("chaos", campaign.run)
        phase("validate", validate)
        phase("fleet", lambda: fleet.simulate(FLEET_DEVICES))
        phase("dse", explorer.explore)

    def finish():
        digests = {}
        failed = 0
        if "chaos" in out:
            report = out["chaos"]
            digests["chaos"] = digest([
                report.as_dict(),
                [dataclasses.asdict(r) for r in report.records],
            ])
        else:
            failed += CHAOS_TRIALS
        checks = out.get("validate", [])
        for result in checks:
            digests[f"validate:{result.what}"] = digest(dataclasses.asdict(result))
            if not result.agrees(VALIDATE_TOLERANCE):
                errors.append(f"validation disagrees: {result}")
                failed += 1
        failed += 3 - len(checks)
        if "fleet" in out:
            # codec_backends names the host's codec choice, not a result.
            fleet_report = dict(out["fleet"].as_dict(), codec_backends=None)
            digests["fleet"] = digest(fleet_report)
        else:
            failed += 1
        if "dse" in out:
            digests["dse"] = digest(out["dse"].to_json())
        else:
            failed += 1
        digests["jobs"] = jobs_digest(ctx.runner.outcomes)
        jobs, jobs_failed = ctx.job_ops()
        attempted = CHAOS_TRIALS + 3 + 2 + jobs
        rates = {
            "trials_per_s": CHAOS_TRIALS / phase_s["chaos"],
            "devices_per_s": FLEET_DEVICES / phase_s["fleet"],
        }
        return digests, attempted, failed + jobs_failed, {"rates": rates}

    return timed, finish


def integrity_fleet_prime(ctx: Context, errors: list):
    _, fleet, explorer = _integrity_objects(ctx)

    def timed():
        try:
            ctx.runner.run(fleet.cohort_jobs() + explorer.jobs())
        except Exception:
            errors.append(traceback.format_exc())

    return timed, _prime_finish(ctx)


def _prime_finish(ctx: Context):
    def finish():
        jobs, failed = ctx.job_ops()
        return {}, jobs, failed, {}

    return finish


WORKLOADS = {
    ("sim-cold", "timed"): sim_cold,
    ("report-warm", "timed"): report_warm,
    ("report-warm", "prime"): report_warm_prime,
    ("integrity-fleet", "timed"): integrity_fleet,
    ("integrity-fleet", "prime"): integrity_fleet_prime,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "prime"), default="timed")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="trace this iteration; write spans here")
    args = parser.parse_args()

    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        print(f"iteration: REPRO_* variables must be unset: {leaked}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    from repro.analysis.runner import code_fingerprint
    from repro.ecc.backend import selected_backend
    from repro.report.pipeline import git_revision

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"iteration: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        sys.path.insert(0, str(PERFBENCH))
        import tracing

        tracer = tracing.SpanTracer()
        tracing.install(tracer)

    errors: list[str] = []
    ctx = Context(args)
    timed, finish = WORKLOADS[(args.workload, args.mode)](ctx, errors)

    with HostSpeedSampler() as sampler:
        timed_start = time.monotonic()
        timed()
        timed_s = time.monotonic() - timed_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests, attempted, failed, extra = finish()
    result = {
        "setup_s": timed_start - args.spawned_at,
        "wall_s": timed_s,
        "host_scale": sampler.scale,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "provenance": {
            "git_rev": git_revision(ROOT),
            "code_fingerprint": code_fingerprint(),
            "codec_backend": selected_backend(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "instructions": INSTRUCTIONS,
        },
        **extra,
    }
    if tracer is not None:
        from repro.report.spec import exhibit_ids

        result["layers"] = tracing.layer_metrics(tracer, exhibit_ids())
        tracer.write(args.spans)
    for error in errors:
        print(error, file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(result, stream, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
