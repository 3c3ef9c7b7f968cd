"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-cold --seed 0 --seconds 30 --trace 0

Each iteration runs in a fresh interpreter (``perfbench/iteration.py``)
with ``jobs=1``, no pool and no dispatch workers.  Iterations repeat
until ``--seconds`` have passed (at least three untraced ones); every
reported figure is the median over the iterations.  With ``--trace 1``
traced and untraced iterations alternate, and the per-layer metrics come
from the traced ones.  Outputs are checked against each other and, for
seeds listed in ``perfbench/reference.json``, against the committed
digests.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--write-reference`` instead runs one iteration and records its output
digests as the reference for that workload and seed.  See
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
REFERENCE = PERFBENCH / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("sim-cold", "report-warm", "integrity-fleet")
PRIMED = ("report-warm", "integrity-fleet")

#: Untraced iterations per run, at least (medians need three).
MIN_ITERATIONS = 3
#: Kill an iteration (or priming) that takes longer than this.
ITERATION_TIMEOUT_S = 60.0
#: A run, priming included, ends within this many seconds: no iteration
#: starts unless a whole ITERATION_TIMEOUT_S still fits.
RUN_CAP_S = 170.0

#: Units of the figures printed only in the summary.
SUMMARY_UNITS = {"wall_s": "s", "host_scale": "ratio", "ops_failed_frac": "ratio",
                 "trials_per_s": "1/s", "devices_per_s": "1/s"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    """The parent's environment, REPRO_* scrubbed and hashing pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, mode, cache_dir, out, spans=None) -> dict | None:
    """Run one iteration; returns its result, or None if it crashed."""
    cmd = [
        sys.executable, str(PERFBENCH / "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--cache-dir", str(cache_dir), "--out", str(out),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=sys.stderr, timeout=ITERATION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"iteration timed out: {workload} {mode}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"iteration failed ({proc.returncode}): {workload} {mode}",
              file=sys.stderr)
        return None
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def compare_digests(results, reference):
    """Count digest checks and mismatches across iterations and reference."""
    expected = reference if reference is not None else results[0]["digests"]
    checks = mismatches = 0
    for result in results:
        digests = result["digests"]
        for name in sorted(set(expected) | set(digests)):
            checks += 1
            if digests.get(name) != expected.get(name):
                mismatches += 1
                print(f"output mismatch: {name}", file=sys.stderr)
    return checks, mismatches


def figures(result) -> dict[str, float]:
    """One iteration's figures; ``*_ref_s`` and rates at reference speed."""
    scale = result["host_scale"]
    return {
        "wall_ref_s": result["wall_s"] * scale,
        "wall_s": result["wall_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "host_scale": scale,
        **{name: rate / scale for name, rate in result.get("rates", {}).items()},
    }


def medians(rows: list[dict]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def layer_report(untraced, traced, units) -> dict[str, float]:
    """Per-layer medians over the traced iterations, times rescaled."""
    rows = []
    for result in traced:
        scale = result["host_scale"]
        rows.append({
            name: value * scale if units.get(name) in ("s", "us") else value
            for name, value in result["layers"].items()
        })
    metrics = medians(rows)
    plain = medians([figures(r) for r in untraced])
    with_trace = medians([figures(r) for r in traced])
    metrics["bench.trace_overhead"] = (
        with_trace["wall_ref_s"] / plain["wall_ref_s"] - 1.0
    )
    metrics["chaos.trials_per_s"] = plain.get("trials_per_s", 0.0)
    metrics["fleet.devices_per_s"] = plain.get("devices_per_s", 0.0)
    return metrics


def print_table(title, metrics, units):
    print(title)
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def prime(workload, seed, cache, work) -> bool:
    """Fill ``cache`` with the workload's runner jobs (untimed)."""
    if workload not in PRIMED:
        return True
    result = spawn(workload, seed, "prime", cache, work / "prime.json")
    if result is None or result["failed"]:
        print(f"priming failed: {workload}", file=sys.stderr)
        return False
    return True


def write_reference(workload, seed, work) -> int:
    cache = work / "cache"
    if not prime(workload, seed, cache, work):
        return 1
    result = spawn(workload, seed, "timed", cache, work / "it.json")
    if result is None or result["failed"]:
        print("reference run failed; nothing written", file=sys.stderr)
        return 1
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) \
        if REFERENCE.is_file() else {}
    reference.setdefault(workload, {})[str(seed)] = result["digests"]
    REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(result['digests'])} digests for {workload} seed {seed}")
    return 0


def measure(args, work, started) -> int:
    shared_cache = work / "cache"
    if not prime(args.workload, args.seed, shared_cache, work):
        return 1
    spans_dir = ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
    untraced, traced = [], []
    crashed = 0
    minimum = 1 if args.trace else MIN_ITERATIONS
    passes = [(untraced, None)] + ([(traced, spans)] if args.trace else [])
    start = time.monotonic()
    while True:
        now = time.monotonic()
        if now + len(passes) * ITERATION_TIMEOUT_S > started + RUN_CAP_S:
            break
        done = len(untraced) >= minimum and (not args.trace or traced)
        if now - start >= args.seconds and done:
            break
        for bucket, trace_out in passes:
            index = len(untraced) + len(traced) + crashed
            cache = shared_cache
            if args.workload not in PRIMED:
                # sim-cold: every iteration starts from an empty cache.
                cache = work / f"cold-{index}" / "cache"
            result = spawn(
                args.workload, args.seed, "timed", cache,
                work / f"it-{index}.json", trace_out,
            )
            if result is None:
                crashed += 1
            else:
                bucket.append(result)
                print(
                    f"iteration {index}{' traced' if trace_out else ''}: "
                    f"wall_s {result['wall_s']:.4f} host_scale "
                    f"{result['host_scale']:.4f} setup_s {result['setup_s']:.4f}",
                    file=sys.stderr,
                )
            if cache is not shared_cache:
                shutil.rmtree(cache.parent, ignore_errors=True)
    if len(untraced) < minimum or (args.trace and not traced):
        print("too few successful iterations", file=sys.stderr)
        return 1

    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(
            args.workload, {}
        ).get(str(args.seed))
    results = untraced + traced
    checks, mismatches = compare_digests(results, reference)
    attempted = sum(r["attempted"] for r in results) + checks + crashed
    failed = sum(r["failed"] for r in results) + mismatches + crashed

    end_units = metric_units("end_to_end")
    plain = medians([figures(r) for r in untraced])
    end_to_end = {name: plain[name] for name in end_units}
    provenance = dict(
        untraced[0]["provenance"],
        seed=args.seed,
        runs=len(untraced),
        traced_runs=len(traced),
        reference_checked=reference is not None,
    )
    print(f"workload {args.workload}: {json.dumps(provenance, sort_keys=True)}")
    print_table("end-to-end (median, tracing off)", end_to_end, end_units)
    summary = {name: plain[name] for name in SUMMARY_UNITS if name in plain}
    summary["ops_failed_frac"] = failed / attempted
    print_table("summary", summary, SUMMARY_UNITS)
    values, units = end_to_end, end_units
    if args.trace:
        units = metric_units("per_layer")
        layers = layer_report(untraced, traced, units)
        if set(units) != set(layers):
            print("per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(layers))}", file=sys.stderr)
            return 1
        values = {name: layers[name] for name in units}
        print_table("per-layer (median, traced)", values, units)
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    print(json.dumps({
        "correct": mismatches == 0 and crashed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(args.workload, args.seed, work)
        return measure(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
