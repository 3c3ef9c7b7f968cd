"""Command-line interface: regenerate any paper exhibit.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro fig7 --instructions 400000 --jobs 4
    python -m repro all --instructions 200000 --cache-dir ~/.cache/repro
    python -m repro report --exhibits fig7,fig10 --format csv,json --out report
    python -m repro report --exhibits table1,fig2,fig8 --diff report/baseline
    python -m repro VERB --help

Every verb is its own subparser and accepts only its own flags.  The
runner-backed verbs (the exhibits, ``all``, ``report``, ``fidelity``,
``fleet``, ``dse``, ``tune``) route simulations through the
parallel cached experiment runner (:mod:`repro.analysis.runner`):
``--jobs N`` fans independent simulations out over N worker processes,
``--cache-dir`` persists results across invocations (``--no-cache``
disables it).  They share one epilogue: ``--manifest PATH`` writes the
per-job timing/cache manifest as JSON, ``--metrics-out PATH`` the
unified metrics snapshot, and the runner summary table prints last.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable

from repro.analysis.tables import format_table
from repro.report.spec import ExhibitSpec, all_exhibits
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME


def _exhibit_renderer(spec: ExhibitSpec) -> Callable[[ScaledRun], str]:
    def render_fn(run: ScaledRun) -> str:
        data = spec.build(run)
        return format_table(
            list(data.columns),
            [list(row) for row in data.rows],
            title=spec.title,
        )

    return render_fn


#: Exhibit verbs, derived from the repro.report registry: one entry per
#: registered exhibit, rendered as an aligned terminal table.
EXHIBITS: dict[str, tuple[str, Callable[[ScaledRun], str]]] = {
    spec.id: (spec.title, _exhibit_renderer(spec)) for spec in all_exhibits()
}


def _count(text: str) -> int:
    """argparse type: an integer >= 1 (anything else exits 2)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _env(name: str) -> str | None:
    """An environment fallback for a flag default (argparse types it)."""
    return os.environ.get(name) or None


def _parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    instructions = _parent()
    instructions.add_argument(
        "--instructions",
        type=int,
        default=400_000,
        help="instructions per benchmark slice for simulation-backed work "
        "(default 400000; the paper uses 4e9 — see DESIGN.md on scaling)",
    )
    metrics = _parent()
    metrics.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a unified metrics snapshot (see repro.obs.metrics) as "
        "JSON to PATH",
    )
    runner = _parent(metrics)
    runner.set_defaults(uses_runner=True)
    runner.add_argument(
        "--jobs",
        type=_count,
        default=_env("REPRO_JOBS"),
        help="worker processes for simulation jobs "
        "(default: $REPRO_JOBS or 1; results are identical at any value)",
    )
    runner.add_argument(
        "--cache-dir",
        default=_env("REPRO_CACHE_DIR"),
        help="on-disk result-cache directory (default: $REPRO_CACHE_DIR, "
        "else no persistence); keyed by a content hash of trace spec, "
        "policy config, org/timings, and code version",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    runner.add_argument(
        "--manifest",
        default=None,
        help="write the run manifest (per-job wall times, cache hit/miss "
        "counters) to this JSON file",
    )
    campaign = _parent()
    campaign.add_argument(
        "--trials", type=int, default=200, help="trial count (default 200)"
    )
    campaign.add_argument("--seed", type=int, default=0, help="RNG seed")
    grid = _parent()
    grid.add_argument(
        "--grid",
        default=None,
        metavar="AXIS=V,V;...",
        help="sweep grid shorthand like "
        "'ecc=4,6;period=0.256,1.024;threshold=1,2;mdt=512,1024' "
        "(axes: ecc/period/threshold/mdt/policy; default: the built-in "
        "64-point grid — see repro.dse.GridSpec)",
    )
    runs = (instructions, runner)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from the Morphable ECC paper "
        "(DSN 2015).  'repro VERB --help' lists a verb's flags.",
    )
    verbs = parser.add_subparsers(dest="exhibit", metavar="VERB", required=True)

    def verb(name, func, summary, *parents):
        sub = verbs.add_parser(
            name, help=summary, description=summary, parents=list(parents)
        )
        sub.set_defaults(func=func)
        return sub

    verb("list", _list, "enumerate the exhibit verbs")
    for name, (title, _) in sorted(EXHIBITS.items()):
        verb(name, functools.partial(_exhibits, [name]), title, *runs)
    verb("all", functools.partial(_exhibits, sorted(EXHIBITS)),
         "regenerate every exhibit", *runs)

    sub = verb("report", _report, "publication pipeline: a manifest-stamped "
               "artifact tree, optionally diffed against a baseline", *runs)
    sub.add_argument(
        "--exhibits",
        default=None,
        help="comma-separated exhibit subset (default: all)",
    )
    sub.add_argument(
        "--list",
        action="store_true",
        dest="list_exhibits",
        help="enumerate the registered exhibits (id, kind, paper anchor, "
        "cost class) and exit",
    )
    sub.add_argument(
        "--format",
        default=None,
        metavar="FMT,FMT,...",
        help="artifact formats to render — any of csv,json,md,tex "
        "(default: all four)",
    )
    sub.add_argument(
        "--out",
        default="report",
        metavar="DIR",
        help="root output directory; the artifact tree lands in "
        "DIR/<run-id>/ (default: report)",
    )
    sub.add_argument(
        "--run-id",
        default=None,
        help="artifact-tree name under --out (default: a UTC timestamp)",
    )
    sub.add_argument(
        "--diff",
        default=None,
        metavar="BASELINE",
        help="after generating, compare the fresh tree against the "
        "artifact tree at BASELINE with per-cell tolerance bands; exits "
        "nonzero on drift (JSON artifacts required in both trees)",
    )
    sub.add_argument(
        "--fidelity-summary",
        action="store_true",
        help="also evaluate the reduced fidelity claim set and stamp the "
        "digest into the tree manifest",
    )

    sub = verb("trace-gen", _trace_gen, "write a synthetic benchmark trace",
               instructions)
    sub.add_argument(
        "--benchmark",
        default="libq",
        choices=sorted(BENCHMARKS_BY_NAME),
        metavar="NAME",
        help="benchmark to synthesize (default libq; see "
        "repro.workloads.spec)",
    )
    sub.add_argument(
        "--output", "-o", required=True, help="output trace file"
    )

    sub = verb("trace-sim", _trace_sim, "simulate a trace file under one "
               "ECC policy", metrics)
    sub.add_argument("--input", "-i", required=True, help="input trace file")
    sub.add_argument(
        "--policy",
        default="mecc",
        choices=("baseline", "secded", "ecc6", "mecc", "mecc+smd"),
        help="ECC policy (default mecc)",
    )
    sub.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="run with the structured event tracer and runtime invariant "
        "checkers attached, exporting the event stream as JSONL to PATH "
        "(see repro.obs)",
    )

    sub = verb("fault-inject", _fault_inject, "Monte-Carlo codec "
               "fault-injection campaign", campaign)
    sub.add_argument(
        "--mode",
        default="strong",
        choices=("strong", "weak"),
        help="ECC mode under test",
    )
    sub.add_argument(
        "--errors",
        type=int,
        default=None,
        help="fixed bit-flip count per trial "
        "(default: sample at the paper's 1 s BER instead)",
    )

    sub = verb("chaos", _chaos, "control-plane chaos campaign", campaign,
               metrics)
    sub.add_argument(
        "--campaign",
        default="metadata",
        help="a named control-plane campaign (metadata, all) or "
        "comma-separated fault-class names (see repro.chaos.FAULT_CLASSES)",
    )
    sub.add_argument(
        "--no-scrub",
        action="store_true",
        help="disable the patrol-scrub mode-repair mitigation",
    )
    sub.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the conservative MDT idle-fallback mitigation",
    )

    sub = verb("fidelity", _fidelity, "paper-claim conformance gate", *runs)
    sub.add_argument(
        "--claims",
        default=None,
        metavar="ID,ID,...",
        help="evaluate only these claim IDs (see 'repro fidelity "
        "--list-claims')",
    )
    sub.add_argument(
        "--claim-set",
        default="full",
        choices=("reduced", "full"),
        help="named claim set — 'reduced' is the analytic-only CI merge "
        "gate, 'full' adds the simulation-backed claims",
    )
    sub.add_argument(
        "--list-claims",
        action="store_true",
        help="list the registered paper claims and exit",
    )
    sub.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="write the conformance report (per-claim measured value, "
        "relative error, verdict) as JSON to PATH",
    )

    sub = verb("validate", _validate, "analytic-vs-Monte-Carlo cross-checks")
    sub.add_argument(
        "--trials", type=int, default=None,
        help="Monte-Carlo samples (default 40000)",
    )
    sub.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative-error tolerance for agreement (default 0.05)",
    )
    sub.add_argument(
        "--sigma",
        type=float,
        default=4.0,
        help="counting-noise fallback width in sigmas; 0 disables the "
        "fallback so only --tolerance decides (default 4.0)",
    )

    sub = verb("fleet", _fleet, "fleet-scale population study", *runs)
    sub.add_argument(
        "--mix",
        default=None,
        metavar="NAME:W,...",
        help="persona mix like 'light:0.45,moderate:0.35,heavy:0.2' "
        "(default: the built-in mix; see repro.fleet.population)",
    )
    sub.add_argument(
        "--fleet-seed",
        type=int,
        default=0,
        help="population sampling seed (same seed, same fleet, at any "
        "shard size)",
    )
    sub.add_argument(
        "--shard-size",
        type=_count,
        default=100_000,
        help="devices per aggregation shard (default 100000; aggregates "
        "are invariant to this)",
    )
    sub.add_argument(
        "--schemes",
        default=None,
        metavar="S,S,...",
        help="comma-separated policy schemes to evaluate per device "
        "(default baseline,secded,mecc)",
    )
    sub.add_argument(
        "--devices",
        type=_count,
        default=100_000,
        help="population size to simulate (default 100000; the sharded "
        "streaming aggregation makes 1M+ routine)",
    )
    sub.add_argument(
        "--output", "-o", default=None,
        help="write the fleet report as JSON to this file",
    )

    sub = verb("dse", _dse, "design-space exploration: Pareto frontier + "
               "knee report", grid, *runs)
    sub.add_argument(
        "--benchmarks",
        default=None,
        metavar="NAME,NAME,...",
        help="workload mix scored at every operating point "
        "(default povray,libq)",
    )
    sub.add_argument(
        "--idle-fraction",
        type=float,
        default=None,
        help="fraction of the device-day spent idle (default 0.95)",
    )
    sub.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="active bursts per device-day (default 60)",
    )
    sub.add_argument(
        "--frontier-out",
        default=None,
        metavar="PATH",
        help="write the full frontier report as canonical JSON "
        "(byte-identical across --jobs values)",
    )

    sub = verb("tune", _tune, "learned per-workload operating-point tuner",
               grid, *runs)
    sub.add_argument(
        "--slowdown-cap",
        type=float,
        default=0.05,
        help="max slowdown an operating point may impose to be eligible "
        "as a workload's best (default 0.05, the fleet ipc_floor)",
    )
    sub.add_argument(
        "--personas",
        default=None,
        metavar="NAME,NAME,...",
        help="personas to sweep as training workloads "
        "(default: every registered persona; see repro.workloads.personas)",
    )
    sub.add_argument(
        "--tuner-out",
        default=None,
        metavar="PATH",
        help="write the fitted tuner (samples + feature bounds) as JSON "
        "to PATH",
    )
    sub.add_argument(
        "--knn",
        type=int,
        default=1,
        help="nearest-neighbour count for the operating-point vote "
        "(default 1 — exact on the training set)",
    )
    return parser


def _list(args, metrics) -> int:
    print(format_table(
        ["name", "exhibit"], [[k, v[0]] for k, v in EXHIBITS.items()]
    ))
    return 0


def _exhibits(names, args, metrics) -> int:
    run = ScaledRun(instructions=args.instructions)
    for name in names:
        print(EXHIBITS[name][1](run))
        print()
    return 0


def _trace_gen(args, metrics) -> int:
    from repro.workloads.trace import write_trace

    trace = BENCHMARKS_BY_NAME[args.benchmark].trace(args.instructions)
    with open(args.output, "w", encoding="ascii") as stream:
        write_trace(trace, stream)
    print(f"wrote {len(trace)} records ({trace.instructions} instructions, "
          f"MPKI {trace.mpki:.2f}) to {args.output}")
    return 0


def _trace_sim(args, metrics) -> int:
    from repro.sim.engine import SimulationEngine
    from repro.sim.system import SystemConfig
    from repro.workloads.trace import read_trace

    with open(args.input, encoding="ascii") as stream:
        trace = read_trace(stream)
    config = SystemConfig()
    tracer = invariants = None
    if args.trace or args.metrics_out:
        from repro.obs import EventTracer, default_invariant_suite

        tracer = EventTracer()
        invariants = default_invariant_suite(tolerant=True)
    engine = SimulationEngine(
        policy=config.policy_by_name(args.policy),
        tracer=tracer,
        invariants=invariants,
    )
    result = engine.run(trace)
    print(format_table(
        ["metric", "value"],
        [
            ["trace", trace.name],
            ["policy", args.policy],
            ["instructions", result.instructions],
            ["cycles", result.cycles],
            ["IPC", result.ipc],
            ["MPKI", result.mpki],
            ["avg read latency (cycles)", result.avg_read_latency],
            ["downgrades", result.downgrades],
            ["energy (J)", result.energy.total],
        ],
        title=f"trace-sim: {args.input}",
    ))
    if args.trace:
        count = tracer.export_jsonl(args.trace)
        print(f"wrote {count} trace events to {args.trace} "
              f"({tracer.dropped} dropped by the ring buffer)")
    if invariants is not None:
        summary = invariants.summary()
        print(f"invariants: {summary['evaluations']} evaluations, "
              f"{summary['violations']} violations")
    if args.metrics_out:
        metrics.record_sim_result(result)
        metrics.record_controller_stats(engine.controller.stats)
        metrics.record_tracer(tracer)
        metrics.record_invariants(invariants)
    return 0


def _fault_inject(args, metrics) -> int:
    from repro.errors import ConfigurationError
    from repro.reliability.faults import FaultInjectionCampaign
    from repro.reliability.retention import BER_AT_1S
    from repro.types import EccMode

    mode = EccMode.STRONG if args.mode == "strong" else EccMode.WEAK
    campaign = FaultInjectionCampaign(seed=args.seed)
    try:
        if args.errors is not None:
            stats = campaign.run_fixed_errors(mode, args.errors, args.trials)
            what = f"{args.errors} fixed errors"
        else:
            stats = campaign.run_ber(mode, BER_AT_1S, args.trials)
            what = f"BER {BER_AT_1S:.2e} (the paper's 1 s operating point)"
    except ConfigurationError as exc:
        print(f"fault-inject: {exc}", file=sys.stderr)
        return 2
    print(format_table(
        ["outcome", "count"],
        sorted(((k.value, v) for k, v in stats.outcomes.items())),
        title=(
            f"fault-inject: {args.trials} trials, {args.mode} mode, {what}; "
            f"silent-corruption rate {stats.silent_corruption_rate:.4f}"
        ),
    ))
    return 0


def _chaos(args, metrics) -> int:
    from repro.chaos import CAMPAIGNS, ChaosCampaign, resolve_classes
    from repro.errors import ConfigurationError

    names = CAMPAIGNS.get(args.campaign)
    if names is None:
        names = tuple(n.strip() for n in args.campaign.split(",") if n.strip())
    try:
        classes = resolve_classes(names)
        campaign = ChaosCampaign(
            classes=classes,
            trials=args.trials,
            seed=args.seed,
            scrub=not args.no_scrub,
            conservative=not args.no_fallback,
        )
    except ConfigurationError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    report = campaign.run()
    print(report.render_table())
    metrics.record_chaos(report)
    return 0


def _validate(args, metrics) -> int:
    """Run the analytic-vs-Monte-Carlo cross-checks; nonzero on disagreement."""
    from repro.analysis.validation import run_all_validations

    trials = args.trials if args.trials is not None else 40_000
    samples = args.trials if args.trials is not None else 50_000
    results = run_all_validations(trials=trials, samples=samples)
    failed = []
    rows = []
    for result in results:
        ok = result.agrees(args.tolerance, sigmas=args.sigma)
        rows.append([
            result.what, result.analytic, result.empirical,
            result.relative_error, "PASS" if ok else "FAIL",
        ])
        if not ok:
            failed.append(result.what)
    print(format_table(
        ["check", "analytic", "empirical", "rel err", "verdict"],
        rows,
        title=(
            f"model validation (tolerance {args.tolerance:g}, "
            f"sigma {args.sigma:g})"
        ),
    ))
    for what in failed:
        print(f"DISAGREEMENT: {what}", file=sys.stderr)
    return 1 if failed else 0


def _fidelity(args, metrics) -> int:
    """Evaluate registered paper claims; nonzero when any band is exceeded."""
    import json as _json

    from repro.errors import ConfigurationError
    from repro.fidelity import (
        CLAIMS,
        claims_in_set,
        evaluate_claims,
        resolve_claims,
    )

    if args.list_claims:
        print(format_table(
            ["id", "kind", "source", "expected", "band"],
            [[c.id, c.kind, c.source, c.expected, f"[{c.low:g}, {c.high:g}]"]
             for c in CLAIMS.values()],
            title=f"registered paper claims ({len(CLAIMS)})",
        ))
        return 0
    try:
        if args.claims:
            ids = [part.strip() for part in args.claims.split(",") if part.strip()]
            claims = resolve_claims(ids)
        else:
            claims = claims_in_set(args.claim_set)
    except ConfigurationError as exc:
        print(f"fidelity: {exc}", file=sys.stderr)
        return 2
    report = evaluate_claims(
        [c.id for c in claims], ScaledRun(instructions=args.instructions)
    )
    print(report.render_table())
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as stream:
            _json.dump(report.as_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote conformance report to {args.report_json}")
    metrics.record_fidelity(report)
    return 0 if report.passed else 1


def _fleet(args, metrics) -> int:
    """Simulate a persona-mixed device fleet; print the summary table."""
    from repro.errors import ConfigurationError
    from repro.fleet import FleetSimulator, PopulationModel, parse_mix

    try:
        mix = parse_mix(args.mix) if args.mix else None
        population = PopulationModel(mix=mix, seed=args.fleet_seed)
        kwargs = {"run": ScaledRun(instructions=args.instructions)}
        schemes = tuple(
            s.strip() for s in (args.schemes or "").split(",") if s.strip()
        )
        if schemes:
            kwargs["schemes"] = schemes
        simulator = FleetSimulator(
            population, shard_size=args.shard_size, **kwargs
        )
        report = simulator.simulate(args.devices)
    except ConfigurationError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    summary = report.summary()
    print(format_table(
        ["metric", "value"],
        [[k, v] for k, v in summary.items()],
        title=(
            f"fleet: {report.devices} devices, {report.shards} shard(s), "
            f"seed {simulator.population.seed}"
        ),
    ))
    if args.output:
        import json as _json

        with open(args.output, "w", encoding="utf-8") as stream:
            _json.dump(report.as_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote fleet report to {args.output}")
    metrics.record_fleet(report)
    return 0


def _report(args, metrics) -> int:
    """The publication pipeline verb.

    ``--list`` enumerates the registry; otherwise a manifest-stamped
    artifact tree is generated under ``--out/<run-id>/`` and, with
    ``--diff``, compared against a baseline tree (nonzero exit on drift).
    """
    from repro.errors import ConfigurationError
    from repro.report import (
        ReportPipeline,
        diff_trees,
        load_manifest,
        resolve_exhibits,
    )

    if args.list_exhibits:
        try:
            specs = resolve_exhibits(args.exhibits)
        except ConfigurationError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        print(format_table(
            ["id", "kind", "anchor", "cost", "title"],
            [[s.id, s.kind, s.paper_anchor,
              "simulated" if s.simulated else "analytic", s.title]
             for s in specs],
            title=f"registered exhibits ({len(specs)})",
        ))
        return 0

    try:
        if args.diff:
            load_manifest(args.diff)  # a bad baseline fails before the build
        pipeline = ReportPipeline(
            out_dir=args.out,
            run_id=args.run_id,
            formats=args.format,
            run=ScaledRun(instructions=args.instructions),
            fidelity=args.fidelity_summary,
        )
        tree = pipeline.generate(args.exhibits)
        print(f"wrote artifact tree to {tree}")
        if not args.diff:
            return 0
        result = diff_trees(tree, args.diff, exhibits=args.exhibits)
    except ConfigurationError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return 0 if result.clean else 1


def _build_grid(args):
    """The sweep grid from --grid shorthand (or the built-in default)."""
    from repro.dse import GridSpec, parse_grid

    return parse_grid(args.grid) if args.grid else GridSpec()


def _dse(args, metrics) -> int:
    """Design-space exploration: score a grid, print frontier + knee."""
    from repro.dse import DesignSpaceExplorer, PAPER_POINT
    from repro.errors import ConfigurationError

    try:
        grid = _build_grid(args)
        kwargs = {}
        if args.benchmarks:
            kwargs["benchmarks"] = tuple(
                b.strip() for b in args.benchmarks.split(",") if b.strip()
            )
        if args.idle_fraction is not None:
            kwargs["idle_fraction"] = args.idle_fraction
        if args.sessions is not None:
            kwargs["sessions_per_day"] = args.sessions
        explorer = DesignSpaceExplorer(
            grid=grid,
            run=ScaledRun(instructions=args.instructions),
            **kwargs,
        )
        report = explorer.explore()
    except ConfigurationError as exc:
        print(f"dse: {exc}", file=sys.stderr)
        return 2
    frontier = set(report.frontier_keys)
    rows = [
        [
            r.point.key(),
            f"{r.energy_j_day:.2f}",
            f"{r.slowdown:.4f}",
            f"{r.failure_prob_day:.3e}",
            ("knee" if r.point.key() == report.knee_key
             else "frontier" if r.point.key() in frontier else ""),
        ]
        for r in report.results
    ]
    print(format_table(
        ["operating point", "energy J/day", "slowdown", "p(fail)/day", ""],
        rows,
        title=(
            f"dse: {len(report.results)}-point grid, "
            f"{len(frontier)} on frontier, {report.sim_jobs} sim jobs"
        ),
    ))
    summary = report.summary()
    print(format_table(
        ["metric", "value"],
        [[k, v] for k, v in summary.items()],
        title=f"knee: {report.knee_key} "
        f"(paper point {PAPER_POINT.key()})",
    ))
    if args.frontier_out:
        with open(args.frontier_out, "w", encoding="utf-8") as stream:
            stream.write(report.to_json())
        print(f"wrote frontier report to {args.frontier_out}")
    metrics.record_dse(report)
    return 0


def _tune(args, metrics) -> int:
    """Train and evaluate the per-workload tuner."""
    from repro.dse import train_tuner
    from repro.dse.tuner import WorkloadFeatures
    from repro.errors import ConfigurationError
    from repro.workloads.personas import ALL_PERSONAS, ALL_PERSONAS_BY_NAME

    try:
        grid = _build_grid(args)
        if args.personas:
            names = [p.strip() for p in args.personas.split(",") if p.strip()]
            unknown = sorted(set(names) - set(ALL_PERSONAS_BY_NAME))
            if unknown:
                raise ConfigurationError(
                    f"unknown personas: {', '.join(unknown)}; choose from "
                    f"{', '.join(sorted(ALL_PERSONAS_BY_NAME))}"
                )
            personas = tuple(ALL_PERSONAS_BY_NAME[n] for n in names)
        else:
            personas = ALL_PERSONAS
        tuner, reports = train_tuner(
            grid=grid,
            personas=personas,
            run=ScaledRun(instructions=args.instructions),
            k=args.knn,
            slowdown_cap=args.slowdown_cap,
        )
    except ConfigurationError as exc:
        print(f"tune: {exc}", file=sys.stderr)
        return 2
    card = tuner.report_card()
    print(format_table(
        ["workload", "best point", "LOO prediction", "hit", "regret"],
        [
            [row["workload"], row["best"], row["predicted"],
             "yes" if row["hit"] else "no", f"{row['regret']:.4f}"]
            for row in card
        ],
        title=(
            f"tuner report card: {len(tuner.samples)} workloads, "
            f"k={tuner.k}, grid {grid.size} points"
        ),
    ))
    hits = sum(1 for row in card if row["hit"])
    mean_regret = sum(row["regret"] for row in card) / len(card)
    print(f"leave-one-out: {hits}/{len(card)} exact, "
          f"mean regret {mean_regret:.4f}")
    for persona in sorted(personas, key=lambda p: p.name):
        predicted = tuner.predict(WorkloadFeatures.from_persona(persona))
        print(f"  {persona.name}: {predicted}")
    if args.tuner_out:
        print(f"wrote tuner to {tuner.save(args.tuner_out)}")
    metrics.record_tuner(tuner)
    return 0


def _configure_runner(args):
    """Install the process-wide experiment runner from the runner flags."""
    from repro.analysis.runner import configure_runner

    return configure_runner(
        jobs=args.jobs or 1,
        cache_dir=None if args.no_cache else args.cache_dir,
    )


def _epilogue(args, runner, metrics) -> None:
    """Shared tail of every verb: manifest, metrics snapshot, runner summary."""
    from repro.analysis.runner import render_runner_summary

    if runner is not None:
        if args.manifest:
            runner.write_manifest(args.manifest)
            print(f"wrote run manifest to {args.manifest}")
        metrics.record_runner(runner)
    if getattr(args, "metrics_out", None):
        metrics.write_json(args.metrics_out)
        print(f"wrote {len(metrics)} metrics to {args.metrics_out}")
    summary = render_runner_summary(runner) if runner is not None else ""
    if summary:
        print(summary)


def main(argv: list[str] | None = None) -> int:
    from repro.obs import MetricsRegistry

    args = build_parser().parse_args(argv)
    runner = _configure_runner(args) if getattr(args, "uses_runner", False) else None
    metrics = MetricsRegistry()
    status = args.func(args, metrics)
    if status in (0, 1):
        _epilogue(args, runner, metrics)
    return status


if __name__ == "__main__":
    sys.exit(main())
