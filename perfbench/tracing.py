"""Span tracing for the traced benchmark iteration.

Nothing here runs unless an iteration is started with tracing on: the
untraced iterations never import this module, so they install no
wrappers.  :func:`install` replaces the public entry points of each
``repro`` layer with timing wrappers, set on the class or module
attribute that callers look up at call time.  ``src/`` is not changed.

Two kinds of wrapper:

* **span** — coarse calls (exhibit builds, runner jobs, cache I/O,
  engine runs, trace synthesis, chaos trials, fleet and DSE phases).
  Each call appends ``[name, start, end, parent, attrs]`` to an
  in-memory list; the list is written out when the iteration ends.
* **leaf** — per-access calls in the cycle engine, the codecs and the
  MDT (millions per iteration).  Recording a span for each would cost
  hundreds of MB, so a leaf only adds its call count and duration to a
  per-name total.  A leaf called inside another leaf of the same group
  is not counted twice.

:func:`layer_metrics` turns both into the per-layer metrics named in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Simulated counters summed over non-calibration engine runs.
_DRAM_COUNTERS = ("write_drains", "refresh_windows_hit", "powerdown_exits")

#: Policy kinds reported by ``sim.engine.us_per_record.<kind>``.
POLICY_KINDS = ("baseline", "secded", "ecc6", "mecc", "mecc-smd")


class SpanTracer:
    """In-memory spans plus per-name leaf totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: name -> [calls, seconds, items]
        self.leaves: dict[str, list] = {}
        self._active: set[str] = set()

    def span(self, fn, name, after=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a callable of the call's arguments;
        ``after(args, result)`` returns the span's attributes.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            record = [
                name(args) if callable(name) else name,
                clock(),
                None,
                stack[-1] if stack else -1,
                None,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                record[4] = after(args, result)
            return result

        return wrapper

    def leaf(self, fn, name, group=None, items=None):
        """Wrap ``fn`` so each call adds to the totals of ``name``.

        ``items(args)`` counts work units (e.g. words in a batch).
        """
        group = group or name
        totals = self.leaves.setdefault(name, [0, 0.0, 0])
        active, clock = self._active, self.clock

        def wrapper(*args, **kwargs):
            if group in active:
                return fn(*args, **kwargs)
            active.add(group)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[1] += clock() - start
                totals[0] += 1
                if items is not None:
                    totals[2] += items(args)
                active.discard(group)

        return wrapper

    def generator(self, fn, name):
        """Wrap a generator function; time only the producer's steps."""
        totals = self.leaves.setdefault(name, [0, 0.0, 0])
        clock = self.clock

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            totals[0] += 1

            def timed():
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        totals[1] += clock() - start
                        return
                    totals[1] += clock() - start
                    totals[2] += 1
                    yield item

            return timed()

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line (start/end in seconds)."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                stream.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "attrs": attrs,
                }, sort_keys=True) + "\n")
            stream.write(json.dumps({"leaves": self.leaves}, sort_keys=True) + "\n")


def _policy_kind(policy) -> str:
    from repro.core.policy import Ecc6Policy, MeccPolicy, NoEccPolicy, SecdedPolicy

    if isinstance(policy, MeccPolicy):
        return "mecc-smd" if policy.smd is not None else "mecc"
    if isinstance(policy, Ecc6Policy):
        return "ecc6"
    if isinstance(policy, SecdedPolicy):
        return "secded"
    if isinstance(policy, NoEccPolicy):
        return "baseline"
    return type(policy).__name__


def _engine_attrs(args, result):
    engine, trace = args[0], args[1]
    stats = engine.controller.stats
    return {
        "policy": _policy_kind(engine.policy),
        "records": len(trace.records),
        "row_hits": stats.row_hits,
        "accesses": stats.reads + stats.writes,
        "write_drains": stats.write_drains,
        "refresh_windows_hit": stats.refresh_windows_hit,
        "powerdown_exits": stats.powerdown_exits,
        "downgrades": result.downgrades,
        "strong_decodes": result.strong_decodes,
    }


def _job_descriptions(args, _result):
    return {"jobs": [
        json.dumps(spec.describe(), sort_keys=True, default=str)
        for spec in args[1]
    ]}


def install(tracer: SpanTracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.analysis import runner
    from repro.chaos.campaign import ChaosCampaign
    from repro.core import policy
    from repro.core.mdt import MemoryDowngradeTracker
    from repro.dram.address import AddressMapper
    from repro.dram.controller import MemoryController
    from repro.dse import pareto
    from repro.dse.engine import DesignSpaceExplorer
    from repro.ecc.layout import LineCodec
    from repro.fleet import simulator as fleet
    from repro.functional.memory import FunctionalMemory
    from repro.functional.scrub import PatrolScrubber
    from repro.report import pipeline
    from repro.report.spec import ExhibitSpec
    from repro.sim.engine import SimulationEngine
    from repro.workloads.spec import BenchmarkSpec
    from repro.workloads.synth import SyntheticTraceGenerator

    def wrap(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    # workloads
    wrap(BenchmarkSpec, "trace", lambda f: tracer.span(
        f, "workloads.trace",
        after=lambda a, r: {"key": [a[0].name, a[0].seed, a[1]]}))
    wrap(SyntheticTraceGenerator, "generate", lambda f: tracer.span(
        f, "workloads.generate", after=lambda a, r: {"records": len(r.records)}))
    wrap(SyntheticTraceGenerator, "iter_read_addresses",
         lambda f: tracer.generator(f, "workloads.addr_stream"))
    wrap(MemoryDowngradeTracker, "record_downgrade",
         lambda f: tracer.leaf(f, "core.mdt.record"))

    # cycle engine, DRAM, ECC policy
    wrap(SimulationEngine, "run",
         lambda f: tracer.span(f, "sim.engine.run", after=_engine_attrs))
    wrap(MemoryController, "read",
         lambda f: tracer.leaf(f, "dram.controller.read"))
    wrap(MemoryController, "write_batch",
         lambda f: tracer.leaf(f, "dram.controller.write_batch"))
    wrap(AddressMapper, "locate", lambda f: tracer.leaf(f, "dram.mapper.locate"))
    for cls in (policy.EccPolicy, policy.Ecc6Policy, policy.MeccPolicy):
        for attr in ("on_read", "on_write_batch"):
            if attr in vars(cls):
                wrap(cls, attr, lambda f, attr=attr: tracer.leaf(
                    f, f"core.policy.{attr}"))

    # runner and its cache
    wrap(runner.ExperimentRunner, "run", lambda f: tracer.span(
        f, "runner.run", after=_job_descriptions))
    wrap(runner, "execute_job", lambda f: tracer.span(f, "runner.execute_job"))
    wrap(runner.ResultCache, "load", lambda f: tracer.span(
        f, "runner.cache.load", after=lambda a, r: {"hit": r is not None}))
    wrap(runner.ResultCache, "store", lambda f: tracer.span(f, "runner.cache.store"))

    # report
    wrap(ExhibitSpec, "build", lambda f: tracer.span(
        f, lambda a: f"report.build.{a[0].id}"))
    wrap(pipeline, "render", lambda f: tracer.span(f, "report.render"))

    # codec lanes, functional memory, chaos
    wrap(LineCodec, "decode", lambda f: tracer.leaf(
        f, "ecc.decode", group="ecc.decode"))
    wrap(LineCodec, "decode_batch", lambda f: tracer.leaf(
        f, "ecc.decode_batch", group="ecc.decode", items=lambda a: len(a[1])))
    wrap(LineCodec, "encode", lambda f: tracer.leaf(
        f, "ecc.encode", group="ecc.encode"))
    wrap(LineCodec, "encode_batch", lambda f: tracer.leaf(
        f, "ecc.encode_batch", group="ecc.encode"))
    wrap(FunctionalMemory, "read", lambda f: tracer.leaf(
        f, "functional.read", group="functional.read"))
    wrap(FunctionalMemory, "read_batch", lambda f: tracer.leaf(
        f, "functional.read_batch", group="functional.read"))
    wrap(PatrolScrubber, "scrub_pass", lambda f: tracer.span(
        f, "functional.scrub_pass"))
    wrap(ChaosCampaign, "run_trial", lambda f: tracer.span(f, "chaos.trial"))

    # fleet and DSE
    wrap(fleet.FleetSimulator, "build_profiles",
         lambda f: tracer.span(f, "fleet.profiles"))
    wrap(fleet.FleetSimulator, "simulate_shard",
         lambda f: tracer.span(f, "fleet.shard"))
    wrap(fleet, "merge_aggregates", lambda f: tracer.span(f, "fleet.merge"))
    wrap(DesignSpaceExplorer, "explore", lambda f: tracer.span(
        f, "dse.explore", after=lambda a, r: {"points": len(r.results)}))
    wrap(pareto, "pareto_indices", lambda f: tracer.span(f, "dse.pareto"))
    wrap(pareto, "knee_index", lambda f: tracer.span(f, "dse.knee"))


def layer_metrics(tracer: SpanTracer, exhibit_ids) -> dict[str, float]:
    """Derive every per-layer metric from one traced iteration.

    ``*_s`` metrics are inclusive host seconds of the named calls,
    except ``workloads.calibrate_s`` (trace builds minus their
    ``generate`` child, i.e. the calibration engine runs) and
    ``sim.engine.*``, which leaves calibration runs out.
    """
    spans = tracer.spans
    totals: Counter = Counter()
    counts: Counter = Counter()
    for name, start, end, _parent, _attrs in spans:
        totals[name] += end - start
        counts[name] += 1

    def under_trace(index: int) -> bool:
        parent = spans[index][3]
        while parent != -1:
            if spans[parent][0] == "workloads.trace":
                return True
            parent = spans[parent][3]
        return False

    generate_in_trace = 0.0
    records_generated = 0
    trace_keys = set()
    engine = Counter()
    per_kind_s: Counter = Counter()
    per_kind_records: Counter = Counter()
    submitted = 0
    distinct = set()
    hits = 0
    points = 0
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        if name == "workloads.generate":
            records_generated += attrs["records"]
            if parent != -1 and spans[parent][0] == "workloads.trace":
                generate_in_trace += end - start
        elif name == "workloads.trace":
            trace_keys.add(tuple(attrs["key"]))
        elif name == "sim.engine.run" and attrs is not None and not under_trace(index):
            engine["runs"] += 1
            engine["run_s"] += end - start
            for key in ("records", "row_hits", "accesses", "downgrades",
                        "strong_decodes") + _DRAM_COUNTERS:
                engine[key] += attrs[key]
            per_kind_s[attrs["policy"]] += end - start
            per_kind_records[attrs["policy"]] += attrs["records"]
        elif name == "runner.run" and attrs is not None:
            submitted += len(attrs["jobs"])
            distinct.update(attrs["jobs"])
        elif name == "runner.cache.load" and attrs is not None:
            hits += attrs["hit"]
        elif name == "dse.explore" and attrs is not None:
            points += attrs["points"]

    def leaf(name):
        return tracer.leaves.get(name, [0, 0.0, 0])

    decode, decode_batch = leaf("ecc.decode"), leaf("ecc.decode_batch")
    metrics = {
        "workloads.trace_builds": counts["workloads.trace"],
        "workloads.trace_distinct": len(trace_keys),
        "workloads.generate_s": totals["workloads.generate"],
        "workloads.records_generated": records_generated,
        "workloads.calibrate_s": totals["workloads.trace"] - generate_in_trace,
        "workloads.addr_stream_s": leaf("workloads.addr_stream")[1],
        "core.mdt.record_calls": leaf("core.mdt.record")[0],
        "core.mdt.record_s": leaf("core.mdt.record")[1],
        "sim.engine.runs": engine["runs"],
        "sim.engine.records": engine["records"],
        "sim.engine.run_s": engine["run_s"],
        "dram.controller.read_calls": leaf("dram.controller.read")[0],
        "dram.controller.read_s": leaf("dram.controller.read")[1],
        "dram.controller.write_batch_s": leaf("dram.controller.write_batch")[1],
        "dram.mapper.locate_calls": leaf("dram.mapper.locate")[0],
        "dram.mapper.locate_s": leaf("dram.mapper.locate")[1],
        "dram.row_hit_rate": (
            engine["row_hits"] / engine["accesses"] if engine["accesses"] else 0.0
        ),
        "dram.write_drains": engine["write_drains"],
        "dram.refresh_collisions": engine["refresh_windows_hit"],
        "dram.powerdown_exits": engine["powerdown_exits"],
        "core.policy.on_read_calls": leaf("core.policy.on_read")[0],
        "core.policy.on_read_s": leaf("core.policy.on_read")[1],
        "core.policy.on_write_batch_s": leaf("core.policy.on_write_batch")[1],
        "core.policy.downgrades": engine["downgrades"],
        "core.policy.strong_decodes": engine["strong_decodes"],
        "runner.jobs_submitted": submitted,
        "runner.jobs_executed": counts["runner.execute_job"],
        "runner.jobs_distinct": len(distinct),
        "runner.cache.store_calls": counts["runner.cache.store"],
        "runner.cache.store_s": totals["runner.cache.store"],
        "runner.cache.load_calls": counts["runner.cache.load"],
        "runner.cache.load_s": totals["runner.cache.load"],
        "runner.cache.hits": hits,
        "report.render_s": totals["report.render"],
        "ecc.decode_calls": decode[0] + decode_batch[0],
        "ecc.decode_s": decode[1] + decode_batch[1],
        "ecc.decode_batch_words": decode_batch[2],
        "ecc.encode_s": leaf("ecc.encode")[1] + leaf("ecc.encode_batch")[1],
        "functional.read_s": (
            leaf("functional.read")[1] + leaf("functional.read_batch")[1]
        ),
        "functional.scrub_pass_s": totals["functional.scrub_pass"],
        "chaos.trial_s": totals["chaos.trial"],
        "fleet.profiles_s": totals["fleet.profiles"],
        "fleet.shard_s": totals["fleet.shard"],
        "fleet.merge_s": totals["fleet.merge"],
        "fleet.shards": counts["fleet.shard"],
        "dse.explore_s": totals["dse.explore"],
        "dse.pareto_s": totals["dse.pareto"],
        "dse.knee_s": totals["dse.knee"],
        "dse.points": points,
    }
    for kind in POLICY_KINDS:
        records = per_kind_records[kind]
        metrics[f"sim.engine.us_per_record.{kind}"] = (
            1e6 * per_kind_s[kind] / records if records else 0.0
        )
    for exhibit in exhibit_ids:
        metrics[f"report.build_s.{exhibit}"] = totals[f"report.build.{exhibit}"]
    return metrics
