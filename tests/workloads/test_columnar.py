"""The columnar trace against frozen copies of the record-list code.

``Trace`` keeps gaps, op flags and addresses as typed columns and builds
:class:`TraceRecord` objects only on demand.  The oracles below are the
record-list generator and calibration loop as they were before the
columns, kept verbatim apart from their names: the columnar versions must
reproduce them for all 28 benchmarks.
"""

from __future__ import annotations

import io
import random
from array import array

import pytest

from repro.core.policy import NoEccPolicy
from repro.errors import TraceError
from repro.sim.engine import simulate
from repro.types import MemoryOp, TraceRecord
from repro.workloads import spec as spec_module
from repro.workloads.spec import ALL_BENCHMARKS, _calibrate_cpi
from repro.workloads.synth import HOT_HIT_FRACTION, LINE_BYTES, STREAM_RUN_MEAN
from repro.workloads.trace import Trace, read_trace, write_trace

INSTRUCTIONS = 50_000
#: Longer than the 200k-instruction calibration prefix.
LONG_INSTRUCTIONS = 250_000


def _record_list_generate(generator, instructions: int) -> list[TraceRecord]:
    """``SyntheticTraceGenerator.generate`` as a record list (frozen)."""
    self = generator
    ws_bytes = self.working_set_bytes or self.footprint_bytes
    ws_bytes = min(ws_bytes, self.footprint_bytes)
    extents = self._segment_extents(ws_bytes)
    rng = random.Random(self.seed)
    records: list[TraceRecord] = []
    recent: list[int] = []
    stream_positions = [start for start, _ in extents]
    stream_segment = 0
    stream_left = 0
    instrs_done = 0
    for phase in self.phases:
        phase_budget = int(round(instructions * phase.weight))
        if phase.intensity <= 0:
            instrs_done += phase_budget
            continue
        mean_gap = max(1.0, 1000.0 / (self.mpki * phase.intensity) - 1.0)
        phase_done = 0
        while phase_done < phase_budget:
            gap = min(
                int(rng.expovariate(1.0 / mean_gap) + 0.5),
                phase_budget - phase_done,
            )
            phase_done += gap + 1
            if stream_left > 0:
                stream_left -= 1
                stream_segment_idx = stream_segment
                start, count = extents[stream_segment_idx]
                pos = stream_positions[stream_segment_idx]
                line = start + (pos - start + 1) % count
                stream_positions[stream_segment_idx] = line
            elif rng.random() < self.stream_fraction:
                stream_segment = rng.randrange(len(extents))
                stream_left = max(0, int(rng.expovariate(1.0 / STREAM_RUN_MEAN)) - 1)
                start, count = extents[stream_segment]
                pos = stream_positions[stream_segment]
                line = start + (pos - start + 1) % count
                stream_positions[stream_segment] = line
            else:
                start, count = extents[rng.randrange(len(extents))]
                if rng.random() < HOT_HIT_FRACTION:
                    hot = max(1, count // 5)
                    line = start + rng.randrange(hot)
                else:
                    line = start + rng.randrange(count)
            records.append(
                TraceRecord(gap=gap, op=MemoryOp.READ, address=line * LINE_BYTES)
            )
            recent.append(line)
            if len(recent) > 64:
                recent.pop(0)
            if recent and rng.random() < self.write_fraction:
                victim = recent[rng.randrange(len(recent))]
                records.append(
                    TraceRecord(gap=0, op=MemoryOp.WRITE, address=victim * LINE_BYTES)
                )
        instrs_done += phase_done
    return records


def _record_list_calibrate(trace: Trace, target_ipc: float) -> float:
    """``_calibrate_cpi`` copying records into a new trace per pass (frozen)."""
    prefix_records = []
    instrs = 0
    for record in trace.records:
        prefix_records.append(record)
        instrs += record.gap + 1
        if instrs >= spec_module._CALIBRATION_PREFIX_INSTRUCTIONS:
            break
    cpi = trace.nonmem_cpi
    target_cycles_per_instr = 1.0 / target_ipc
    for _ in range(spec_module._CALIBRATION_PASSES):
        prefix = Trace(name=trace.name, records=prefix_records, nonmem_cpi=cpi)
        result = simulate(prefix, NoEccPolicy())
        measured = result.cycles / result.instructions
        cpi = max(0.5, cpi + (target_cycles_per_instr - measured))
    return cpi


@pytest.fixture
def construction_counter(monkeypatch):
    """Counts :class:`TraceRecord` constructions while the test runs."""
    built = []
    original = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    return built


BENCHMARK_IDS = [b.name for b in ALL_BENCHMARKS]


class TestGeneratorMatchesRecordList:
    @pytest.mark.parametrize("bench_spec", ALL_BENCHMARKS, ids=BENCHMARK_IDS)
    def test_generate_matches_frozen_generator(self, bench_spec):
        generator = bench_spec.generator(INSTRUCTIONS)
        trace = generator.generate(INSTRUCTIONS)
        assert list(trace.records) == _record_list_generate(generator, INSTRUCTIONS)
        assert trace.nonmem_cpi == generator.nonmem_cpi
        assert trace.name == bench_spec.name


class TestCalibrationMatchesRecordList:
    @pytest.mark.parametrize("instructions", [INSTRUCTIONS, LONG_INSTRUCTIONS])
    def test_all_benchmarks(self, instructions):
        shorter_prefixes = 0
        for bench_spec in ALL_BENCHMARKS:
            trace = bench_spec.trace(instructions, calibrate=False)
            expected = _record_list_calibrate(trace, bench_spec.ipc)
            assert _calibrate_cpi(trace, bench_spec.ipc) == expected, bench_spec.name
            if trace.instructions > spec_module._CALIBRATION_PREFIX_INSTRUCTIONS:
                shorter_prefixes += 1
        if instructions == LONG_INSTRUCTIONS:
            # The prefix view must be exercised shorter than its trace.
            assert shorter_prefixes == len(ALL_BENCHMARKS)

    def test_calibrated_trace_matches(self):
        bench_spec = ALL_BENCHMARKS[-1]
        trace = bench_spec.trace(INSTRUCTIONS)
        raw = bench_spec.trace(INSTRUCTIONS, calibrate=False)
        assert trace.nonmem_cpi == _record_list_calibrate(raw, bench_spec.ipc)


class TestColumns:
    def test_round_trip_through_text(self):
        trace = ALL_BENCHMARKS[20].trace(INSTRUCTIONS)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        assert loaded == trace
        assert loaded.records == trace.records

    def test_negative_gap_or_address_rejected(self):
        with pytest.raises(ValueError):
            Trace("x", [TraceRecord(gap=-1, op=MemoryOp.READ, address=0)])
        with pytest.raises(ValueError):
            Trace("x", [TraceRecord(gap=0, op=MemoryOp.READ, address=-64)])
        with pytest.raises(TraceError, match="gap must be non-negative"):
            read_trace(io.StringIO("-1 R 0x40\n"))
        with pytest.raises(TraceError, match="address must be non-negative"):
            read_trace(io.StringIO("1 R -0x40\n"))
        with pytest.raises(ValueError):
            Trace.from_columns("x", array("q", [1]), b"\x00", array("q", [-64]))
        with pytest.raises(ValueError):
            Trace.from_columns("x", array("q", [-1]), b"\x00", array("q", [64]))

    def test_from_columns_rejects_unequal_lengths(self):
        trace = Trace("x", [TraceRecord(gap=1, op=MemoryOp.READ, address=64)])
        with pytest.raises(TraceError):
            Trace.from_columns("x", trace.gaps, b"", trace.addresses)

    def test_records_view(self):
        records = [
            TraceRecord(gap=3, op=MemoryOp.READ, address=0x40),
            TraceRecord(gap=0, op=MemoryOp.WRITE, address=0x80),
            TraceRecord(gap=7, op=MemoryOp.READ, address=0xC0),
        ]
        trace = Trace("v", records, nonmem_cpi=0.9)
        view = trace.records
        assert len(view) == 3
        assert view[1] == records[1]
        assert view[-1] == records[-1]
        assert view[1:] == records[1:]
        assert list(view) == records
        assert view == records
        assert (trace.reads, trace.writes, trace.instructions) == (2, 1, 12)

    def test_len_and_stats_build_no_records(self, construction_counter):
        trace = ALL_BENCHMARKS[20].trace(INSTRUCTIONS)
        assert len(trace.records) == len(trace) > 0
        _ = (trace.instructions, trace.reads, trace.writes, trace.mpki)
        _ = (trace.footprint_bytes(), trace.unique_pages())
        simulate(trace, NoEccPolicy())
        assert construction_counter == []

    def test_memoized_trace_holds_no_records(self, construction_counter):
        from repro.analysis.runner import clear_trace_memo, trace_for

        clear_trace_memo()
        try:
            trace = trace_for(ALL_BENCHMARKS[3], INSTRUCTIONS)
            simulate(trace, NoEccPolicy())
        finally:
            clear_trace_memo()
        assert construction_counter == []
        assert not any(
            isinstance(value, (list, TraceRecord)) for value in vars(trace).values()
        )
