"""Tests for the synthetic trace generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.types import MemoryOp
from repro.workloads.spec import ALL_BENCHMARKS
from repro.workloads.synth import (
    LINE_BYTES,
    STREAM_RUN_MEAN,
    Phase,
    SyntheticTraceGenerator,
)


def make_generator(**kwargs):
    defaults = dict(
        name="test",
        mpki=10.0,
        target_ipc=0.8,
        footprint_bytes=4 << 20,
        seed=1,
    )
    defaults.update(kwargs)
    return SyntheticTraceGenerator(**defaults)


class TestStatistics:
    def test_mpki_close_to_target(self):
        trace = make_generator(mpki=10.0).generate(200_000)
        assert trace.mpki == pytest.approx(10.0, rel=0.08)

    def test_low_mpki(self):
        trace = make_generator(mpki=0.5).generate(400_000)
        assert trace.mpki == pytest.approx(0.5, rel=0.25)

    def test_write_fraction(self):
        trace = make_generator(write_fraction=0.5).generate(200_000)
        assert trace.writes / trace.reads == pytest.approx(0.5, rel=0.1)

    def test_zero_write_fraction(self):
        trace = make_generator(write_fraction=0.0).generate(50_000)
        assert trace.writes == 0

    def test_instruction_budget_met(self):
        trace = make_generator().generate(100_000)
        assert trace.instructions == pytest.approx(100_000, rel=0.02)

    def test_footprint_respects_working_set(self):
        generator = make_generator(working_set_bytes=64 * 1024)
        trace = generator.generate(300_000)
        assert trace.footprint_bytes() <= 64 * 1024 + 3 * LINE_BYTES

    def test_addresses_line_aligned(self):
        trace = make_generator().generate(20_000)
        assert all(r.address % LINE_BYTES == 0 for r in trace.records)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = make_generator(seed=7).generate(50_000)
        b = make_generator(seed=7).generate(50_000)
        assert a.records == b.records

    def test_different_seed_different_trace(self):
        a = make_generator(seed=7).generate(50_000)
        b = make_generator(seed=8).generate(50_000)
        assert a.records != b.records


class TestPhases:
    def test_intensity_shifts_traffic(self):
        generator = make_generator(
            phases=(Phase(0.5, 0.2), Phase(0.5, 1.8)), mpki=10.0
        )
        trace = generator.generate(200_000)
        # Split records at the instruction midpoint.
        instrs = 0
        first_half_reads = 0
        for record in trace.records:
            instrs += record.gap + (1 if record.op is MemoryOp.READ else 0)
            if instrs <= 100_000 and record.op is MemoryOp.READ:
                first_half_reads += 1
        second_half_reads = trace.reads - first_half_reads
        assert second_half_reads > 4 * first_half_reads

    def test_average_mpki_preserved(self):
        generator = make_generator(phases=(Phase(0.5, 0.2), Phase(0.5, 1.8)))
        trace = generator.generate(300_000)
        assert trace.mpki == pytest.approx(10.0, rel=0.12)

    def test_phase_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            make_generator(phases=(Phase(0.5, 1.0),))

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            Phase(weight=0.0, intensity=1.0)
        with pytest.raises(ConfigurationError):
            Phase(weight=0.5, intensity=-1.0)


class TestSegments:
    def test_segments_spread_across_memory(self):
        generator = make_generator(segments=3, footprint_bytes=3 << 20)
        trace = generator.generate(100_000)
        regions = {r.address >> 26 for r in trace.records}  # 64 MB granules
        assert len(regions) == 3

    def test_single_segment(self):
        generator = make_generator(segments=1)
        trace = generator.generate(50_000)
        assert len({r.address >> 26 for r in trace.records}) == 1


class TestAddressOnlyPath:
    def test_yields_requested_count(self):
        generator = make_generator()
        addresses = list(generator.iter_read_addresses(10_000))
        assert len(addresses) == 10_000
        assert all(a % LINE_BYTES == 0 for a in addresses)

    def test_covers_footprint(self):
        """The fast path sweeps most of the full footprint."""
        generator = make_generator(footprint_bytes=1 << 20, segments=1)
        lines = 1 << 20 >> 6
        touched = set(generator.iter_read_addresses(4 * lines))
        assert len(touched) > 0.8 * lines

    def test_deterministic(self):
        g = make_generator()
        assert list(g.iter_read_addresses(1000)) == list(g.iter_read_addresses(1000))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            list(make_generator().iter_read_addresses(-1))
        with pytest.raises(ConfigurationError):
            list(make_generator().iter_read_runs(-1))


def frozen_read_addresses(generator, n_accesses):
    """Reference per-address stream: one loop step per read.

    Draws the RNG at the start of every run and walks each stream run
    one line at a time; :meth:`iter_read_runs` must expand to exactly
    this sequence.
    """
    extents = generator.footprint_extents()
    rng = random.Random(generator.seed ^ 0x5EED)
    positions = [start for start, _ in extents]
    current = 0
    left = 0
    for _ in range(n_accesses):
        if left > 0:
            left -= 1
        elif rng.random() < max(generator.stream_fraction, 0.5):
            current = rng.randrange(len(extents))
            left = max(0, int(rng.expovariate(1.0 / (4 * STREAM_RUN_MEAN))) - 1)
        else:
            start, count = extents[rng.randrange(len(extents))]
            yield (start + rng.randrange(count)) * LINE_BYTES
            continue
        start, count = extents[current]
        positions[current] = start + (positions[current] - start + 1) % count
        yield positions[current] * LINE_BYTES


def expand_runs(runs):
    return [line * LINE_BYTES for first, n in runs for line in range(first, first + n)]


def mid_run_cut(generator):
    """An access count that ends three lines into a run of four or more."""
    done = 0
    for _, n_lines in generator.iter_read_runs(200_000):
        if n_lines >= 4:
            return done + 3
        done += n_lines
    raise AssertionError("no run of four lines")


class TestReadRuns:
    @pytest.mark.parametrize("spec", ALL_BENCHMARKS, ids=lambda s: s.name)
    def test_runs_expand_to_the_frozen_stream(self, spec):
        g = spec.generator()
        cut = mid_run_cut(g)
        for n in (0, 1, cut, 200_000):
            expected = list(frozen_read_addresses(g, n))
            runs = list(g.iter_read_runs(n))
            assert expand_runs(runs) == expected
            assert list(g.iter_read_addresses(n)) == expected
            assert all(n_lines >= 1 for _, n_lines in runs)
        # The cut truncates the run it lands in.
        assert list(g.iter_read_runs(cut))[-1][1] == 3

    def test_tiny_footprint_wraps_its_extents(self):
        """Runs far longer than a two-line extent wrap it many times."""
        g = make_generator(footprint_bytes=6 * LINE_BYTES, segments=3, seed=3)
        extents = g.footprint_extents()
        assert [count for _, count in extents] == [2, 2, 2]
        runs = list(g.iter_read_runs(5_000))
        assert expand_runs(runs) == list(frozen_read_addresses(g, 5_000))
        assert sum(n_lines for _, n_lines in runs) == 5_000
        # A run longer than its extent yields the whole extent as a piece.
        assert any(run in runs for run in extents)

    def test_single_line_extent(self):
        g = make_generator(footprint_bytes=LINE_BYTES, segments=1)
        addresses = list(g.iter_read_addresses(100))
        assert addresses == list(frozen_read_addresses(g, 100))
        assert set(addresses) == {g.base_address}


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mpki": 0.0},
            {"target_ipc": 0.0},
            {"target_ipc": 2.5},
            {"footprint_bytes": 32},
            {"write_fraction": 1.5},
            {"stream_fraction": -0.1},
            {"segments": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_generator(**kwargs)

    def test_rejects_zero_instructions(self):
        with pytest.raises(ConfigurationError):
            make_generator().generate(0)


@given(mpki=st.floats(min_value=2.0, max_value=40.0),
       stream=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_property_generator_statistics(mpki, stream, seed):
    generator = make_generator(mpki=mpki, stream_fraction=stream, seed=seed)
    trace = generator.generate(60_000)
    assert trace.mpki == pytest.approx(mpki, rel=0.35)
    assert trace.nonmem_cpi >= 0.5
