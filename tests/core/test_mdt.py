"""Tests for Memory Downgrade Tracking (paper Sec. VI-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError
from repro.obs.trace import EventTracer


@pytest.fixture
def mdt():
    return MemoryDowngradeTracker()


class TestPaperConfiguration:
    def test_1k_entries_cost_128_bytes(self, mdt):
        """Paper: 'a simple MDT with 128 bytes storage'."""
        assert mdt.entries == 1024
        assert mdt.storage_bytes == 128

    def test_region_is_1mb(self, mdt):
        """1 GB / 1K entries = 1 MB regions."""
        assert mdt.region_bytes == 1 << 20
        assert mdt.lines_per_region == 16384


class TestTracking:
    def test_region_of_uses_top_bits(self, mdt):
        assert mdt.region_of(0) == 0
        assert mdt.region_of((1 << 20) - 1) == 0
        assert mdt.region_of(1 << 20) == 1
        assert mdt.region_of(512 << 20) == 512

    def test_record_and_query(self, mdt):
        mdt.record_downgrade(5 << 20)
        assert mdt.is_marked(5)
        assert not mdt.is_marked(6)
        assert mdt.marked_count == 1

    def test_same_region_marked_once(self, mdt):
        mdt.record_downgrade(100)
        mdt.record_downgrade(200)
        mdt.record_downgrade(1000)
        assert mdt.marked_count == 1

    def test_tracked_bytes(self, mdt):
        for region in range(128):
            mdt.record_downgrade(region << 20)
        assert mdt.tracked_bytes == 128 << 20
        assert mdt.lines_to_upgrade() == 128 * 16384

    def test_reset(self, mdt):
        mdt.record_downgrade(0)
        mdt.reset()
        assert mdt.marked_count == 0

    def test_addresses_wrap_at_capacity(self, mdt):
        assert mdt.region_of(1 << 30) == 0

    def test_is_marked_bounds(self, mdt):
        with pytest.raises(ConfigurationError):
            mdt.is_marked(1024)


class TestConfiguration:
    def test_coarser_table(self):
        mdt = MemoryDowngradeTracker(entries=128)
        assert mdt.region_bytes == 8 << 20
        assert mdt.storage_bytes == 16

    def test_rejects_non_dividing_entries(self):
        with pytest.raises(ConfigurationError):
            MemoryDowngradeTracker(entries=1000)  # 1 GB % 1000 != 0

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            MemoryDowngradeTracker(entries=0)

    def test_rejects_subline_regions(self):
        tiny = DramOrganization(capacity_bytes=1 << 20, rows=64)
        with pytest.raises(ConfigurationError):
            MemoryDowngradeTracker(tiny, entries=32768)  # 32 B regions


@given(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1), max_size=200))
@settings(max_examples=50)
def test_property_tracked_bytes_bound_footprint(addresses):
    """MDT never under-tracks: every downgraded address's region is marked,
    and tracked bytes never exceed memory capacity."""
    mdt = MemoryDowngradeTracker()
    for a in addresses:
        mdt.record_downgrade(a)
    for a in addresses:
        assert mdt.is_marked(mdt.region_of(a))
    assert mdt.tracked_bytes <= 1 << 30
    assert mdt.marked_count <= len(set(a >> 20 for a in addresses))


#: 64 KB of memory in sixteen 4 KB regions, so short spans cross region
#: boundaries and wrap the capacity.
SMALL_ORG = DramOrganization(capacity_bytes=1 << 16, banks=4, rows=16)
SMALL_LINES = SMALL_ORG.capacity_bytes // 64


def traced_tracker(org, entries):
    mdt = MemoryDowngradeTracker(org, entries=entries)
    mdt.tracer = EventTracer()
    return mdt


def event_log(mdt):
    return [(e.source, e.kind, e.data) for e in mdt.tracer]


class TestRecordSpan:
    def test_span_crossing_a_boundary(self):
        mdt = MemoryDowngradeTracker(SMALL_ORG, entries=16)
        mdt.record_span(4096 - 64, 128)
        assert mdt.marked_regions == {0, 1}

    def test_span_wraps_the_capacity(self):
        mdt = MemoryDowngradeTracker(SMALL_ORG, entries=16)
        mdt.record_span((1 << 16) - 4096, 8192)
        assert mdt.marked_regions == {15, 0}

    def test_span_longer_than_capacity_marks_all_once(self):
        mdt = traced_tracker(SMALL_ORG, 16)
        mdt.record_span(5 * 4096, 3 << 16)
        assert mdt.marked_count == 16
        assert [e.data["region"] for e in mdt.tracer] == [*range(5, 16), *range(5)]

    def test_empty_span_marks_nothing(self, mdt):
        mdt.record_span(1 << 20, 0)
        assert mdt.marked_count == 0

    def test_rejects_negative(self, mdt):
        with pytest.raises(ConfigurationError):
            mdt.record_span(-64, 64)
        with pytest.raises(ConfigurationError):
            mdt.record_span(0, -64)


@given(
    entries=st.sampled_from([1, 4, 16, 64, 1024]),
    spans=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * SMALL_LINES),
            st.integers(min_value=0, max_value=2 * SMALL_LINES),
        ),
        max_size=6,
    ),
)
@settings(max_examples=100, deadline=None)
def test_property_span_equals_per_line_downgrades(entries, spans):
    """A line-aligned span marks what per-line record_downgrade marks, with
    the same tracer events in the same order, across region boundaries,
    the capacity wrap and spans longer than memory."""
    by_span = traced_tracker(SMALL_ORG, entries)
    by_line = traced_tracker(SMALL_ORG, entries)
    for first, n_lines in spans:
        by_span.record_span(first * 64, n_lines * 64)
        for line in range(first, first + n_lines):
            by_line.record_downgrade(line * 64)
    assert by_span.marked_regions == by_line.marked_regions
    assert event_log(by_span) == event_log(by_line)
