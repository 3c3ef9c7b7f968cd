"""Tests for the per-line ECC-mode store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.line_store import LineEccStore
from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError
from repro.types import EccMode


@pytest.fixture
def store():
    return LineEccStore(DramOrganization(capacity_bytes=1 << 20, rows=64))  # 1 MB, 16K lines


class TestBasics:
    def test_all_strong_initially(self, store):
        assert store.all_strong()
        assert store.mode_of(0) is EccMode.STRONG
        assert store.weak_count == 0

    def test_downgrade(self, store):
        assert store.downgrade(5) is True
        assert store.mode_of(5) is EccMode.WEAK
        assert store.downgrade(5) is False  # already weak
        assert store.weak_count == 1

    def test_upgrade(self, store):
        store.downgrade(5)
        assert store.upgrade(5) is True
        assert store.mode_of(5) is EccMode.STRONG
        assert store.upgrade(5) is False

    def test_bounds_checked(self, store):
        with pytest.raises(ConfigurationError):
            store.mode_of(-1)
        with pytest.raises(ConfigurationError):
            store.downgrade(1 << 20)


class TestBulkOps:
    def test_upgrade_all(self, store):
        for line in (1, 100, 9999):
            store.downgrade(line)
        assert store.drain_all() == {1, 100, 9999}
        assert store.all_strong()

    def test_upgrade_region(self, store):
        for line in (10, 20, 500):
            store.downgrade(line)
        assert store.drain_region(0, 100) == {10, 20}
        assert store.mode_of(500) is EccMode.WEAK
        assert store.mode_of(10) is EccMode.STRONG

    def test_upgrade_empty_region(self, store):
        assert store.drain_region(0, 100) == frozenset()

    def test_upgrade_region_rejects_negative(self, store):
        with pytest.raises(ConfigurationError):
            store.drain_region(0, -1)

    def test_weak_lines_snapshot(self, store):
        store.downgrade(7)
        snapshot = store.weak_lines
        store.downgrade(8)
        assert snapshot == frozenset({7})


@given(st.sets(st.integers(min_value=0, max_value=16383), max_size=50))
@settings(max_examples=50)
def test_property_downgrade_upgrade_inverse(lines):
    store = LineEccStore(DramOrganization(capacity_bytes=1 << 20, rows=64))
    for line in lines:
        store.downgrade(line)
    assert store.weak_count == len(lines)
    assert store.drain_all() == lines
    assert store.all_strong()
