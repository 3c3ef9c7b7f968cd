"""Mergeable streaming aggregates: the fleet layer's numerical core.

The contract under test: aggregating a stream in any sharding, any
order, yields the same result — exactly for counts/histograms, to
float-rounding for the Welford/Chan moments.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.fleet.aggregates import (
    FixedBinHistogram,
    FleetAggregate,
    StreamingMoments,
    merge_aggregates,
)

RNG = random.Random(4242)
VALUES = [RNG.gauss(100.0, 25.0) for _ in range(5_000)]


def _chunks(values, size):
    for start in range(0, len(values), size):
        yield values[start : start + size]


class TestStreamingMoments:
    def test_matches_direct_computation(self):
        moments = StreamingMoments()
        for value in VALUES:
            moments.add(value)
        mean = sum(VALUES) / len(VALUES)
        var = sum((v - mean) ** 2 for v in VALUES) / len(VALUES)
        assert moments.count == len(VALUES)
        assert moments.mean == pytest.approx(mean, rel=1e-12)
        assert moments.variance == pytest.approx(var, rel=1e-9)
        assert moments.stddev == pytest.approx(math.sqrt(var), rel=1e-9)

    @pytest.mark.parametrize("size", [1, 7, 100, 1_000, 5_000])
    def test_chunk_size_invariance(self, size):
        merged = StreamingMoments()
        for chunk in _chunks(VALUES, size):
            part = StreamingMoments()
            for value in chunk:
                part.add(value)
            merged.merge(part)
        whole = StreamingMoments()
        for value in VALUES:
            whole.add(value)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.variance == pytest.approx(whole.variance, rel=1e-9)

    def test_merge_order_invariance(self):
        parts = []
        for chunk in _chunks(VALUES, 250):
            part = StreamingMoments()
            for value in chunk:
                part.add(value)
            parts.append(part)
        forward = StreamingMoments()
        for part in parts:
            forward.merge(part)
        backward = StreamingMoments()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.count == backward.count
        assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
        assert forward.variance == pytest.approx(backward.variance, rel=1e-9)

    def test_merge_with_empty_is_identity(self):
        full = StreamingMoments()
        for value in VALUES[:100]:
            full.add(value)
        before = (full.count, full.mean, full.variance)
        full.merge(StreamingMoments())
        assert (full.count, full.mean, full.variance) == before


class TestFixedBinHistogram:
    def test_counts_and_gutters(self):
        hist = FixedBinHistogram(0.0, 10.0, bins=10)
        for value in (-5.0, 0.0, 0.5, 5.0, 9.99, 10.0, 25.0):
            hist.add(value)
        assert hist.total == 7
        assert hist.underflow == 1  # -5.0
        assert hist.overflow == 2  # 10.0 (right edge) and 25.0

    def test_merge_is_exact(self):
        shard_a = FixedBinHistogram(0.0, 200.0, bins=64)
        shard_b = FixedBinHistogram(0.0, 200.0, bins=64)
        whole = FixedBinHistogram(0.0, 200.0, bins=64)
        for i, value in enumerate(VALUES):
            (shard_a if i % 2 else shard_b).add(value)
            whole.add(value)
        shard_a.merge(shard_b)
        assert shard_a.counts == whole.counts
        assert shard_a.underflow == whole.underflow
        assert shard_a.overflow == whole.overflow

    def test_percentiles_close_to_exact(self):
        hist = FixedBinHistogram(0.0, 200.0, bins=400)
        for value in VALUES:
            hist.add(value)
        exact = sorted(VALUES)
        for q in (0.5, 0.9, 0.95, 0.99):
            want = exact[int(q * (len(exact) - 1))]
            # Interpolated sketch error is bounded by one bin width.
            assert hist.percentile(q) == pytest.approx(want, abs=0.5 + 1e-9)

    def test_mismatched_binning_refuses_merge(self):
        with pytest.raises(ConfigurationError):
            FixedBinHistogram(0.0, 1.0, 10).merge(FixedBinHistogram(0.0, 1.0, 20))
        with pytest.raises(ConfigurationError):
            FixedBinHistogram(0.0, 1.0, 10).merge(FixedBinHistogram(0.0, 2.0, 10))

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedBinHistogram(1.0, 1.0, 10)
        with pytest.raises(ConfigurationError):
            FixedBinHistogram(0.0, 1.0, 0)


    def test_p0_is_the_lowest_occupied_bin_without_underflow(self):
        hist = FixedBinHistogram(0.0, 100.0, bins=10)
        for value in (55.0, 56.0, 57.0):
            hist.add(value)
        assert hist.percentile(0.0) == 50.0
        assert hist.percentile(1e-9) == pytest.approx(50.0)

    def test_p0_of_an_overflow_only_histogram_is_hi(self):
        hist = FixedBinHistogram(0.0, 100.0, bins=10)
        for value in (150.0, 250.0):
            hist.add(value)
        assert hist.percentile(0.0) == 100.0

    def test_p0_with_underflow_clamps_to_lo(self):
        hist = FixedBinHistogram(0.0, 100.0, bins=10)
        for value in (-1.0, 55.0):
            hist.add(value)
        assert hist.percentile(0.0) == 0.0


#: Values on every binning edge case: gutters, both range edges, and
#: values just below ``hi`` whose scaled index rounds up to ``bins``.
EDGE_VALUES = [
    -1.0, 0.0, -0.0, 1e-300, 1.25, 2.0,
    math.nextafter(1.25, 0.0), math.nextafter(1.25 - 1.25 / 96, 0.0),
    1.25 - 1.25 / 96, 0.625, math.nextafter(0.625, 1.0),
] + [RNG.uniform(-0.1, 1.35) for _ in range(500)]


def _moments_reference(values):
    """The scalar Welford update, one value at a time."""
    count, mean, m2, low, high = 0, 0.0, 0.0, math.inf, -math.inf
    for value in values:
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        if value < low:
            low = value
        if value > high:
            high = value
    return count, mean, m2, low, high


def _bins_reference(lo, hi, bins, values):
    """The scalar binning rule, one value at a time."""
    counts, underflow, overflow = [0] * bins, 0, 0
    for value in values:
        if value < lo:
            underflow += 1
        elif value >= hi:
            overflow += 1
        else:
            index = int((value - lo) * bins / (hi - lo))
            counts[min(index, bins - 1)] += 1
    return counts, underflow, overflow


class TestExtend:
    """``extend`` is repeated ``add``, bit for bit."""

    @pytest.mark.parametrize("values", [EDGE_VALUES, VALUES, [], [7.5]])
    def test_moments(self, values):
        extended, added = StreamingMoments(), StreamingMoments()
        extended.extend(values)
        for value in values:
            added.add(value)
        for moments in (extended, added):
            state = (moments.count, moments.mean, moments.m2, moments.min, moments.max)
            assert state == _moments_reference(values)

    @pytest.mark.parametrize(
        "lo, hi, bins", [(0.0, 1.25, 96), (-0.5, 1.0, 96), (0.0, 200.0, 64), (0.0, 1.0, 1)]
    )
    @pytest.mark.parametrize("values", [EDGE_VALUES, VALUES])
    def test_histogram(self, lo, hi, bins, values):
        extended, added = FixedBinHistogram(lo, hi, bins), FixedBinHistogram(lo, hi, bins)
        extended.extend(values)
        for value in values:
            added.add(value)
        for hist in (extended, added):
            assert (hist.counts, hist.underflow, hist.overflow) == _bins_reference(
                lo, hi, bins, values
            )

    def test_extend_in_pieces_equals_one_extend(self):
        whole, pieces = StreamingMoments(), StreamingMoments()
        whole.extend(VALUES)
        for chunk in _chunks(VALUES, 333):
            pieces.extend(chunk)
        assert (pieces.count, pieces.mean, pieces.m2) == (
            whole.count, whole.mean, whole.m2,
        )

    def test_metric_aggregate(self):
        agg = FleetAggregate()
        extended = agg.metric("ipc", 0.0, 1.25, 96)
        added = FleetAggregate().metric("ipc", 0.0, 1.25, 96)
        extended.extend(EDGE_VALUES)
        for value in EDGE_VALUES:
            added.add(value)
        assert extended.as_dict() == added.as_dict()
        assert extended.moments.m2 == added.moments.m2

    def test_metric_aggregate_reads_a_generator_once(self):
        from_generator = FleetAggregate().metric("ipc", 0.0, 1.25, 96)
        from_list = FleetAggregate().metric("ipc", 0.0, 1.25, 96)
        from_generator.extend(value for value in EDGE_VALUES)
        from_list.extend(EDGE_VALUES)
        assert from_generator.as_dict() == from_list.as_dict()
        assert from_generator.histogram.total == len(EDGE_VALUES)


class TestFleetAggregate:
    def _fill(self, values):
        agg = FleetAggregate()
        metric = agg.metric("energy", 0.0, 200.0, 64)
        for value in values:
            metric.add(value)
            agg.count_device("light" if value < 120.0 else "heavy")
            agg.count_best_policy("mecc" if value > 100.0 else "baseline")
        return agg

    @pytest.mark.parametrize("size", [1, 37, 500, 5_000])
    def test_sharded_equals_whole(self, size):
        whole = self._fill(VALUES)
        shards = [self._fill(chunk) for chunk in _chunks(VALUES, size)]
        merged = merge_aggregates(shards)
        assert merged.devices == whole.devices
        assert merged.persona_counts == whole.persona_counts
        assert merged.best_policy_counts == whole.best_policy_counts
        ours, theirs = merged.metrics["energy"], whole.metrics["energy"]
        assert ours.histogram.counts == theirs.histogram.counts
        assert ours.moments.mean == pytest.approx(theirs.moments.mean, rel=1e-12)

    def test_merge_order_invariance(self):
        shards = [self._fill(chunk) for chunk in _chunks(VALUES, 250)]
        forward = merge_aggregates(shards)
        backward = merge_aggregates(list(reversed(shards)))
        assert forward.devices == backward.devices
        a, b = forward.metrics["energy"], backward.metrics["energy"]
        assert a.histogram.counts == b.histogram.counts
        assert a.moments.mean == pytest.approx(b.moments.mean, rel=1e-12)
        assert a.moments.variance == pytest.approx(b.moments.variance, rel=1e-9)

    def test_as_dict_shape(self):
        payload = self._fill(VALUES[:100]).as_dict()
        assert payload["devices"] == 100
        assert "energy" in payload["metrics"]
        assert set(payload["metrics"]["energy"]["percentiles"]) == {
            "p50", "p90", "p95", "p99",
        }

    def test_metric_rebinding_conflict_rejected(self):
        agg = FleetAggregate()
        agg.metric("energy", 0.0, 200.0, 64)
        with pytest.raises(ConfigurationError):
            agg.metric("energy", 0.0, 100.0, 64)


class TestShardEdges:
    """Degenerate shardings: no shards, empty shards, one device each."""

    def _fill(self, values):
        agg = FleetAggregate()
        metric = agg.metric("energy", 0.0, 200.0, 64)
        for value in values:
            metric.add(value)
            agg.count_device("light" if value < 120.0 else "heavy")
        return agg

    def test_merge_no_shards_yields_empty_total(self):
        total = merge_aggregates([])
        assert total.devices == 0
        assert total.metrics == {}
        payload = total.as_dict()
        assert payload["devices"] == 0
        assert payload["metrics"] == {}
        assert payload["persona_counts"] == {}

    def test_empty_shards_are_identity(self):
        filled = self._fill(VALUES[:200])
        merged = merge_aggregates(
            [FleetAggregate(), self._fill(VALUES[:200]), FleetAggregate()]
        )
        assert merged.devices == filled.devices
        assert merged.persona_counts == filled.persona_counts
        ours, theirs = merged.metrics["energy"], filled.metrics["energy"]
        assert ours.histogram.counts == theirs.histogram.counts
        assert ours.moments.mean == pytest.approx(theirs.moments.mean, rel=1e-12)
        assert ours.moments.variance == pytest.approx(
            theirs.moments.variance, rel=1e-9
        )

    def test_single_device_shards_equal_whole(self):
        values = VALUES[:200]
        whole = self._fill(values)
        merged = merge_aggregates(self._fill([v]) for v in values)
        assert merged.devices == whole.devices
        assert merged.persona_counts == whole.persona_counts
        ours, theirs = merged.metrics["energy"], whole.metrics["energy"]
        assert ours.histogram.counts == theirs.histogram.counts
        assert ours.moments.mean == pytest.approx(theirs.moments.mean, rel=1e-12)
        assert ours.moments.variance == pytest.approx(
            theirs.moments.variance, rel=1e-9
        )

    def test_unsampled_metric_serializes_without_percentiles(self):
        agg = FleetAggregate()
        agg.metric("energy", 0.0, 200.0, 64)
        payload = agg.as_dict()["metrics"]["energy"]
        assert payload["count"] == 0
        assert payload["mean"] is None
        assert "percentiles" not in payload
