"""Mergeable streaming aggregates for fleet-scale sweeps.

A million-device population must never materialize per-device records:
each shard streams its devices through a :class:`MetricAggregate`
(count/mean/variance by Welford's recurrence, a fixed-bin histogram,
and histogram-backed percentile estimates), and shard aggregates merge
pairwise into the fleet total.  Merging uses Chan's parallel update for
the moments and plain integer addition for the bins, so

* merge order changes results only at float rounding scale (the tests
  pin this at relative 1e-9), and
* bin counts — and therefore percentile estimates — are *exactly*
  independent of sharding and merge order.

Everything serializes to JSON-native dicts (:meth:`as_dict`) for run
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class StreamingMoments:
    """Count / mean / variance / min / max over a stream, mergeable."""

    __slots__ = ("count", "mean", "m2", "min", "max")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values) -> None:
        """Welford-update with each value in order (same as repeated add)."""
        count, mean, m2 = self.count, self.mean, self.m2
        low, high = self.min, self.max
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < low:
                low = value
            if value > high:
                high = value
        self.count, self.mean, self.m2 = count, mean, m2
        self.min, self.max = low, high

    def merge(self, other: "StreamingMoments") -> None:
        """Fold ``other`` in (Chan et al. parallel variance update)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * (self.count * other.count / total)
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Population variance (0.0 below two samples)."""
        return self.m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean if self.count else None,
            "stddev": self.stddev if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class FixedBinHistogram:
    """Equal-width bins over ``[lo, hi)`` with under/overflow gutters.

    Integer counts make merges exact: a fleet histogram is identical no
    matter how the devices were sharded.  Percentiles interpolate
    linearly inside the holding bin — a bounded-memory sketch whose
    error is at most one bin width.
    """

    __slots__ = ("lo", "hi", "bins", "counts", "underflow", "overflow")

    def __init__(self, lo: float, hi: float, bins: int = 64):
        if not lo < hi:
            raise ConfigurationError("histogram needs lo < hi")
        if bins < 1:
            raise ConfigurationError("histogram needs >= 1 bin")
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0

    def add(self, value: float, count: int = 1) -> None:
        """Bin ``value`` ``count`` times (one bin lookup, same rule as extend)."""
        if value < self.lo:
            self.underflow += count
        elif value >= self.hi:
            self.overflow += count
        else:
            index = int((value - self.lo) * self.bins / (self.hi - self.lo))
            self.counts[min(index, self.bins - 1)] += count

    def extend(self, values) -> None:
        """Bin each value (same as repeated add)."""
        lo, hi, bins, counts = self.lo, self.hi, self.bins, self.counts
        span = hi - lo
        top = bins - 1
        underflow = overflow = 0
        for value in values:
            if value < lo:
                underflow += 1
            elif value >= hi:
                overflow += 1
            else:
                index = int((value - lo) * bins / span)
                # Float rounding at the upper edge can land exactly on bins.
                counts[index if index < bins else top] += 1
        self.underflow += underflow
        self.overflow += overflow

    def merge(self, other: "FixedBinHistogram") -> None:
        if (other.lo, other.hi, other.bins) != (self.lo, self.hi, self.bins):
            raise ConfigurationError(
                "cannot merge histograms with different binning: "
                f"({self.lo}, {self.hi}, {self.bins}) vs "
                f"({other.lo}, {other.hi}, {other.bins})"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.underflow += other.underflow
        self.overflow += other.overflow

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], interpolated within its bin.

        Gutter mass clamps to the range edges (the sketch cannot see
        past them).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        total = self.total
        if total == 0:
            raise ConfigurationError("percentile of an empty histogram")
        target = q * total
        seen = float(self.underflow)
        if self.underflow and target <= seen:
            return self.lo
        width = (self.hi - self.lo) / self.bins
        for i, count in enumerate(self.counts):
            if count and target <= seen + count:
                inside = (target - seen) / count
                return self.lo + (i + inside) * width
            seen += count
        return self.hi

    def as_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }


#: Percentiles exported in every aggregate snapshot.
EXPORT_PERCENTILES = (0.50, 0.90, 0.95, 0.99)


class MetricAggregate:
    """Moments + histogram for one per-device metric."""

    __slots__ = ("name", "moments", "histogram")

    def __init__(self, name: str, lo: float, hi: float, bins: int = 64):
        self.name = name
        self.moments = StreamingMoments()
        self.histogram = FixedBinHistogram(lo, hi, bins)

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values) -> None:
        """Fold a column of values in order (same as repeated add)."""
        if iter(values) is values:  # one-shot iterator: both folds read it
            values = list(values)
        self.moments.extend(values)
        self.histogram.extend(values)

    def extend_keyed(self, table, keys, tally) -> None:
        """Fold the column ``table[key] for key in keys``, as ``extend`` would.

        ``tally`` is ``collections.Counter(keys)``: the moments fold the
        column in order, and the histogram bins each distinct key's
        value once and adds it by count.
        """
        self.moments.extend(map(table.__getitem__, keys))
        for key, count in tally.items():
            self.histogram.add(table[key], count)

    def merge(self, other: "MetricAggregate") -> None:
        if other.name != self.name:
            raise ConfigurationError(
                f"cannot merge metric {other.name!r} into {self.name!r}"
            )
        self.moments.merge(other.moments)
        self.histogram.merge(other.histogram)

    def percentile(self, q: float) -> float:
        return self.histogram.percentile(q)

    def as_dict(self) -> dict:
        out = self.moments.as_dict()
        if self.moments.count:
            out["percentiles"] = {
                f"p{int(q * 100)}": self.percentile(q) for q in EXPORT_PERCENTILES
            }
        out["histogram"] = self.histogram.as_dict()
        return out


@dataclass
class FleetAggregate:
    """All streamed statistics for one (shard of a) fleet simulation.

    Holds per-scheme metric aggregates plus exact integer counters
    (devices, per-persona population, per-device best-policy votes).
    Two shard aggregates merge into one with :meth:`merge`; the fleet
    total is a fold over shards in any order.
    """

    metrics: dict[str, MetricAggregate] = field(default_factory=dict)
    devices: int = 0
    persona_counts: dict[str, int] = field(default_factory=dict)
    best_policy_counts: dict[str, int] = field(default_factory=dict)

    def metric(self, name: str, lo: float, hi: float, bins: int = 64) -> MetricAggregate:
        """Fetch-or-create the named metric aggregate.

        Re-requesting an existing metric with different binning is a
        bug in the caller (the shards would no longer merge) and raises.
        """
        agg = self.metrics.get(name)
        if agg is None:
            agg = self.metrics[name] = MetricAggregate(name, lo, hi, bins)
        elif (agg.histogram.lo, agg.histogram.hi, agg.histogram.bins) != (
            lo, hi, bins,
        ):
            raise ConfigurationError(
                f"metric {name!r} already registered with different binning"
            )
        return agg

    def count_device(self, persona: str, count: int = 1) -> None:
        self.devices += count
        self.persona_counts[persona] = self.persona_counts.get(persona, 0) + count

    def count_best_policy(self, scheme: str, count: int = 1) -> None:
        self.best_policy_counts[scheme] = (
            self.best_policy_counts.get(scheme, 0) + count
        )

    def merge(self, other: "FleetAggregate") -> "FleetAggregate":
        """Fold ``other`` in; returns self for chaining."""
        for name, agg in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                # Adopt a same-shape empty twin, then merge for exactness.
                mine = self.metrics[name] = MetricAggregate(
                    name, agg.histogram.lo, agg.histogram.hi, agg.histogram.bins
                )
            mine.merge(agg)
        self.devices += other.devices
        for persona, count in other.persona_counts.items():
            self.persona_counts[persona] = (
                self.persona_counts.get(persona, 0) + count
            )
        for scheme, count in other.best_policy_counts.items():
            self.best_policy_counts[scheme] = (
                self.best_policy_counts.get(scheme, 0) + count
            )
        return self

    def as_dict(self) -> dict:
        return {
            "devices": self.devices,
            "persona_counts": dict(sorted(self.persona_counts.items())),
            "best_policy_counts": dict(sorted(self.best_policy_counts.items())),
            "metrics": {
                name: agg.as_dict() for name, agg in sorted(self.metrics.items())
            },
        }


def merge_aggregates(aggregates) -> FleetAggregate:
    """Fold an iterable of shard aggregates into one fleet total."""
    total = FleetAggregate()
    for aggregate in aggregates:
        total.merge(aggregate)
    return total
