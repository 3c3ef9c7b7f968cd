"""Fleet-scale population simulation.

``repro.fleet`` answers the deployment-side question the single-device
studies cannot: across an installed base of millions of heterogeneous
devices, how much refresh energy does Morphable ECC actually save?

Layers:

* :mod:`~repro.fleet.population` — seeded, counter-based persona
  sampling (chunk-invariant by construction).
* :mod:`~repro.fleet.aggregates` — mergeable streaming statistics
  (moments + fixed-bin histograms) so no per-device records are kept.
* :mod:`~repro.fleet.simulator` — cohort-decomposed fleet simulation
  through the cached experiment runner.
"""

from repro.fleet.aggregates import (
    EXPORT_PERCENTILES,
    FixedBinHistogram,
    FleetAggregate,
    StreamingMoments,
    merge_aggregates,
)
from repro.fleet.population import (
    DEFAULT_MIX,
    DeviceSample,
    PopulationModel,
    parse_mix,
)
from repro.fleet.simulator import (
    DEFAULT_SCHEMES,
    CohortProfile,
    FleetReport,
    FleetSimulator,
)

__all__ = [
    "CohortProfile",
    "DEFAULT_MIX",
    "DEFAULT_SCHEMES",
    "DeviceSample",
    "EXPORT_PERCENTILES",
    "FixedBinHistogram",
    "FleetAggregate",
    "FleetReport",
    "FleetSimulator",
    "PopulationModel",
    "StreamingMoments",
    "merge_aggregates",
    "parse_mix",
]
