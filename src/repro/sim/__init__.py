"""Simulation engine: blocking in-order core + memory system + power.

* :mod:`repro.sim.engine` — the trace-driven cycle engine (USIMM-style).
* :mod:`repro.sim.system` — the paper's Table II system configuration and
  factory helpers, including the scaled-run bookkeeping.
* :mod:`repro.sim.usage` — the bursty active/idle device usage model
  (paper Fig. 1) used by the idle/total-energy experiments.
* :mod:`repro.sim.stats` — geomean/normalization helpers shared by the
  analysis harness.
"""

from repro.sim.device import DeviceReport, DeviceSimulator
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.stats import geometric_mean, normalize
from repro.sim.system import ScaledRun, SystemConfig
from repro.sim.usage import UsageModel, UsagePhase

__all__ = [
    "DeviceReport",
    "DeviceSimulator",
    "ScaledRun",
    "SimulationEngine",
    "SystemConfig",
    "UsageModel",
    "UsagePhase",
    "geometric_mean",
    "normalize",
    "simulate",
]
