"""Design-space exploration: sweep grids, Pareto frontiers, tuner.

The paper picks one MECC operating point; :mod:`repro.dse` maps the
whole energy/slowdown/failure surface around it and learns per-workload
operating points from the fleet personas.  See ``docs/api.md`` and the
EXPERIMENTS.md recipe (grid -> frontier -> tune).
"""

from repro.dse.engine import (
    OBJECTIVES,
    PAPER_POINT,
    DesignSpaceExplorer,
    FrontierReport,
    PointResult,
    explore_grid,
)
from repro.dse.grid import AXES, GRID_POLICIES, GridSpec, OperatingPoint, parse_grid
from repro.dse.pareto import dominates, knee_index, pareto_indices
from repro.dse.tuner import (
    PolicyTuner,
    TunerSample,
    WorkloadFeatures,
    build_training_set,
    persona_frontiers,
    train_tuner,
)

__all__ = [
    "AXES",
    "GRID_POLICIES",
    "OBJECTIVES",
    "PAPER_POINT",
    "DesignSpaceExplorer",
    "FrontierReport",
    "GridSpec",
    "OperatingPoint",
    "PointResult",
    "PolicyTuner",
    "TunerSample",
    "WorkloadFeatures",
    "build_training_set",
    "dominates",
    "explore_grid",
    "knee_index",
    "pareto_indices",
    "parse_grid",
    "persona_frontiers",
    "train_tuner",
]
