"""System configuration (paper Table II) and scaled-run bookkeeping.

Bundles the pieces a full experiment needs — organization, timings, power
parameters, scheme latencies — and encodes how scaled-down runs map onto
the paper's 4-billion-instruction slices (SMD quantum scaling, transition
analysis).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from repro.core.mecc import MeccController
from repro.core.policy import Ecc6Policy, EccPolicy, MeccPolicy, NoEccPolicy, SecdedPolicy
from repro.core.smd import DEFAULT_THRESHOLD_MPKC, PAPER_QUANTUM_CYCLES, SelectiveMemoryDowngrade
from repro.dram.config import PROC_HZ, DramOrganization, DramTimings
from repro.dram.device import DramDevice
from repro.ecc.codes import make_scheme
from repro.errors import ConfigurationError
from repro.power.params import PowerParams

#: The paper executes 4 billion instructions per benchmark slice.
PAPER_INSTRUCTIONS = 4_000_000_000


@dataclass(frozen=True)
class SystemConfig:
    """The paper's baseline system (Table II + Table IV)."""

    org: DramOrganization = field(default_factory=DramOrganization)
    timings: DramTimings = field(default_factory=DramTimings)
    power: PowerParams = field(default_factory=PowerParams)
    weak_decode_cycles: int = 2
    strong_decode_cycles: int = 30
    strong_t: int = 6

    def weak_scheme(self):
        return make_scheme(1, self.org.line_bytes).with_decode_cycles(
            self.weak_decode_cycles
        )

    def strong_scheme(self):
        return make_scheme(self.strong_t, self.org.line_bytes).with_decode_cycles(
            self.strong_decode_cycles
        )

    # -- policy factories ------------------------------------------------------

    def baseline_policy(self) -> EccPolicy:
        return NoEccPolicy()

    def secded_policy(self) -> EccPolicy:
        return SecdedPolicy(self.weak_scheme())

    def ecc6_policy(self) -> EccPolicy:
        return Ecc6Policy(self.strong_scheme())

    def mecc_policy(
        self,
        with_smd: bool = False,
        quantum_cycles: int = PAPER_QUANTUM_CYCLES,
        threshold_mpkc: float = DEFAULT_THRESHOLD_MPKC,
    ) -> MeccPolicy:
        controller = MeccController(
            device=DramDevice(org=self.org),
            weak=self.weak_scheme(),
            strong=self.strong_scheme(),
        )
        smd = None
        if with_smd:
            smd = SelectiveMemoryDowngrade(
                threshold_mpkc=threshold_mpkc, quantum_cycles=quantum_cycles
            )
        return MeccPolicy(controller=controller, smd=smd)

    def describe(self) -> dict:
        """Nested plain-dict form of the full configuration.

        Feeds the experiment runner's content-hashed cache key (see
        :mod:`repro.analysis.runner`).  Every field is included, also
        those a job's policy never reads (``power`` is read by none);
        the runner's canonical job spec (``JobSpec.canonical``), not this
        form, decides which jobs share a simulation.

        The deep ``asdict`` runs once per distinct config (configs that
        compare equal share it); each call gets a fresh copy of the
        memoized form, so callers may mutate it.
        """
        return _fresh(_config_description(self))

    def policy_by_name(self, name: str, **kwargs) -> EccPolicy:
        factories = {
            "baseline": self.baseline_policy,
            "secded": self.secded_policy,
            "ecc6": self.ecc6_policy,
            "mecc": self.mecc_policy,
        }
        if name == "mecc+smd":
            return self.mecc_policy(with_smd=True, **kwargs)
        if name not in factories:
            raise ConfigurationError(f"unknown policy {name!r}")
        return factories[name](**kwargs)

    def observed_policy(
        self, name: str, tracer=None, invariants=None, **kwargs
    ) -> EccPolicy:
        """Build a policy with observability hooks already attached.

        The CLI's ``--trace`` path and tests use this to get a policy
        whose MECC core, MDT, SMD gate, and refresh controller all share
        one :class:`repro.obs.trace.EventTracer` /
        :class:`repro.obs.invariants.InvariantSuite` pair.
        """
        policy = self.policy_by_name(name, **kwargs)
        policy.attach_observer(tracer, invariants)
        return policy


@functools.lru_cache(maxsize=256)
def _config_description(config: SystemConfig) -> dict:
    """Memoized ``asdict`` of a config; never handed out uncopied."""
    return dataclasses.asdict(config)


def _fresh(description: dict) -> dict:
    """A copy of a config description, which nests one level deep.

    Its values are scalars or dicts of scalars (org, timings, power), so
    copying the dicts leaves nothing mutable shared.
    """
    return {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in description.items()
    }


@dataclass(frozen=True)
class ScaledRun:
    """Mapping between a scaled simulation and the paper's full slices.

    The paper simulates 4B instructions per benchmark (~5.5 s of execution
    at its average IPC of 0.72).  Pure-Python cycle simulation runs a few
    million; time-based mechanisms (SMD's 64 ms quantum) must shrink by
    the same factor for their dynamics to be preserved.

    Attributes:
        instructions: instructions per simulated slice.
        paper_instructions: what the slice stands for (4e9 by default).
    """

    instructions: int = 2_000_000
    paper_instructions: int = PAPER_INSTRUCTIONS

    def __post_init__(self) -> None:
        if self.instructions < 1 or self.paper_instructions < self.instructions:
            raise ConfigurationError("need 1 <= instructions <= paper_instructions")

    @property
    def scale_factor(self) -> float:
        """How many paper instructions one simulated instruction stands for."""
        return self.paper_instructions / self.instructions

    @property
    def quantum_cycles(self) -> int:
        """SMD check quantum, scaled from the paper's ~102.4M cycles."""
        return max(1, int(round(PAPER_QUANTUM_CYCLES / self.scale_factor)))

    def to_paper_seconds(self, cycles: int) -> float:
        """Wall-clock the simulated cycles represent at full scale."""
        return cycles * self.scale_factor / PROC_HZ

    def describe(self) -> dict:
        """Plain-dict form (cache-key ingredient; see SystemConfig.describe)."""
        return dataclasses.asdict(self)


#: Shared default configuration (the paper's system).
DEFAULT_SYSTEM = SystemConfig()
