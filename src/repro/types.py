"""Common value types shared across the library.

These are deliberately small, dependency-free dataclasses and enums so that
every subpackage (ECC, DRAM, simulator, MECC controller) can exchange data
without import cycles.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field


class MemoryOp(enum.Enum):
    """Kind of memory transaction issued by the core model."""

    READ = "read"
    WRITE = "write"


class EccMode(enum.Enum):
    """Per-line ECC mode stored in the ECC-mode bits (paper Sec. III-B).

    ``WEAK`` is SECDED (or no-ECC) used in active mode; ``STRONG`` is the
    multi-bit code (ECC-6 by default) used in idle mode.
    """

    WEAK = 0
    STRONG = 1


class SystemState(enum.Enum):
    """Coarse device activity state (paper Fig. 1 / Fig. 4)."""

    ACTIVE = "active"
    IDLE = "idle"


class RefreshMode(enum.Enum):
    """DRAM refresh implementations described in paper Sec. II-A."""

    AUTO_REFRESH = "auto"
    SELF_REFRESH = "self"
    PARTIAL_ARRAY_SELF_REFRESH = "pasr"
    DEEP_POWER_DOWN = "dpd"


@dataclass(frozen=True)
class TraceRecord:
    """One post-LLC memory access in a workload trace.

    Attributes:
        gap: number of non-memory instructions retired since the previous
            record (USIMM trace convention).
        op: read (demand miss) or write (dirty writeback).
        address: physical byte address of the 64B line (line-aligned).
    """

    gap: int
    op: MemoryOp
    address: int

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError(f"trace gap must be non-negative, got {self.gap}")
        if self.address < 0:
            raise ValueError("trace address must be non-negative")


@dataclass
class MemoryRequest:
    """A transaction inside the memory controller.

    Times are in *processor* cycles (1.6 GHz domain) unless noted.
    """

    op: MemoryOp
    address: int
    arrival_cycle: int
    completion_cycle: int | None = None
    ecc_decode_cycles: int = 0
    caused_downgrade: bool = False

    @property
    def latency(self) -> int:
        """Total latency in processor cycles (arrival to completion)."""
        if self.completion_cycle is None:
            raise ValueError("request has not completed")
        return self.completion_cycle - self.arrival_cycle


@dataclass
class EnergyBreakdown:
    """Energy accounting in joules, split by component."""

    background: float = 0.0
    activate_precharge: float = 0.0
    read_write: float = 0.0
    refresh: float = 0.0
    ecc_codec: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.background
            + self.activate_precharge
            + self.read_write
            + self.refresh
            + self.ecc_codec
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            background=self.background + other.background,
            activate_precharge=self.activate_precharge + other.activate_precharge,
            read_write=self.read_write + other.read_write,
            refresh=self.refresh + other.refresh,
            ecc_codec=self.ecc_codec + other.ecc_codec,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            background=self.background * factor,
            activate_precharge=self.activate_precharge * factor,
            read_write=self.read_write * factor,
            refresh=self.refresh * factor,
            ecc_codec=self.ecc_codec * factor,
        )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe; exact float round-trip)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyBreakdown":
        return cls(**data)


@dataclass
class PowerBreakdown:
    """Average power in watts, split by component."""

    background: float = 0.0
    activate_precharge: float = 0.0
    read_write: float = 0.0
    refresh: float = 0.0

    @property
    def total(self) -> float:
        return self.background + self.activate_precharge + self.read_write + self.refresh


@dataclass
class SimResult:
    """Summary statistics of one active-mode simulation run."""

    instructions: int
    cycles: int
    reads: int
    writes: int
    downgrades: int = 0
    upgrades: int = 0
    strong_decodes: int = 0
    weak_decodes: int = 0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    read_latency_sum: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per processor cycle."""
        if self.cycles == 0:
            raise ValueError("no cycles simulated")
        return self.instructions / self.cycles

    @property
    def mpki(self) -> float:
        """Demand misses (reads) per kilo-instruction."""
        if self.instructions == 0:
            raise ValueError("no instructions simulated")
        return 1000.0 * self.reads / self.instructions

    @property
    def mpkc(self) -> float:
        """Demand misses (reads) per kilo-cycle — SMD's traffic metric."""
        if self.cycles == 0:
            raise ValueError("no cycles simulated")
        return 1000.0 * self.reads / self.cycles

    @property
    def avg_read_latency(self) -> float:
        """Average demand read latency in processor cycles."""
        if self.reads == 0:
            return 0.0
        return self.read_latency_sum / self.reads

    def to_dict(self) -> dict:
        """Plain-dict form for the on-disk result cache (JSON-safe).

        Round-trips exactly through JSON: every field is an int or a
        float, and ``json`` preserves both bit-for-bit.  Equal to
        ``dataclasses.asdict(self)``, built without its deep copy.
        """
        data = dict(vars(self))
        data["energy"] = dict(vars(self.energy))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        data = dict(data)
        data["energy"] = EnergyBreakdown.from_dict(data.get("energy", {}))
        return cls(**data)
