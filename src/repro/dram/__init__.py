"""DRAM substrate: device organization, timing, refresh, memory controller.

A USIMM-style transaction-level model of the paper's memory system
(Table II: 1 GB LPDDR, 200 MHz bus, DDR, 1 channel, 1 rank, 4 banks,
16K rows, 1K columns), fast enough in pure Python to run millions of
instructions by keeping per-bank *timestamps* instead of ticking cycles.

All controller-facing times are in 1.6 GHz processor cycles; the 200 MHz
DDR bus gives an 8:1 clock ratio, so DRAM timing parameters are stored
pre-multiplied in processor cycles.
"""

from repro.dram.address import AddressMapper
from repro.dram.config import DramOrganization, DramTimings, PROC_CYCLES_PER_BUS_CYCLE
from repro.dram.controller import ControllerStats, MemoryController
from repro.dram.device import DramDevice
from repro.dram.refresh import RefreshDivider, SelfRefreshController

__all__ = [
    "AddressMapper",
    "ControllerStats",
    "DramDevice",
    "DramOrganization",
    "DramTimings",
    "MemoryController",
    "PROC_CYCLES_PER_BUS_CYCLE",
    "RefreshDivider",
    "SelfRefreshController",
]
