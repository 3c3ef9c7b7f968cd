"""Each trace decodes its addresses once per mapper geometry.

The cycle engine runs on the per-record ``(bank, row)`` columns a trace
memoizes (:meth:`repro.workloads.trace.Trace.decoded`): calibration and
all five policies share one decode, the controller never decodes on the
engine's path, and a second geometry gets a decode of its own whose
results equal a run on a freshly built trace.
"""

from __future__ import annotations

import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DramOrganization
from repro.dram.controller import MemoryController
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.system import SystemConfig
from repro.workloads.spec import BENCHMARKS_BY_NAME

INSTRUCTIONS = 40_000
POLICIES = ("baseline", "secded", "ecc6", "mecc", "mecc+smd")


@pytest.fixture
def decode_counts(monkeypatch):
    """Addresses decoded by ``AddressMapper.decode`` and ``bank_row`` calls."""
    counts = {"decoded": 0, "bank_row": 0}
    decode, bank_row = AddressMapper.decode, AddressMapper.bank_row

    def counting_decode(self, addresses):
        counts["decoded"] += len(addresses)
        return decode(self, addresses)

    def counting_bank_row(self, address):
        counts["bank_row"] += 1
        return bank_row(self, address)

    monkeypatch.setattr(AddressMapper, "decode", counting_decode)
    monkeypatch.setattr(AddressMapper, "bank_row", counting_bank_row)
    return counts


def _run(trace, policy, mapping="row-interleaved", org=None):
    controller = MemoryController(org=org, mapping_policy=mapping)
    engine = SimulationEngine(
        policy=SystemConfig().policy_by_name(policy), controller=controller
    )
    return engine.run(trace)


@pytest.mark.parametrize("instructions", [INSTRUCTIONS, 250_000])
def test_calibration_and_five_policies_share_one_decode(decode_counts, instructions):
    # At 250k instructions the calibration prefix is shorter than the trace.
    trace = BENCHMARKS_BY_NAME["lbm"].trace(instructions)
    assert decode_counts["decoded"] == len(trace)
    for policy in POLICIES:
        simulate(trace, SystemConfig().policy_by_name(policy))
    assert decode_counts == {"decoded": len(trace), "bank_row": 0}


@pytest.mark.parametrize(
    "mapping, org",
    [
        ("block-interleaved", None),
        ("row-interleaved", DramOrganization(channels=2)),
    ],
    ids=["block-interleaved", "two-channel"],
)
def test_second_geometry_decodes_once_and_matches_fresh_trace(
    decode_counts, mapping, org
):
    spec = BENCHMARKS_BY_NAME["omnetpp"]
    trace = spec.trace(INSTRUCTIONS)
    for policy in POLICIES:
        _run(trace, policy)
    decoded = decode_counts["decoded"]
    shared = {policy: _run(trace, policy, mapping, org) for policy in POLICIES}
    # One more decode for the new geometry, however many runs use it.
    assert decode_counts["decoded"] == decoded + len(trace)
    assert decode_counts["bank_row"] == 0
    assert len(trace._decoded) == 2
    for policy in POLICIES:
        fresh = spec.trace(INSTRUCTIONS)
        assert _run(fresh, policy, mapping, org) == shared[policy], policy


def test_decoded_columns_match_bank_row():
    trace = BENCHMARKS_BY_NAME["milc"].trace(INSTRUCTIONS, calibrate=False)
    for mapping in ("row-interleaved", "block-interleaved"):
        mapper = AddressMapper(DramOrganization(channels=2), policy=mapping)
        banks, rows = trace.decoded(mapper)
        assert list(zip(banks, rows)) == [
            mapper.bank_row(address) for address in trace.addresses
        ]
        assert trace.decoded(mapper) is trace.decoded(mapper)
