"""Tests for the system configuration and scaled-run bookkeeping."""

import pytest

from repro.core.policy import Ecc6Policy, MeccPolicy, NoEccPolicy, SecdedPolicy
from repro.core.smd import PAPER_QUANTUM_CYCLES
from repro.errors import ConfigurationError
from repro.sim.system import PAPER_INSTRUCTIONS, ScaledRun, SystemConfig


class TestSystemConfig:
    def test_paper_latencies(self):
        config = SystemConfig()
        assert config.weak_scheme().decode_cycles == 2
        assert config.strong_scheme().decode_cycles == 30
        assert config.strong_scheme().correctable == 6

    def test_policy_factories(self):
        config = SystemConfig()
        assert isinstance(config.baseline_policy(), NoEccPolicy)
        assert isinstance(config.secded_policy(), SecdedPolicy)
        assert isinstance(config.ecc6_policy(), Ecc6Policy)
        assert isinstance(config.mecc_policy(), MeccPolicy)

    def test_policy_by_name(self):
        config = SystemConfig()
        assert config.policy_by_name("baseline").name == "Baseline"
        assert config.policy_by_name("secded").name == "SECDED"
        assert config.policy_by_name("ecc6").name == "ECC-6"
        assert config.policy_by_name("mecc").name == "MECC"
        assert config.policy_by_name("mecc+smd").name == "MECC+SMD"

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            SystemConfig().policy_by_name("parity")

    def test_custom_decode_latency(self):
        config = SystemConfig(strong_decode_cycles=60)
        assert config.strong_scheme().decode_cycles == 60
        policy = config.mecc_policy()
        action = policy.on_read(0, 0)
        assert action.decode_cycles == 60


class TestDescribe:
    def test_matches_asdict_and_round_trips(self):
        import dataclasses

        from repro.dram.config import DramTimings

        config = SystemConfig(timings=DramTimings(t_rcd=30), strong_t=8)
        assert config.describe() == dataclasses.asdict(config)
        assert SystemConfig.from_describe(config.describe()) == config

    def test_each_call_returns_a_fresh_copy(self):
        config = SystemConfig(weak_decode_cycles=3)
        first = config.describe()
        first["org"]["banks"] = 999
        first["strong_t"] = 99
        second = config.describe()
        assert second["org"]["banks"] == config.org.banks
        assert second["strong_t"] == config.strong_t
        assert second is not first and second["power"] is not first["power"]


class TestScaledRun:
    def test_paper_scale(self):
        run = ScaledRun(instructions=2_000_000)
        assert run.scale_factor == PAPER_INSTRUCTIONS / 2_000_000
        assert run.quantum_cycles == pytest.approx(
            PAPER_QUANTUM_CYCLES / run.scale_factor, abs=1
        )

    def test_full_scale_identity(self):
        run = ScaledRun(instructions=PAPER_INSTRUCTIONS)
        assert run.scale_factor == 1.0
        assert run.quantum_cycles == PAPER_QUANTUM_CYCLES

    def test_to_paper_seconds(self):
        run = ScaledRun(instructions=4_000_000)  # 1000x scale
        # 1.6M simulated cycles stand for 1.6B cycles = 1 second.
        assert run.to_paper_seconds(1_600_000) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScaledRun(instructions=0)
        with pytest.raises(ConfigurationError):
            ScaledRun(instructions=10, paper_instructions=5)
