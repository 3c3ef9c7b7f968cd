"""Tests for the ablation sweeps."""

import pytest

from repro.analysis import sweep
from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.device import DramDevice
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME


class TestMdtSweep:
    def test_storage_and_granularity_tradeoff(self):
        out = sweep.mdt_entry_sweep(
            BENCHMARKS_BY_NAME["libq"], entry_counts=(128, 1024), coverage_factor=1.0
        )
        assert out[128]["storage_bytes"] == 16
        assert out[1024]["storage_bytes"] == 128
        # Coarser regions never track less memory than finer ones.
        assert out[128]["tracked_mb"] >= out[1024]["tracked_mb"]

    def test_upgrade_time_tracks_tracked_mb(self):
        out = sweep.mdt_entry_sweep(
            BENCHMARKS_BY_NAME["sphinx"], entry_counts=(256, 2048), coverage_factor=1.0
        )
        for row in out.values():
            expected_ms = row["tracked_mb"] / 1024 * 400.0
            assert row["upgrade_ms"] == pytest.approx(expected_ms, rel=0.1)

    @pytest.mark.parametrize(
        "name, coverage", [("libq", 1.0), ("sphinx", 1.0), ("sphinx", 1.5)]
    )
    def test_equals_per_address_replay(self, name, coverage):
        """The shared run scan gives the sweep the parent per-address
        replay's numbers, for every default table size."""
        spec = BENCHMARKS_BY_NAME[name]
        device = DramDevice()
        addresses = list(
            spec.generator().iter_read_addresses(int(coverage * spec.footprint_bytes / 64))
        )
        expected = {}
        for entries in (128, 256, 512, 1024, 2048, 4096):
            mdt = MemoryDowngradeTracker(device.org, entries=entries)
            for address in addresses:
                mdt.record_downgrade(address)
            expected[entries] = {
                "storage_bytes": mdt.storage_bytes,
                "tracked_mb": mdt.tracked_bytes / (1 << 20),
                "upgrade_ms": 1000.0
                * device.upgrade_seconds_for_regions(mdt.marked_count, mdt.region_bytes),
            }
        assert sweep.mdt_entry_sweep(spec, coverage_factor=coverage) == expected


class TestModeBitSweep:
    def test_redundancy_monotone(self):
        out = sweep.mode_bit_redundancy_sweep(ber=1e-3)
        probs = [out[r]["misresolve_p"] for r in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_paper_choice_is_safe(self):
        out = sweep.mode_bit_redundancy_sweep()
        assert out[4]["misresolve_p"] < 1e-12


class TestStrengthSweeps:
    def test_stronger_ecc_longer_period(self):
        out = sweep.ecc_strength_refresh_sweep((2, 6))
        assert out[6] > out[2]
        assert 0.9 <= out[6] <= 1.6  # ECC-6 sustains ~1 second

    def test_refresh_period_power_sweep(self):
        # 1.0 s is the paper's nominal slow period; at 1.024 s the power-law
        # BER is ~9% higher, which tips ECC-5 just past the 1e-6 target and
        # would demand one more level.
        out = sweep.refresh_period_power_sweep((0.064, 1.0))
        assert out[0.064]["idle_power_norm"] == pytest.approx(1.0)
        assert out[1.0]["idle_power_norm"] < 0.6
        assert out[0.064]["required_ecc_t"] < out[1.0]["required_ecc_t"]
        assert out[1.0]["required_ecc_t"] == 6


class TestSmdThresholdSweep:
    def test_higher_threshold_more_disabled_time(self):
        run = ScaledRun(instructions=60_000)
        subset = tuple(BENCHMARKS_BY_NAME[n] for n in ("povray", "sphinx"))
        out = sweep.smd_threshold_sweep((0.5, 8.0), run, subset)
        assert (
            out[8.0]["mean_disabled_fraction"]
            >= out[0.5]["mean_disabled_fraction"]
        )
        assert out[8.0]["never_enabled_count"] >= out[0.5]["never_enabled_count"]
