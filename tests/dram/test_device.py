"""Tests for the device-level DRAM model."""

import pytest

from repro.dram.device import LINE_CONVERT_CYCLES, DramDevice
from repro.errors import ConfigurationError
from repro.types import RefreshMode


class TestRefreshTransitions:
    def test_slow_self_refresh(self):
        device = DramDevice()
        device.enter_self_refresh(slow=True)
        assert device.refresh.mode is RefreshMode.SELF_REFRESH
        assert device.refresh_period_s == pytest.approx(1.024)

    def test_normal_self_refresh(self):
        device = DramDevice()
        device.enter_self_refresh(slow=False)
        assert device.refresh_period_s == pytest.approx(0.064)

    def test_exit_to_auto_refresh(self):
        device = DramDevice()
        device.enter_self_refresh(slow=True)
        device.exit_self_refresh()
        assert device.refresh.mode is RefreshMode.AUTO_REFRESH
        assert device.refresh_period_s == pytest.approx(0.064)


class TestBulkConversion:
    def test_full_memory_upgrade_is_400ms(self):
        """Paper Sec. VI-A: 16M lines at 40 cycles/line = 640M cycles = 400 ms."""
        device = DramDevice()
        assert device.bulk_convert_cycles(device.org.total_lines) == (1 << 24) * 40
        assert device.full_upgrade_seconds() == pytest.approx(0.4, rel=0.08)
        assert device.full_upgrade_seconds() == pytest.approx(0.4194304, rel=1e-9)

    def test_per_line_cost(self):
        device = DramDevice()
        assert device.bulk_convert_cycles(1) == LINE_CONVERT_CYCLES

    def test_mdt_scale_upgrade_is_50ms(self):
        """128 MB of marked regions upgrades in ~50 ms (the 8x claim)."""
        device = DramDevice()
        seconds = device.upgrade_seconds_for_regions(128, 1 << 20)
        assert seconds == pytest.approx(0.05, rel=0.08)
        assert seconds == pytest.approx(0.0524288, rel=1e-9)

    def test_regions_capped_at_memory_size(self):
        device = DramDevice()
        all_mem = device.upgrade_seconds_for_regions(1024, 1 << 20)
        over = device.upgrade_seconds_for_regions(5000, 1 << 20)
        assert over == all_mem

    def test_rejects_negative(self):
        device = DramDevice()
        with pytest.raises(ConfigurationError):
            device.bulk_convert_cycles(-1)
        with pytest.raises(ConfigurationError):
            device.upgrade_seconds_for_regions(-1, 1 << 20)
        with pytest.raises(ConfigurationError):
            device.upgrade_seconds_for_regions(1, 0)
