"""Persona-mix population sampling: determinism and validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fleet.population import (
    DEFAULT_MIX,
    IDLE_BOUNDS,
    SAMPLE_CHUNK,
    DeviceSample,
    PopulationModel,
    _splitmix64,
    _unit_lanes,
    parse_mix,
)
from repro.workloads.personas import ALL_PERSONAS_BY_NAME

MASK64 = (1 << 64) - 1


def _unit(seed_hash, index, stream):
    """The scalar per-attribute hash the lanes replace, kept as their oracle."""
    word = _splitmix64(seed_hash ^ _splitmix64(index * 3 + stream))
    return word / float(1 << 64)


def _scalar_device(model, index):
    """Device ``index`` sampled one attribute at a time (the lane-free sampler)."""
    seed_hash = _splitmix64(model.seed & MASK64)
    thresholds, acc = [], 0.0
    for persona in model.personas:
        acc += model.mix[persona.name]
        thresholds.append(acc)
    thresholds[-1] = 1.0
    pick = _unit(seed_hash, index, 0)
    persona = model.personas[-1]
    for cursor, threshold in enumerate(thresholds):
        if pick < threshold:
            persona = model.personas[cursor]
            break
    lo, hi = IDLE_BOUNDS
    idle = persona.idle_fraction + model.idle_jitter * (
        2.0 * _unit(seed_hash, index, 1) - 1.0
    )
    idle = min(max(idle, lo), hi)
    scale = 1.0 + model.session_jitter * (2.0 * _unit(seed_hash, index, 2) - 1.0)
    sessions = max(1, round(persona.sessions_per_day * scale))
    return DeviceSample(index, persona, idle, sessions)


#: Device indices whose counters ``3i + s`` cross or pass ``2**64``.
WRAPPING = [(1 << 64) // 3 - 2, (1 << 64) // 3, 1 << 64, (1 << 65) + 1]


class TestLanes:
    """The lane hash equals the scalar hash, lane for lane."""

    @pytest.mark.parametrize(
        "seed", [0, 7, -1, -(1 << 70), 1 << 64, (1 << 64) + 5, (1 << 80) + 3]
    )
    @pytest.mark.parametrize(
        "start", [0, 1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, 1 << 61, *WRAPPING]
    )
    def test_lanes_equal_scalar_unit(self, seed, start):
        seed_hash = _splitmix64(seed & MASK64)
        count = 5
        expected = [
            _unit(seed_hash, index, stream)
            for index in range(start, start + count)
            for stream in range(3)
        ]
        assert _unit_lanes(seed_hash, 3 * start, 3 * count) == expected

    def test_full_chunk_equals_scalar_unit(self):
        seed_hash = _splitmix64(42)
        expected = [
            _unit(seed_hash, index, stream)
            for index in range(SAMPLE_CHUNK)
            for stream in range(3)
        ]
        assert _unit_lanes(seed_hash, 0, 3 * SAMPLE_CHUNK) == expected

    def test_empty_range(self):
        assert _unit_lanes(_splitmix64(0), 12, 0) == []

    @pytest.mark.parametrize(
        "seed, mix",
        [
            (0, None),
            (-5, {"light": 1.0, "heavy": 0.0, "moderate": 2.0}),
            ((1 << 64) + 9, {"minimal": 1.0, "gamer": 3.0}),
            (3, {"heavy": 0.0, "light": 1.0}),  # zero weight at the top
        ],
    )
    def test_devices_equal_scalar_sampler(self, seed, mix):
        model = PopulationModel(mix=mix, seed=seed, idle_jitter=0.2)
        start = SAMPLE_CHUNK - 40  # crosses one chunk boundary
        assert list(model.devices(start, start + 80)) == [
            _scalar_device(model, index) for index in range(start, start + 80)
        ]
        for index in (0, 1 << 61, *WRAPPING):
            assert model.device(index) == _scalar_device(model, index)

    def test_columns_come_in_sample_chunks(self):
        model = PopulationModel(seed=1)
        start, stop = 5, 5 + 2 * SAMPLE_CHUNK + 3
        chunks = list(model.columns(start, stop))
        assert [len(indices) for indices, *_ in chunks] == [
            SAMPLE_CHUNK, SAMPLE_CHUNK, 3,
        ]
        assert [index for indices, *_ in chunks for index in indices] == list(
            range(start, stop)
        )


class TestDeterminism:
    def test_same_seed_same_fleet(self):
        a = PopulationModel(seed=7)
        b = PopulationModel(seed=7)
        assert list(a.devices(0, 500)) == list(b.devices(0, 500))

    def test_different_seed_different_fleet(self):
        a = list(PopulationModel(seed=7).devices(0, 500))
        b = list(PopulationModel(seed=8).devices(0, 500))
        assert a != b

    def test_device_is_pure_function_of_index(self):
        """Chunking cannot change a device: index i is index i, always."""
        model = PopulationModel(seed=3)
        whole = list(model.devices(0, 1_000))
        for chunk_size in (1, 13, 250):
            chunked = [
                device
                for start in range(0, 1_000, chunk_size)
                for device in model.devices(
                    start, min(start + chunk_size, 1_000)
                )
            ]
            assert chunked == whole

    def test_mix_shares_converge(self):
        model = PopulationModel(seed=11)
        counts: dict[str, int] = {}
        n = 20_000
        for device in model.devices(0, n):
            name = device.persona.name
            counts[name] = counts.get(name, 0) + 1
        for name, weight in DEFAULT_MIX.items():
            assert counts[name] / n == pytest.approx(weight, abs=0.02)

    def test_jitter_respects_bounds(self):
        model = PopulationModel(seed=5, idle_jitter=0.2)
        lo, hi = IDLE_BOUNDS
        for device in model.devices(0, 2_000):
            assert lo <= device.idle_fraction <= hi
            assert device.sessions_per_day >= 1


class TestValidation:
    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationModel(mix={})

    def test_unknown_persona_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown personas"):
            PopulationModel(mix={"light": 1.0, "nosuch": 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationModel(mix={"light": -0.5, "heavy": 1.5})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationModel(mix={"light": 0.0, "heavy": 0.0})

    def test_jitter_ranges_enforced(self):
        with pytest.raises(ConfigurationError):
            PopulationModel(idle_jitter=0.5)
        with pytest.raises(ConfigurationError):
            PopulationModel(session_jitter=1.5)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationModel().device(-1)
        with pytest.raises(ConfigurationError):
            list(PopulationModel().devices(-1, 5))

    def test_extended_personas_usable(self):
        model = PopulationModel(mix={"minimal": 1.0, "gamer": 1.0}, seed=1)
        names = {d.persona.name for d in model.devices(0, 200)}
        assert names == {"minimal", "gamer"}
        assert all(name in ALL_PERSONAS_BY_NAME for name in names)

    def test_weights_normalized(self):
        model = PopulationModel(mix={"light": 3.0, "heavy": 1.0})
        assert model.mix["light"] == pytest.approx(0.75)
        assert model.mix["heavy"] == pytest.approx(0.25)


class TestParseMix:
    def test_parses_weighted_list(self):
        assert parse_mix("light:0.5, moderate:0.3,heavy:0.2") == {
            "light": 0.5, "moderate": 0.3, "heavy": 0.2,
        }

    def test_bare_name_defaults_to_one(self):
        assert parse_mix("light,heavy") == {"light": 1.0, "heavy": 1.0}

    def test_bad_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_mix("light:abc")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_mix("  , ,")
