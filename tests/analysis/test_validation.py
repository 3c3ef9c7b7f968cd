"""Tests for the analytic-vs-Monte-Carlo validation battery."""

import math
import random

import pytest

from repro.analysis.validation import (
    _DRAW_BLOCK,
    ValidationResult,
    _count_line_failures,
    run_all_validations,
    validate_line_failure,
    validate_refresh_linearity,
    validate_retention_inverse,
)
from repro.errors import ConfigurationError


class TestValidationResult:
    def test_relative_error(self):
        result = ValidationResult("x", analytic=0.1, empirical=0.11, trials=100)
        assert result.relative_error == pytest.approx(0.1)

    def test_agrees_within_tolerance(self):
        result = ValidationResult("x", analytic=0.1, empirical=0.105, trials=10_000)
        assert result.agrees(0.1)

    def test_agrees_via_counting_noise(self):
        """A rare event measured with few expected counts passes on the
        4-sigma band even when the relative error is large."""
        result = ValidationResult("x", analytic=1e-4, empirical=2e-4, trials=10_000)
        assert result.relative_error == pytest.approx(1.0)
        assert result.agrees(0.1)

    def test_disagreement_detected(self):
        result = ValidationResult("x", analytic=0.5, empirical=0.9, trials=10_000)
        assert not result.agrees(0.1)


class TestBattery:
    def test_line_failure_validates(self):
        result = validate_line_failure(trials=15_000, seed=3)
        assert result.agrees(0.25)
        assert result.analytic > 0

    def test_retention_inverse_validates(self):
        result = validate_retention_inverse(samples=30_000)
        assert result.agrees(0.15)

    def test_refresh_linearity_is_exact(self):
        result = validate_refresh_linearity()
        assert result.empirical == pytest.approx(1.0, rel=1e-9)

    def test_run_all(self):
        results = run_all_validations()
        assert len(results) == 3
        for result in results:
            assert result.agrees(0.25), result.what

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            validate_line_failure(trials=0)
        with pytest.raises(ConfigurationError):
            validate_retention_inverse(samples=0)
        with pytest.raises(ConfigurationError):
            validate_refresh_linearity(periods_s=(0.064,))


class TestLineFailureMemo:
    def test_second_identical_call_returns_the_same_object(self, monkeypatch):
        from types import SimpleNamespace

        from repro.analysis import validation

        first = validate_line_failure(trials=500, seed=11)

        def no_draws(seed):
            raise AssertionError("a memoized call must not sample again")

        monkeypatch.setattr(validation, "random", SimpleNamespace(Random=no_draws))
        assert validate_line_failure(trials=500, seed=11) is first
        with pytest.raises(AssertionError):
            validate_line_failure(trials=501, seed=11)  # new arguments do draw

    def test_claim_call_and_battery_share_one_draw(self):
        """VAL-LINE-FAILURE calls with defaults, the battery with keywords."""
        from repro.fidelity.claims import CLAIMS

        claim = CLAIMS["VAL-LINE-FAILURE"]
        assert claim.compute(None) == validate_line_failure().relative_error
        assert run_all_validations()[0] is validate_line_failure()
        assert validate_line_failure(0.004, 6, 576, 40_000, 0) is (
            validate_line_failure(trials=40_000, seed=0)
        )


def _per_draw_failures(draw, ber, ecc_t, line_bits, trials):
    """The per-bit loop the stream scan replaces, kept as its oracle."""
    failures = 0
    for _ in range(trials):
        count = 0
        for _ in range(line_bits):
            if draw() < ber:
                count += 1
                if count > ecc_t:
                    break
        if count > ecc_t:
            failures += 1
    return failures


class _WordStream:
    """A Mersenne-Twister stand-in that replays fixed 32-bit words.

    ``getrandbits`` and ``random`` read the words the way CPython's
    generator does, so a constructed stream drives both the scan and
    the per-draw oracle.
    """

    def __init__(self, words):
        self.words = list(words)
        self.pos = 0

    def _take(self, n):
        words = self.words[self.pos : self.pos + n]
        assert len(words) == n, "stream exhausted"
        self.pos += n
        return words

    def getrandbits(self, k):
        assert k % 32 == 0
        return sum(word << (32 * i) for i, word in enumerate(self._take(k // 32)))

    def random(self):
        w0, w1 = self._take(2)
        return ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)


def _scan(seed, ber, ecc_t, line_bits, trials):
    return _count_line_failures(
        random.Random(seed).getrandbits, ber, ecc_t, line_bits, trials
    )


def _loop(seed, ber, ecc_t, line_bits, trials):
    return _per_draw_failures(random.Random(seed).random, ber, ecc_t, line_bits, trials)


class TestStreamScan:
    """``_count_line_failures`` counts what the per-draw loop counts."""

    def test_word_stream_reads_cpython_words(self):
        """random() draw j is words 2j, 2j+1 of getrandbits, low word first."""
        words_rng, draws_rng = random.Random(99), random.Random(99)
        bits = words_rng.getrandbits(64 * 500)
        stream = _WordStream((bits >> (32 * i)) & 0xFFFFFFFF for i in range(1000))
        assert [stream.random() for _ in range(500)] == [
            draws_rng.random() for _ in range(500)
        ]

    @pytest.mark.parametrize(
        "seed, ber, ecc_t, line_bits, trials",
        [
            (0, 0.004, 6, 576, 400),
            (3, 0.004, 6, 576, 1),
            (11, 0.02, 6, 576, 200),
            (11, 0.02, 0, 576, 200),
            (5, 0.02, 1, 72, 500),
            (7, 0.05, 6, 64, 500),
            (2, 0.0001, 0, 576, 300),
            (4, 0.3, 6, 576, 200),
            (4, 0.3, 200, 576, 40),
            (9, 0.004, 0, 577, 200),
            (8, 0.001, 2, _DRAW_BLOCK + 1_000, 4),
            (6, 0.0002, 6, 3 * _DRAW_BLOCK + 17, 2),
            (1, 0.004, 6, 1, 3_000),
            (1, 0.5, 0, 1, 3_000),
            (12345, 0.004, 576, 576, 50),
            (12345, 0.9, 576, 576, 50),
            (12345, 0.9, 1_000, 576, 50),
        ],
    )
    def test_matches_per_draw_loop(self, seed, ber, ecc_t, line_bits, trials):
        assert _scan(seed, ber, ecc_t, line_bits, trials) == _loop(
            seed, ber, ecc_t, line_bits, trials
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "ber", [0.0, -0.5, 1.0, 1.5, math.inf, math.nan, 5e-324, 1e-300]
    )
    def test_degenerate_bers(self, seed, ber):
        """No draw flips, or every draw flips, as the loop's comparison says."""
        for ecc_t, line_bits in ((0, 8), (6, 576), (576, 576)):
            assert _scan(seed, ber, ecc_t, line_bits, 50) == _loop(
                seed, ber, ecc_t, line_bits, 50
            )

    def test_every_draw_a_hit_fails_every_line(self):
        assert _scan(0, 1.0, 6, 576, 100) == 100
        assert _scan(0, 1.0, 576, 576, 100) == 0

    def test_second_word_decides_a_tied_top_byte(self):
        """A first word at the limit's top byte needs the second word."""
        w0 = 0x01ABCDEF  # top byte 0x01
        limit = ((w0 >> 5) << 26) + (1 << 25)
        ber = limit / 2.0**53  # exact: the limit is below 2**53
        assert (limit - 1) >> 45 == w0 >> 24
        below = (((1 << 25) - 1) << 6) | 0x3F  # w1 >> 6 == limit's low part - 1
        at = (1 << 25) << 6  # w1 >> 6 == limit's low part: not below
        miss = 0xFFFFFFFF
        pattern = [w0, below, w0, at, w0, below, miss, miss]
        for ecc_t in (0, 1, 2):
            line_bits, trials = 4, 3
            words = (pattern * 6)[: 2 * line_bits * trials]
            expected = _per_draw_failures(
                _WordStream(words).random, ber, ecc_t, line_bits, trials
            )
            got = _count_line_failures(
                _WordStream(words).getrandbits, ber, ecc_t, line_bits, trials
            )
            assert got == expected, ecc_t
        # Sanity: the pattern really has ties on both sides of the limit.
        draw = _WordStream(pattern).random
        assert [draw() < ber for _ in range(4)] == [True, False, True, False]

    def test_default_call_count(self):
        result = validate_line_failure()
        assert round(result.empirical * result.trials) == 382
