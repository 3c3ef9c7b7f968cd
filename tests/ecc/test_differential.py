"""Differential harness: the matrix fast path vs. the reference path.

The fast codecs (:mod:`repro.ecc.matrix` tables) and the reference
codecs (polynomial division / per-bit walks) must be *bit-identical* —
same codewords, same corrected positions, same detected-uncorrectable
verdicts.  Everything here uses seeded ``random`` so failures replay.

The bulk tests push >= 10,000 words per correction strength through both
paths; the injection tests sweep 0..t (and t+1) errors per strength.
"""

import random

import pytest

from repro.ecc.bch import BchCode, DecodeResult
from repro.ecc.hamming import SecDedCode
from repro.errors import UncorrectableError

#: Small data length keeps the reference path affordable at 10k words.
DATA_BITS = 40
WORDS_PER_T = 10_000
INJECTION_WORDS = 60


def _outcome(decode, word):
    """Decode to a comparable value: the result, or the detection verdict."""
    try:
        return decode(word)
    except UncorrectableError as exc:
        return ("uncorrectable", exc.detected_errors)


class TestBchBulkDifferential:
    """>= 10k random words per t: encode and clean decode are identical."""

    @pytest.mark.slow
    @pytest.mark.parametrize("t", range(1, 7))
    def test_bulk_words_identical(self, t):
        code = BchCode(t=t, data_bits=DATA_BITS)
        rng = random.Random(1000 + t)
        for _ in range(WORDS_PER_T):
            data = rng.getrandbits(DATA_BITS)
            fast = code.encode(data)
            assert fast == code.encode_reference(data)
            result = code.decode(fast)
            assert result == code.decode_reference(fast)
            assert result.data == data
            assert result.corrected_positions == ()


class TestBchInjectionDifferential:
    """0..t and t+1 injected errors: verdicts and positions agree."""

    @pytest.mark.parametrize("t", range(1, 7))
    def test_error_injection(self, t):
        code = BchCode(t=t, data_bits=DATA_BITS)
        rng = random.Random(2000 + t)
        for n_errors in range(t + 2):
            for _ in range(INJECTION_WORDS):
                data = rng.getrandbits(DATA_BITS)
                word = code.encode_reference(data)
                positions = rng.sample(range(code.codeword_bits), n_errors)
                for p in positions:
                    word ^= 1 << p
                fast = _outcome(code.decode, word)
                ref = _outcome(code.decode_reference, word)
                assert fast == ref, (t, n_errors, positions)
                if n_errors <= t:
                    assert isinstance(ref, DecodeResult)
                    assert ref.data == data
                    assert sorted(ref.corrected_positions) == sorted(positions)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_extended_code_injection(self, t):
        """The extended (t+1-detecting) variant agrees on every verdict."""
        code = BchCode(t=t, data_bits=DATA_BITS, extended=True)
        rng = random.Random(3000 + t)
        for n_errors in range(t + 2):
            for _ in range(INJECTION_WORDS):
                data = rng.getrandbits(DATA_BITS)
                word = code.encode_reference(data)
                for p in rng.sample(range(code.codeword_bits), n_errors):
                    word ^= 1 << p
                assert _outcome(code.decode, word) == _outcome(
                    code.decode_reference, word
                ), (t, n_errors)

    @pytest.mark.parametrize("t", [2, 6])
    def test_full_size_paper_code(self, t):
        """Spot-check the actual 516-bit paper configuration."""
        code = BchCode(t=t, data_bits=516)
        rng = random.Random(4000 + t)
        for n_errors in range(t + 2):
            for _ in range(5):
                data = rng.getrandbits(516)
                word = code.encode_reference(data)
                assert word == code.encode(data)
                for p in rng.sample(range(code.codeword_bits), n_errors):
                    word ^= 1 << p
                assert _outcome(code.decode, word) == _outcome(
                    code.decode_reference, word
                )


class TestBatchConsistency:
    """Batch APIs are elementwise identical to the scalar fast path."""

    def test_bch_batch_matches_scalar(self):
        code = BchCode(t=3, data_bits=DATA_BITS)
        rng = random.Random(51)
        datas = [rng.getrandbits(DATA_BITS) for _ in range(200)]
        words = code.encode_batch(datas)
        assert words == [code.encode(d) for d in datas]
        corrupted = []
        for word in words:
            for p in rng.sample(range(code.codeword_bits), rng.randint(0, 4)):
                word ^= 1 << p
            corrupted.append(word)
        batch = code.decode_batch(corrupted)
        for word, entry in zip(corrupted, batch):
            scalar = _outcome(code.decode, word)
            if isinstance(entry, UncorrectableError):
                assert scalar == ("uncorrectable", entry.detected_errors)
            else:
                assert entry == scalar
        assert [code.check(w) for w in words] == [True] * len(words)
        assert [code.check(w) for w in corrupted] == [
            isinstance(e, DecodeResult) and not e.corrected_positions
            for e in batch
        ]

    def test_secded_batch_matches_scalar(self):
        """SEC-DED has no batch API: a run of per-word calls vs the oracle."""
        code = SecDedCode(72)
        rng = random.Random(52)
        datas = [rng.getrandbits(72) for _ in range(100)]
        words = [code.encode(d) for d in datas]
        assert words == [code.encode_reference(d) for d in datas]
        results = [code.decode(w) for w in words]
        assert [r.data for r in results] == datas
        assert all(r.corrected_position is None for r in results)
        assert code.counters.encodes == code.counters.decodes == 100



class TestSecDedDifferential:
    def test_bulk_and_injection(self):
        code = SecDedCode(64)
        rng = random.Random(61)
        for _ in range(2000):
            data = rng.getrandbits(64)
            word = code.encode(data)
            assert word == code.encode_reference(data)
            n_errors = rng.randint(0, 3)
            for p in rng.sample(range(code.codeword_bits), n_errors):
                word ^= 1 << p
            fast = _outcome(code.decode, word)
            ref = _outcome(code.decode_reference, word)
            assert fast == ref, n_errors
            if n_errors <= 1:
                assert ref.data == data

