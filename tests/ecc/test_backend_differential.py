"""Three-way differential harness: lane engine vs scalar fold vs reference.

Each codec carries three implementations of the same maps:

* the batch API (``encode_batch``/``check_batch``/``decode_batch``),
  which runs batches of at least ``MIN_SLICED_BATCH`` words on the
  bitsliced lane engine and smaller batches on the scalar fold;
* the per-word scalar calls (``encode``/``check``/``decode``) over the
  matrix chunk tables;
* the polynomial / per-bit reference paths (``encode_reference``/
  ``decode_reference``), the ground-truth oracle.

All three must produce *bit-identical* words, check verdicts, and decode
outcomes, including:

* batches whose length is not a multiple of the 64-lane width (tails),
* all-zero and all-ones lanes (degenerate slice values),
* beyond-capacity error patterns (coset-determined miscorrection must be
  the *same* miscorrection everywhere).

Hypothesis profiles are installed by ``tests/conftest.py``: the pinned
``ci`` profile by default, ``REPRO_HYPOTHESIS_PROFILE=nightly`` for the
thorough tier.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.ecc.backend import MIN_SLICED_BATCH
from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.errors import UncorrectableError

#: Small data length keeps the polynomial oracle affordable per example.
DATA_BITS = 40

_bch = BchCode(t=3, data_bits=DATA_BITS)
_bch_ext = BchCode(t=2, data_bits=DATA_BITS, extended=True)
_secded = SecDedCode(DATA_BITS)

ALL_CODES = [_bch, _bch_ext, _secded]


def _norm(outcome):
    """Decode outcome -> comparable value (results compare by dataclass eq)."""
    if isinstance(outcome, UncorrectableError):
        return ("uncorrectable", type(outcome).__name__, str(outcome))
    return outcome


def _catching(decode, word):
    try:
        return decode(word)
    except UncorrectableError as exc:
        return exc


def _scalar_decodes(code, words):
    return [_norm(_catching(code.decode, w)) for w in words]


def _reference_decodes(code, words):
    return [_norm(_catching(code.decode_reference, w)) for w in words]


def _reference_check(code, word):
    """A word is valid iff the reference decode re-encodes to it."""
    outcome = _catching(code.decode_reference, word)
    if isinstance(outcome, UncorrectableError):
        return False
    return code.encode_reference(outcome.data) == word


def _flipped(code, datas, flips, rng):
    """Reference codewords of ``datas`` with ``flips[i]`` random bit flips."""
    words = []
    for data, n_flips in zip(datas, flips):
        word = code.encode_reference(data)
        for p in rng.sample(range(code.codeword_bits),
                            min(n_flips, code.codeword_bits)):
            word ^= 1 << p
        words.append(word)
    return words


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Lane values biased toward the degenerate slices: all-zero and
#: all-ones data words show up often, surrounding random fill.
_lane_data = st.one_of(
    st.just(0),
    st.just((1 << DATA_BITS) - 1),
    st.integers(min_value=0, max_value=(1 << DATA_BITS) - 1),
)

#: Batch sizes straddling the 64-lane width: tails, exact multiples,
#: and the sub-MIN_SLICED_BATCH scalar path all get generated.
_batch = st.lists(_lane_data, min_size=1, max_size=150)


class TestEncodeDifferential:
    """encode_batch, per-word encode and the polynomial oracle agree."""

    @given(datas=_batch)
    def test_all_codes_all_backends(self, datas):
        for code in ALL_CODES:
            reference = [code.encode_reference(d) for d in datas]
            assert [code.encode(d) for d in datas] == reference, code
            assert code.encode_batch(datas) == reference, code


class TestCheckDifferential:
    """check_batch verdicts match scalar ``check`` and the reference."""

    @given(
        datas=_batch,
        flips=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                       max_size=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_mixed_clean_and_dirty_lanes(self, datas, flips, seed):
        for code in ALL_CODES:
            words = _flipped(code, datas, flips, random.Random(seed))
            scalar = [code.check(w) for w in words]
            reference = [_reference_check(code, w) for w in words]
            assert scalar == reference, code
            assert code.check_batch(words) == scalar, code


class TestDecodeDifferential:
    """decode_batch outcomes (incl. beyond-capacity cosets) are identical."""

    @given(
        datas=_batch,
        flips=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                       max_size=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_and_beyond_capacity(self, datas, flips, seed):
        for code in ALL_CODES:
            words = _flipped(code, datas, flips, random.Random(seed))
            reference = _reference_decodes(code, words)
            assert _scalar_decodes(code, words) == reference, code
            got = [_norm(r) for r in code.decode_batch(words)]
            assert got == reference, code


class TestLaneGeometry:
    """Deterministic sweeps over tail sizes and degenerate lane fills."""

    #: 1 lane, just below/at/above MIN_SLICED_BATCH, one word short of a
    #: full slice, exact slices, and non-multiple-of-64 tails.
    SIZES = [1, 15, 16, 63, 64, 65, 127, 128, 130]

    @pytest.mark.parametrize("size", SIZES)
    def test_tail_sizes_roundtrip(self, size):
        rng = random.Random(9000 + size)
        for code in ALL_CODES:
            datas = [rng.getrandbits(DATA_BITS) for _ in range(size)]
            reference = [code.encode_reference(d) for d in datas]
            assert [code.encode(d) for d in datas] == reference, (code, size)
            words = code.encode_batch(datas)
            assert words == reference, (code, size)
            decoded = code.decode_batch(words)
            assert [r.data for r in decoded] == datas
            assert decoded == [code.decode_reference(w) for w in words]

    @pytest.mark.parametrize("fill", [0, (1 << DATA_BITS) - 1])
    def test_constant_lanes(self, fill):
        """All-zero / all-ones batches: every slice is 0 or the lane mask."""
        datas = [fill] * 96
        for code in ALL_CODES:
            reference = [code.encode_reference(d) for d in datas]
            assert [code.encode(d) for d in datas] == reference, code
            words = code.encode_batch(datas)
            assert words == reference, code
            assert code.check_batch(words) == [True] * len(words)
            assert [code.check(w) for w in words] == [True] * len(words)

    def test_out_of_range_words_agree(self):
        """Negative / oversized stored words never crash the lane engine."""
        rng = random.Random(77)
        for code in ALL_CODES:
            words = [code.encode_reference(rng.getrandbits(DATA_BITS))
                     for _ in range(40)]
            words[3] = -5
            words[17] = 1 << (code.codeword_bits + 9)
            words[39] = -(1 << 200)
            scalar = _scalar_decodes(code, words)
            assert [_norm(r) for r in code.decode_batch(words)] == scalar, code
            assert code.check_batch(words) == [code.check(w) for w in words]
            for i, want in enumerate(_reference_decodes(code, words)):
                if 0 <= words[i] < (1 << code.codeword_bits):
                    assert scalar[i] == want, (code, i)


class TestCounterAgreement:
    """The batch path never changes the semantic codec counters."""

    def test_counters_identical_minus_backend_ops(self):
        rng = random.Random(31)
        code = BchCode(t=2, data_bits=DATA_BITS)
        for size, path in ((MIN_SLICED_BATCH - 1, "matrix"), (80, "bitsliced")):
            datas = [rng.getrandbits(DATA_BITS) for _ in range(size)]
            words = [code.encode_reference(d) for d in datas]
            for i in range(0, size, 7):
                words[i] ^= 1 << (i % code.codeword_bits)

            code.counters.reset()
            code.encode_batch(datas)
            code.check_batch(words)
            code.decode_batch(words)
            batched = code.counters.as_dict()
            assert batched.pop("backend_ops") == {path: 3 * size}

            code.counters.reset()
            for data in datas:
                code.encode(data)
            for word in words:
                code.check(word)
                _catching(code.decode, word)
            scalar = code.counters.as_dict()
            assert scalar.pop("backend_ops") == {}
            assert batched == scalar, size
