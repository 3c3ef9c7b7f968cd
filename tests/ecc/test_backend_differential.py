"""Differential harness: batch API vs per-word fast path vs reference.

Each codec's maps are computed three ways:

* the batch API (``encode_batch``/``decode_batch`` on :class:`BchCode`
  and :class:`LineCodec`), a loop over the per-word calls that returns
  decode failures as exception instances instead of raising;
* the per-word fast path (``encode``/``check``/``decode``) over the
  matrix chunk tables;
* the polynomial / per-bit reference paths (``encode_reference``/
  ``decode_reference``), the ground-truth oracle.

All three must produce *bit-identical* words, check verdicts, decode
outcomes and counter updates, including:

* batches of any size (``TestLaneGeometry`` sweeps sizes 1..130),
* all-zero and all-ones data words,
* out-of-range stored words,
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

from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.ecc.layout import LineCodec
from repro.errors import DecodingError, ModeBitError, UncorrectableError
from repro.types import EccMode

#: Small data length keeps the polynomial oracle affordable per example.
DATA_BITS = 40

_bch = BchCode(t=3, data_bits=DATA_BITS)
_bch_ext = BchCode(t=2, data_bits=DATA_BITS, extended=True)
_secded = SecDedCode(DATA_BITS)

ALL_CODES = [_bch, _bch_ext, _secded]
#: The codes with a batch API (SEC-DED is served per word).
BATCH_CODES = [_bch, _bch_ext]


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

#: Data words biased toward the degenerate values: all-zero and
#: all-ones data words show up often, surrounding random fill.
_lane_data = st.one_of(
    st.just(0),
    st.just((1 << DATA_BITS) - 1),
    st.integers(min_value=0, max_value=(1 << DATA_BITS) - 1),
)

#: Batches of 1 to 150 words.
_batch = st.lists(_lane_data, min_size=1, max_size=150)


class TestEncodeDifferential:
    """encode_batch, per-word encode and the polynomial oracle agree."""

    @given(datas=_batch)
    def test_all_codes_all_backends(self, datas):
        for code in ALL_CODES:
            reference = [code.encode_reference(d) for d in datas]
            assert [code.encode(d) for d in datas] == reference, code
            if code in BATCH_CODES:
                assert code.encode_batch(datas) == reference, code


class TestCheckDifferential:
    """Per-word ``check`` verdicts match the reference."""

    @given(
        datas=_batch,
        flips=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                       max_size=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_mixed_clean_and_dirty_lanes(self, datas, flips, seed):
        for code in ALL_CODES:
            words = _flipped(code, datas, flips, random.Random(seed))
            reference = [_reference_check(code, w) for w in words]
            assert [code.check(w) for w in words] == reference, code


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
            if code in BATCH_CODES:
                got = [_norm(r) for r in code.decode_batch(words)]
                assert got == reference, code


class TestLaneGeometry:
    """Deterministic sweeps over batch sizes and constant-word batches."""

    SIZES = [1, 15, 16, 63, 64, 65, 127, 128, 130]

    @pytest.mark.parametrize("size", SIZES)
    def test_tail_sizes_roundtrip(self, size):
        rng = random.Random(9000 + size)
        for code in BATCH_CODES:
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
        """All-zero / all-ones batches encode and check like the oracle."""
        datas = [fill] * 96
        for code in ALL_CODES:
            reference = [code.encode_reference(d) for d in datas]
            words = [code.encode(d) for d in datas]
            assert words == reference, code
            if code in BATCH_CODES:
                assert code.encode_batch(datas) == reference, code
            assert [code.check(w) for w in words] == [True] * len(words)

    def test_out_of_range_words_agree(self):
        """Negative / oversized stored words in a batch decode as detected."""
        rng = random.Random(77)
        for code in ALL_CODES:
            words = [code.encode_reference(rng.getrandbits(DATA_BITS))
                     for _ in range(40)]
            words[3] = -5
            words[17] = 1 << (code.codeword_bits + 9)
            words[39] = -(1 << 200)
            scalar = _scalar_decodes(code, words)
            if code in BATCH_CODES:
                got = [_norm(r) for r in code.decode_batch(words)]
                assert got == scalar, code
            for i, want in enumerate(_reference_decodes(code, words)):
                assert scalar[i] == want, (code, i)
                assert code.check(words[i]) == _reference_check(code, words[i])


class TestCounterAgreement:
    """A batch call updates the codec counters exactly as per-word calls."""

    def test_counters_identical_batch_and_per_word(self):
        rng = random.Random(31)
        code = BchCode(t=2, data_bits=DATA_BITS)
        for size in (15, 80):
            datas = [rng.getrandbits(DATA_BITS) for _ in range(size)]
            words = [code.encode_reference(d) for d in datas]
            for i in range(0, size, 7):
                words[i] ^= 1 << (i % code.codeword_bits)

            code.counters.reset()
            code.encode_batch(datas)
            code.decode_batch(words)
            batched = code.counters.as_dict()

            code.counters.reset()
            for data in datas:
                code.encode(data)
            for word in words:
                _catching(code.decode, word)
            assert code.counters.as_dict() == batched, size

    def test_line_codec_batch_matches_per_word(self):
        """LineCodec batches: same outcomes and counters as decode()."""
        rng = random.Random(32)
        datas = [rng.getrandbits(512) for _ in range(24)]
        outcomes = {}
        for path in ("batch", "per-word"):
            codec = LineCodec()
            stored = []
            for mode in (EccMode.WEAK, EccMode.STRONG):
                if path == "batch":
                    stored += codec.encode_batch(datas, mode)
                else:
                    stored += [codec.encode(d, mode) for d in datas]
            # 0..7 flips anywhere, mode replicas included.
            flip_rng = random.Random(33)
            for i in range(len(stored)):
                for p in flip_rng.sample(range(codec.stored_bits), i % 8):
                    stored[i] ^= 1 << p
            if path == "batch":
                results = codec.decode_batch(stored)
            else:
                results = [_catching_line(codec.decode, w) for w in stored]
            outcomes[path] = (
                stored,
                [_norm_line(r) for r in results],
                codec.weak_code.counters.as_dict(),
                codec.strong_code.counters.as_dict(),
            )
        assert outcomes["batch"] == outcomes["per-word"]


def _catching_line(decode, stored):
    try:
        return decode(stored)
    except (DecodingError, ModeBitError) as exc:
        return exc


def _norm_line(outcome):
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return outcome
