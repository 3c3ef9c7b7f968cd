"""The property suites must catch a deliberately injected codec regression.

The fast codec path folds precomputed chunk tables cached process-wide
in ``repro.ecc.matrix._CACHE``.  A single flipped bit in a cached parity
table is exactly the silent-regression shape the fidelity gate exists to
catch: encode keeps succeeding, the output is just wrong.  These tests
corrupt the live cache entry, assert the fast-vs-reference divergence
detector trips, then restore and verify the detector goes quiet.
"""

import pytest

import repro.ecc.matrix as matrix
from repro.ecc.bch import BchCode
from repro.fidelity.properties import codec_divergences

DATA_BITS = 64
T = 3


@pytest.fixture
def fresh_codec():
    """A codec over a clean table cache, cleaned up again afterwards."""
    matrix.clear_table_cache()
    try:
        yield BchCode(t=T, data_bits=DATA_BITS)
    finally:
        matrix.clear_table_cache()


def _bch_tables():
    """The cached _BchTables entry (parity + syndrome chunk tables)."""
    # Chunk tables live under "bch" (the generator under "bch-generator").
    for key, value in matrix._CACHE.items():
        if key[0] == "bch" and hasattr(value, "parity"):
            return value
    raise AssertionError("no BCH chunk tables in the matrix cache")


WORDS = [0, 1, 0xDEADBEEF, 2**DATA_BITS - 1, 0x0123_4567_89AB_CDEF]


def test_injected_cache_corruption_is_detected(fresh_codec):
    code = fresh_codec
    code.encode(1)  # populate the cache
    assert codec_divergences(code, WORDS, flip_bits=T) == []

    tables = _bch_tables()
    tables.parity[0][1] ^= 1  # flip one bit of one table entry
    try:
        divergences = codec_divergences(code, WORDS, flip_bits=T)
        assert divergences, "corrupted parity table went undetected"
        assert any("encode" in d for d in divergences)
    finally:
        tables.parity[0][1] ^= 1  # restore for any codec sharing the tables

    assert codec_divergences(code, WORDS, flip_bits=T) == []


def test_cache_clear_rebuilds_clean_tables(fresh_codec):
    code = fresh_codec
    code.encode(1)
    tables = _bch_tables()
    tables.parity[0][1] ^= 1
    assert codec_divergences(code, [1]) != []
    # clear_table_cache is the documented recovery path: a new codec
    # rebuilds its tables from the polynomial definition.
    matrix.clear_table_cache()
    rebuilt = BchCode(t=T, data_bits=DATA_BITS)
    assert codec_divergences(rebuilt, WORDS, flip_bits=T) == []


def test_syndrome_corruption_detected_via_decode(fresh_codec):
    code = fresh_codec
    # The syndrome chunk tables are indexed by byte value: decoding a
    # word folds entry [chunk][byte] for each 8-bit chunk.  Corrupt the
    # exact entry a *clean* codeword folds for its lowest byte — the
    # fast path then computes a nonzero syndrome for a valid codeword,
    # while the untouched reference still sees it as clean.
    data = next(d for d in range(1, 512) if code.encode(d) & 0xFF)
    word = code.encode(data)
    low_byte = word & 0xFF
    assert code.check(word)  # sanity: valid codeword, clean tables
    tables = _bch_tables()
    # XOR in the parity-check column of codeword position 1 (that is
    # what entry [0][2] holds): folding the clean word now produces the
    # syndrome of a genuine single-bit error, so the fast decoder
    # miscorrects a position the reference decoder never touches.
    original = tables.syndrome[0][low_byte]
    tables.syndrome[0][low_byte] ^= tables.syndrome[0][2]
    try:
        assert not code.check(word), "corrupted syndrome table went undetected"
        try:
            fast = code.decode(word)
            fast_outcome = (fast.data, tuple(sorted(fast.corrected_positions)))
        except Exception as exc:
            fast_outcome = type(exc).__name__
        reference = code.decode_reference(word)
        assert reference.corrected_positions == ()
        reference_outcome = (reference.data, ())
        assert fast_outcome != reference_outcome, (
            "corrupted syndrome table went undetected"
        )
    finally:
        tables.syndrome[0][low_byte] = original
    restored = code.decode(word)
    assert restored.data == data and restored.corrected_positions == ()
