"""Word-level codec lanes against their per-bit and scanning oracles.

* The compact SEC-DED path (:meth:`SecDedCode.decode_compact` and
  friends) decodes a weak line from its stored message and compacted
  check bits; it must agree with the reference decoder run on the full
  codeword rebuilt bit by bit.
* The closed-form degree-1/2 roots of :meth:`BchCode._chien_search`
  must return exactly the list the log-domain scan returns.
* :func:`fold_word` must refuse words wider than its tables.

Everything is seeded so failures replay.
"""

import random

import pytest

from repro.ecc.bch import BchCode, _quadratic_roots
from repro.ecc.hamming import SecDedCode
from repro.ecc.layout import LineCodec
from repro.ecc.matrix import build_chunk_tables, fold_word
from repro.errors import EncodingError, UncorrectableError
from tests.ecc.test_bch import _chien_search_full_scan

CODEC = LineCodec()
WEAK = CODEC.weak_code
MESSAGE_BITS = WEAK.data_bits  # 512 data + 4 mode replicas
CHECK_BITS = WEAK.check_bits  # overall parity + 10 Hamming checks
WORDS = 10_000


def _rebuild(code, message, checks):
    """The full SEC-DED codeword from message + compact checks, per bit."""
    word = checks & 1
    for i, pos in enumerate(code._check_positions):
        if (checks >> (i + 1)) & 1:
            word |= 1 << pos
    for i, pos in enumerate(code._data_positions):
        if (message >> i) & 1:
            word |= 1 << pos
    return word


def _compact(code, codeword):
    """The stored check field of a full codeword: parity, then 2^i bits."""
    checks = codeword & 1
    for i, pos in enumerate(code._check_positions):
        if (codeword >> pos) & 1:
            checks |= 1 << (i + 1)
    return checks


def _outcome(decode, *args):
    try:
        return decode(*args)
    except UncorrectableError as exc:
        return ("uncorrectable", str(exc), exc.detected_errors)


def _batch_outcomes(results):
    return [
        ("uncorrectable", str(r), r.detected_errors)
        if isinstance(r, UncorrectableError)
        else r
        for r in results
    ]


def _random_stored(rng, flips):
    """A clean (message, checks) pair with ``flips`` stored bits flipped.

    Flips land anywhere in the stored form: data and replica bits of the
    message, Hamming check bits and the overall-parity bit.
    """
    message = rng.getrandbits(MESSAGE_BITS)
    checks = _compact(WEAK, WEAK.encode(message))
    for bit in rng.sample(range(MESSAGE_BITS + CHECK_BITS), flips):
        if bit < MESSAGE_BITS:
            message ^= 1 << bit
        else:
            checks ^= 1 << (bit - MESSAGE_BITS)
    return message, checks


class TestCompactWeakDecode:
    def test_matches_reference_on_rebuilt_codeword(self):
        rng = random.Random(2024)
        fast = SecDedCode(MESSAGE_BITS)
        full = SecDedCode(MESSAGE_BITS)
        seen = {"clean": 0, "corrected": 0, "double": 0, "outside": 0}
        for n in range(WORDS):
            message, checks = _random_stored(rng, n % 4)
            codeword = _rebuild(WEAK, message, checks)
            got = _outcome(fast.decode_compact, message, checks)
            assert got == _outcome(WEAK.decode_reference, codeword)
            assert got == _outcome(full.decode, codeword)
            if isinstance(got, tuple):
                seen["outside" if "outside" in got[1] else "double"] += 1
            else:
                seen["clean" if got.corrected_position is None else "corrected"] += 1
        assert all(seen.values()), seen  # every verdict, incl. syndrome > max
        assert fast.counters.as_dict() == full.counters.as_dict()

    def test_reads_only_the_low_bits(self):
        """Wide or negative inputs read as the per-bit rebuild reads them."""
        rng = random.Random(5)
        for flips in (0, 1, 2):
            message, checks = _random_stored(rng, flips)
            expected = _outcome(WEAK.decode_reference, _rebuild(WEAK, message, checks))
            wide = message | (1 << (MESSAGE_BITS + 7))
            assert _outcome(WEAK.decode_compact, wide, checks | (1 << 40)) == expected
            negative = message - (1 << MESSAGE_BITS)  # same low bits
            assert _outcome(WEAK.decode_compact, negative, checks) == expected

    @pytest.mark.parametrize("size", [5, 200])
    def test_batch_matches_decode_batch_of_rebuilt_words(self, size):
        """Scalar and lane-engine batches, results and counters alike."""
        rng = random.Random(size)
        stored = [
            _random_stored(rng, rng.choice((0, 0, 0, 1, 2, 3))) for _ in range(size)
        ]
        # Every stored check bit flipped alone and in every pair.
        bits = range(CHECK_BITS)
        for mask in sorted({(1 << a) | (1 << b) for a in bits for b in bits}):
            message, checks = _random_stored(rng, 0)
            stored.insert(rng.randrange(len(stored)), (message, checks ^ mask))
        messages = [m for m, _ in stored]
        checks = [c for _, c in stored]
        fast = SecDedCode(MESSAGE_BITS)
        full = SecDedCode(MESSAGE_BITS)
        got = fast.decode_compact_batch(messages, checks)
        want = full.decode_batch([_rebuild(WEAK, m, c) for m, c in stored])
        assert _batch_outcomes(got) == _batch_outcomes(want)
        assert fast.counters.as_dict() == full.counters.as_dict()

    def test_clean_lane_batch(self):
        rng = random.Random(9)
        stored = [_random_stored(rng, 0) for _ in range(70)]
        fast = SecDedCode(MESSAGE_BITS)
        full = SecDedCode(MESSAGE_BITS)
        got = fast.decode_compact_batch([m for m, _ in stored], [c for _, c in stored])
        assert got == full.decode_batch([_rebuild(WEAK, m, c) for m, c in stored])
        assert fast.counters.as_dict() == full.counters.as_dict()


class TestCompactWeakEncode:
    def test_matches_compacted_codeword(self):
        rng = random.Random(17)
        fast = SecDedCode(MESSAGE_BITS)
        full = SecDedCode(MESSAGE_BITS)
        for _ in range(2_000):
            message = rng.getrandbits(MESSAGE_BITS)
            assert fast.encode_compact(message) == _compact(full, full.encode(message))
        assert fast.counters.as_dict() == full.counters.as_dict()

    @pytest.mark.parametrize("size", [3, 100])
    def test_batch_matches_encode_batch(self, size):
        rng = random.Random(size)
        messages = [rng.getrandbits(MESSAGE_BITS) for _ in range(size)]
        fast = SecDedCode(MESSAGE_BITS)
        full = SecDedCode(MESSAGE_BITS)
        assert fast.encode_compact_batch(messages) == [
            _compact(full, w) for w in full.encode_batch(messages)
        ]
        assert fast.counters.as_dict() == full.counters.as_dict()

    def test_rejects_oversized_data(self):
        with pytest.raises(EncodingError):
            WEAK.encode_compact(1 << MESSAGE_BITS)


def test_secded_layout_is_shared():
    a, b = SecDedCode(MESSAGE_BITS), SecDedCode(MESSAGE_BITS)
    assert a._data_positions is b._data_positions
    assert a._position_of_data is b._position_of_data


# -- closed-form BCH roots -----------------------------------------------------


def _log_domain_scan(code, sigma):
    """The bounded log-domain Chien scan over ``[0, base_len)``."""
    field = code.field
    exp, log, order = field._exp, field._log, field.order
    terms = [(log[c], k) for k, c in enumerate(sigma) if k and c]
    positions = []
    for i in range(code._base_len):
        value = sigma[0]
        for log_coeff, k in terms:
            value ^= exp[(log_coeff - i * k) % order]
        if value == 0:
            positions.append(i)
            if len(positions) == len(sigma) - 1:
                break
    return positions


def _trace(field, c):
    acc, power = 0, c
    for _ in range(field.m):
        acc ^= power
        power = field.mul(power, power)
    return acc


class TestClosedFormRoots:
    CODE = CODEC.strong_code  # ECC-6 over the 516-bit message, GF(2^10)

    def test_every_degree_one_locator(self):
        code = self.CODE
        for s1 in range(1, code.field.size):
            assert code._chien_search([1, s1]) == _log_domain_scan(code, [1, s1])

    def test_random_degree_two_locators(self):
        code = self.CODE
        field = code.field
        rng = random.Random(6)
        kinds = {"double": 0, "no_root": 0, "two": 0, "one_inside": 0}
        for n in range(WORDS):
            s1 = 0 if n % 10 == 0 else rng.randrange(1, field.size)
            sigma = [1, s1, rng.randrange(1, field.size)]
            got = code._chien_search(sigma)
            assert got == _log_domain_scan(code, sigma)
            if s1 == 0:
                kinds["double"] += 1
            elif _trace(field, field.div(sigma[2], field.mul(s1, s1))):
                assert got == []
                kinds["no_root"] += 1
            else:
                kinds["two" if len(got) == 2 else "one_inside"] += 1
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("t", [2, 6])
    def test_split_locators_against_horner_oracle(self, t):
        """Roots placed inside, past ``base_len`` and at the same spot."""
        code = BchCode(t=t, data_bits=512)
        field = code.field
        rng = random.Random(t)
        base_len = code._base_len
        for _ in range(60):
            a = rng.randrange(base_len)
            outside = rng.randrange(base_len, field.order)
            b = rng.choice((rng.randrange(base_len), outside, a))
            x, y = field.alpha_pow(a), field.alpha_pow(b)
            sigma = [1, x ^ y, field.mul(x, y)]
            got = code._chien_search(sigma)
            assert got == _chien_search_full_scan(code, sigma)
            assert got == _log_domain_scan(code, sigma)
            if a != b:
                assert got == sorted(p for p in {a, b} if p < base_len)

    def test_quadratic_table(self):
        field = self.CODE.field
        table = _quadratic_roots(field)
        for c in range(1, field.size):
            if _trace(field, c):
                assert table[c] == -1
            else:
                y = field.alpha_pow(table[c])
                assert field.mul(y, y) ^ y == c


# -- fold_word ---------------------------------------------------------------


class TestFoldWordWidth:
    TABLES = build_chunk_tables([1 << (i % 8) for i in range(20)])  # 3 tables

    def test_word_filling_every_table_folds(self):
        assert fold_word(self.TABLES, (1 << 24) - 1) == fold_word(
            self.TABLES, (1 << 20) - 1
        )

    def test_wider_word_raises(self):
        with pytest.raises(OverflowError):
            fold_word(self.TABLES, 1 << 24)

    def test_negative_word_raises(self):
        with pytest.raises(OverflowError):
            fold_word(self.TABLES, -1)
