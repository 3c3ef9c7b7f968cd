"""Unit and property tests for the BCH codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BchCode
from repro.errors import ConfigurationError, EncodingError, UncorrectableError

# Small code for fast property tests; full-size ECC-6 checked separately.
SMALL = BchCode(t=2, data_bits=64)
ECC6 = BchCode(t=6, data_bits=516)


class TestConstruction:
    def test_paper_ecc6_parity_budget(self):
        """ECC-6 over a 64B line (+4 mode bits) needs exactly 60 parity bits."""
        assert ECC6.m == 10
        assert ECC6.parity_bits == 60
        assert ECC6.codeword_bits == 576

    def test_extended_adds_one_bit(self):
        code = BchCode(t=6, data_bits=515, extended=True)
        assert code.codeword_bits == 515 + 60 + 1

    def test_auto_field_selection(self):
        assert BchCode(t=2, data_bits=64).m == 7  # 2^7-1=127 >= 64+14

    def test_rejects_bad_t(self):
        with pytest.raises(ConfigurationError):
            BchCode(t=0, data_bits=64)

    def test_rejects_bad_data_bits(self):
        with pytest.raises(ConfigurationError):
            BchCode(t=2, data_bits=0)

    def test_rejects_overfull_field(self):
        with pytest.raises(ConfigurationError):
            BchCode(t=2, data_bits=120, m=7)  # 120 + 14 > 127

    def test_parity_bits_scale_with_t(self):
        for t in range(1, 7):
            code = BchCode(t=t, data_bits=516, m=10)
            assert code.parity_bits == 10 * t


class TestEncode:
    def test_zero_data_gives_zero_codeword(self):
        assert SMALL.encode(0) == 0

    def test_encode_is_systematic(self):
        data = 0xDEADBEEF12345678
        assert SMALL.extract_data(SMALL.encode(data)) == data

    def test_rejects_oversized_data(self):
        with pytest.raises(EncodingError):
            SMALL.encode(1 << 64)

    def test_rejects_negative_data(self):
        with pytest.raises(EncodingError):
            SMALL.encode(-1)

    def test_codeword_is_multiple_of_generator(self):
        from repro.ecc.gf import gf2_poly_mod

        for data in (1, 0xFFFF, 0x123456789):
            assert gf2_poly_mod(SMALL.encode(data), SMALL.generator) == 0


class TestDecode:
    def test_clean_roundtrip(self):
        data = 0xCAFEBABE00C0FFEE
        result = SMALL.decode(SMALL.encode(data))
        assert result.data == data
        assert result.errors_corrected == 0

    @pytest.mark.parametrize("n_errors", [1, 2])
    def test_corrects_up_to_t(self, n_errors, rng):
        for _ in range(20):
            data = rng.getrandbits(64)
            word = SMALL.encode(data)
            positions = rng.sample(range(SMALL.codeword_bits), n_errors)
            for p in positions:
                word ^= 1 << p
            result = SMALL.decode(word)
            assert result.data == data
            assert sorted(result.corrected_positions) == sorted(positions)

    def test_corrects_errors_in_parity_region(self, rng):
        data = rng.getrandbits(64)
        word = SMALL.encode(data)
        word ^= 0b11  # two flips in the parity bits
        assert SMALL.decode(word).data == data

    def test_beyond_t_detected_or_miscorrected_not_crashed(self, rng):
        detected = 0
        for _ in range(30):
            data = rng.getrandbits(64)
            word = SMALL.encode(data)
            for p in rng.sample(range(SMALL.codeword_bits), 4):
                word ^= 1 << p
            try:
                SMALL.decode(word)
            except UncorrectableError:
                detected += 1
        # t+1 and beyond are mostly detected for BCH; require a majority.
        assert detected >= 15

    def test_extended_detects_t_plus_one(self, rng):
        code = BchCode(t=2, data_bits=64, extended=True)
        detected = 0
        for _ in range(30):
            data = rng.getrandbits(64)
            word = code.encode(data)
            for p in rng.sample(range(code.codeword_bits), 3):
                word ^= 1 << p
            try:
                code.decode(word)
            except UncorrectableError:
                detected += 1
        # With the overall parity bit, any odd-weight pattern of 3 errors
        # is guaranteed detected.
        assert detected == 30

    def test_extended_parity_bit_error_alone(self):
        code = BchCode(t=2, data_bits=64, extended=True)
        data = 0x123
        word = code.encode(data) ^ (1 << (code.codeword_bits - 1))
        result = code.decode(word)
        assert result.data == data
        assert result.errors_corrected == 1

    def test_rejects_out_of_range_word(self):
        with pytest.raises(UncorrectableError):
            SMALL.decode(1 << SMALL.codeword_bits)


class TestEcc6FullSize:
    """The paper's actual strong code: t=6 over 516 bits."""

    def test_corrects_six_random_errors(self, rng):
        for _ in range(5):
            data = rng.getrandbits(516)
            word = ECC6.encode(data)
            for p in rng.sample(range(ECC6.codeword_bits), 6):
                word ^= 1 << p
            result = ECC6.decode(word)
            assert result.data == data
            assert result.errors_corrected == 6

    def test_corrects_adjacent_burst_of_six(self, rng):
        data = rng.getrandbits(516)
        word = ECC6.encode(data)
        start = 200
        for p in range(start, start + 6):
            word ^= 1 << p
        assert ECC6.decode(word).data == data

    def test_seven_errors_detected_usually(self, rng):
        detected = 0
        trials = 10
        for _ in range(trials):
            data = rng.getrandbits(516)
            word = ECC6.encode(data)
            for p in rng.sample(range(ECC6.codeword_bits), 7):
                word ^= 1 << p
            try:
                ECC6.decode(word)
            except UncorrectableError:
                detected += 1
        assert detected >= trials - 1


@given(data=st.integers(min_value=0, max_value=(1 << 64) - 1),
       errors=st.lists(st.integers(0, SMALL.codeword_bits - 1),
                       min_size=0, max_size=2, unique=True))
@settings(max_examples=150, deadline=None)
def test_property_roundtrip_up_to_t(data, errors):
    """Any <= t error pattern on any data decodes to the original data."""
    word = SMALL.encode(data)
    for p in errors:
        word ^= 1 << p
    result = SMALL.decode(word)
    assert result.data == data
    assert set(result.corrected_positions) == set(errors)


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
@settings(max_examples=100, deadline=None)
def test_property_distinct_data_distinct_codewords(data):
    """Systematic encoding is injective."""
    code = BchCode(t=2, data_bits=48)
    other = (data + 1) % (1 << 48)
    assert code.encode(data) != code.encode(other)


def _chien_search_full_scan(code, sigma):
    """The full-length Horner-evaluation Chien search, kept as an oracle.

    Scans every position of the unshortened code and counts roots past
    ``base_len`` toward the early exit; the codec's search scans only
    ``[0, base_len)`` in the log domain and must return the same list.
    """
    field = code.field
    positions = []
    degree = len(sigma) - 1
    found = 0
    for i in range(code.n_full):
        value = field.poly_eval(sigma, field.alpha_pow((-i) % field.order))
        if value == 0:
            if i < code._base_len:
                positions.append(i)
            found += 1
            if found == degree:
                break
    return positions


def _outcome(decode, word):
    try:
        return decode(word)
    except UncorrectableError as exc:
        return ("uncorrectable", exc.detected_errors)


class TestChienSearchOracle:
    """The bounded log-domain Chien search against the full-scan oracle."""

    TRIALS = 6

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("data_bits", [64, 512])
    def test_positions_and_decodes_match(self, data_bits, t, extended):
        rng = random.Random(1000 * t + data_bits + extended)
        code = BchCode(t=t, data_bits=data_bits, extended=extended)
        oracle = BchCode(t=t, data_bits=data_bits, extended=extended)
        oracle._chien_search = lambda sigma: _chien_search_full_scan(oracle, sigma)
        base_mask = (1 << code._base_len) - 1
        for weight in range(t + 4):
            for _ in range(self.TRIALS):
                word = code.encode(rng.getrandbits(data_bits))
                for p in rng.sample(range(code.codeword_bits), weight):
                    word ^= 1 << p
                syndromes = code._syndromes_reference(word & base_mask)
                if any(syndromes):
                    sigma = code._berlekamp_massey(syndromes)
                    assert code._chien_search(sigma) == _chien_search_full_scan(
                        code, sigma
                    )
                assert _outcome(code.decode, word) == _outcome(oracle.decode, word)
                assert _outcome(code.decode_reference, word) == _outcome(
                    oracle.decode_reference, word
                )

    @pytest.mark.parametrize("t", [2, 6])
    def test_random_locators_match(self, t):
        """Arbitrary locators, most of which do not split over the code."""
        rng = random.Random(t)
        code = BchCode(t=t, data_bits=512)
        for _ in range(200):
            degree = rng.randint(0, t)
            sigma = [1] + [rng.randrange(code.field.size) for _ in range(degree)]
            if degree:
                sigma[-1] = rng.randrange(1, code.field.size)
            assert code._chien_search(sigma) == _chien_search_full_scan(code, sigma)

    def test_roots_beyond_base_len_are_dropped(self):
        """A locator with roots both inside and past the shortened length."""
        code = BchCode(t=2, data_bits=64)
        field = code.field
        inside, outside = 3, code._base_len + 5
        # sigma(x) = (1 + alpha^inside x)(1 + alpha^outside x)
        a, b = field.alpha_pow(inside), field.alpha_pow(outside)
        sigma = [1, a ^ b, field.mul(a, b)]
        assert _chien_search_full_scan(code, sigma) == [inside]
        assert code._chien_search(sigma) == [inside]
