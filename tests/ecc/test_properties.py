"""Property-based round-trip tests over the paper's code configurations.

Seeded ``random`` only (no extra dependencies): for every correction
strength the scheme registry (:mod:`repro.ecc.codes`) can instantiate
over a 64-byte line, any <= t-bit corruption must decode back to the
original data, and the extended variants must *detect* exactly-(t+1)-bit
corruption rather than miscorrect it (designed distance 2t+2).
"""

import random

import pytest

from repro.ecc.bch import BchCode
from repro.ecc.codes import make_scheme
from repro.ecc.hamming import SecDedCode
from repro.errors import UncorrectableError

#: The paper's protected message: 512 data bits + 4 mode-replica bits.
MESSAGE_BITS = 516
#: BCH strengths the scheme registry uses for a 64-byte line (t >= 2).
BCH_STRENGTHS = range(2, 7)


class TestSchemeRegistryAgreement:
    """The real codecs match the registry's storage-bit cost model."""

    @pytest.mark.parametrize("t", BCH_STRENGTHS)
    def test_bch_parity_matches_scheme_storage(self, t):
        scheme = make_scheme(t, extended_detection=True)
        code = BchCode(t=t, data_bits=512, extended=True)
        assert code.parity_bits + 1 == scheme.storage_bits
        assert code.m == 10

    def test_secded_checks_match_scheme_storage(self):
        scheme = make_scheme(1)
        code = SecDedCode(512)
        assert code.check_bits == scheme.storage_bits


class TestRoundTripProperty:
    """Any <= t corruption on any data decodes to the original data."""

    @pytest.mark.parametrize("t", BCH_STRENGTHS)
    def test_bch_roundtrip_under_t_errors(self, t):
        code = BchCode(t=t, data_bits=MESSAGE_BITS)
        rng = random.Random(7000 + t)
        for _ in range(12):
            data = rng.getrandbits(MESSAGE_BITS)
            word = code.encode(data)
            n_errors = rng.randint(0, t)
            positions = rng.sample(range(code.codeword_bits), n_errors)
            for p in positions:
                word ^= 1 << p
            result = code.decode(word)
            assert result.data == data
            assert sorted(result.corrected_positions) == sorted(positions)

    def test_secded_roundtrip_single_error(self):
        code = SecDedCode(MESSAGE_BITS)
        rng = random.Random(7100)
        for _ in range(40):
            data = rng.getrandbits(MESSAGE_BITS)
            word = code.encode(data)
            if rng.random() < 0.8:
                word ^= 1 << rng.randrange(code.codeword_bits)
            assert code.decode(word).data == data


class TestReferencePathAgreement:
    """The fast matrix path and the reference oracle agree bit-for-bit."""

    @pytest.mark.parametrize("t", BCH_STRENGTHS)
    def test_reference_decode_matches_under_t_errors(self, t):
        code = BchCode(t=t, data_bits=MESSAGE_BITS)
        rng = random.Random(7600 + t)
        for _ in range(10):
            data = rng.getrandbits(MESSAGE_BITS)
            word = code.encode(data)
            positions = rng.sample(range(code.codeword_bits), rng.randint(0, t))
            for p in positions:
                word ^= 1 << p
            fast = code.decode(word)
            oracle = code.decode_reference(word)
            assert fast.data == data
            assert oracle.data == data
            assert fast.corrected_positions == oracle.corrected_positions
            assert sorted(fast.corrected_positions) == sorted(positions)

    @pytest.mark.parametrize("t", BCH_STRENGTHS)
    def test_reference_agrees_on_detection(self, t):
        """Extended t+1 patterns are rejected by both paths, not just one."""
        code = BchCode(t=t, data_bits=MESSAGE_BITS, extended=True)
        rng = random.Random(7700 + t)
        for _ in range(6):
            word = code.encode(rng.getrandbits(MESSAGE_BITS))
            for p in rng.sample(range(code.codeword_bits), t + 1):
                word ^= 1 << p
            with pytest.raises(UncorrectableError):
                code.decode(word)
            with pytest.raises(UncorrectableError):
                code.decode_reference(word)


class TestBeyondCapacityProperty:
    """> t errors either raise, or miscorrect *consistently* — both paths
    return the same result and the output re-encodes to a codeword within
    t bits of the received word (a coset leader), never an arbitrary word.
    """

    @pytest.mark.parametrize("t", BCH_STRENGTHS)
    def test_overload_never_silently_inconsistent(self, t):
        code = BchCode(t=t, data_bits=MESSAGE_BITS)
        rng = random.Random(7800 + t)
        raised = returned = 0
        for _ in range(12):
            data = rng.getrandbits(MESSAGE_BITS)
            word = code.encode(data)
            for p in rng.sample(range(code.codeword_bits), t + 2):
                word ^= 1 << p
            try:
                fast = code.decode(word)
            except UncorrectableError:
                raised += 1
                with pytest.raises(UncorrectableError):
                    code.decode_reference(word)
                continue
            returned += 1
            oracle = code.decode_reference(word)
            assert fast.data == oracle.data
            assert fast.corrected_positions == oracle.corrected_positions
            # A silent miscorrection still lands on a true codeword
            # reachable by flipping <= t bits of the received word.
            reencoded = code.encode_reference(fast.data)
            distance = bin(reencoded ^ word).count("1")
            assert 0 < distance <= t
        # The campaign must exercise at least one of the two outcomes
        # (both is typical); a dead loop would prove nothing.
        assert raised + returned == 12


class TestExtendedDetectionProperty:
    """Extended codes detect exactly t+1 errors — never miscorrect them."""

    @pytest.mark.parametrize("t", BCH_STRENGTHS)
    def test_extended_bch_detects_t_plus_one(self, t):
        code = BchCode(t=t, data_bits=MESSAGE_BITS, extended=True)
        rng = random.Random(7300 + t)
        for _ in range(8):
            data = rng.getrandbits(MESSAGE_BITS)
            word = code.encode(data)
            for p in rng.sample(range(code.codeword_bits), t + 1):
                word ^= 1 << p
            with pytest.raises(UncorrectableError):
                code.decode(word)

    def test_secded_detects_double_error(self):
        code = SecDedCode(MESSAGE_BITS)
        rng = random.Random(7400)
        for _ in range(30):
            word = code.encode(rng.getrandbits(MESSAGE_BITS))
            for p in rng.sample(range(code.codeword_bits), 2):
                word ^= 1 << p
            with pytest.raises(UncorrectableError):
                code.decode(word)
