"""Microbenchmarks of the ECC substrate (real codec throughput).

Not a paper exhibit — these time the software BCH/SEC-DED codecs that
back the fault-injection studies, so regressions in the hot loops
(matrix folds, syndromes, Berlekamp–Massey, Chien search) are visible.

The fast (matrix) path and the reference (polynomial) path are both
timed, and ``test_fast_path_speedup_floor`` asserts the fast path keeps
its >= 5x encode+decode advantage.  The batch API is a loop over the
per-word fast path, timed on its own for the bulk callers.  The quick
CI smoke for codec regressions is::

    PYTHONPATH=src python -m pytest benchmarks/bench_codec_micro.py -q
"""

import random
import time

import pytest

from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.ecc.layout import LineCodec
from repro.types import EccMode

RNG = random.Random(99)

BATCH = 256


@pytest.fixture(scope="module")
def ecc6():
    return BchCode(t=6, data_bits=516)


@pytest.fixture(scope="module")
def secded():
    return SecDedCode(516)


def test_bench_ecc6_encode(benchmark, ecc6):
    data = RNG.getrandbits(516)
    codeword = benchmark(ecc6.encode, data)
    assert ecc6.extract_data(codeword) == data


def test_bench_ecc6_encode_reference(benchmark, ecc6):
    data = RNG.getrandbits(516)
    codeword = benchmark(ecc6.encode_reference, data)
    assert ecc6.extract_data(codeword) == data


def test_bench_ecc6_decode_clean(benchmark, ecc6):
    word = ecc6.encode(RNG.getrandbits(516))
    result = benchmark(ecc6.decode, word)
    assert result.errors_corrected == 0


def test_bench_ecc6_decode_clean_reference(benchmark, ecc6):
    word = ecc6.encode(RNG.getrandbits(516))
    result = benchmark(ecc6.decode_reference, word)
    assert result.errors_corrected == 0


def test_bench_ecc6_decode_six_errors(benchmark, ecc6):
    data = RNG.getrandbits(516)
    word = ecc6.encode(data)
    for p in RNG.sample(range(ecc6.codeword_bits), 6):
        word ^= 1 << p
    result = benchmark(ecc6.decode, word)
    assert result.data == data


def test_bench_ecc6_encode_batch(benchmark, ecc6):
    datas = [RNG.getrandbits(516) for _ in range(BATCH)]
    words = benchmark(ecc6.encode_batch, datas)
    assert len(words) == BATCH


def test_bench_ecc6_decode_batch_clean(benchmark, ecc6):
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(BATCH)])
    results = benchmark(ecc6.decode_batch, words)
    assert all(r.errors_corrected == 0 for r in results)


def test_bench_ecc6_check(benchmark, ecc6):
    word = ecc6.encode(RNG.getrandbits(516))
    assert benchmark(ecc6.check, word)


def test_bench_secded_roundtrip(benchmark, secded):
    data = RNG.getrandbits(516)

    def roundtrip():
        return secded.decode(secded.encode(data) ^ (1 << 100))

    result = benchmark(roundtrip)
    assert result.data == data


def test_bench_secded_roundtrip_reference(benchmark, secded):
    data = RNG.getrandbits(516)

    def roundtrip():
        return secded.decode_reference(secded.encode_reference(data) ^ (1 << 100))

    result = benchmark(roundtrip)
    assert result.data == data


def test_bench_line_codec_strong(benchmark):
    codec = LineCodec()
    data = RNG.getrandbits(512)

    def roundtrip():
        return codec.decode(codec.encode(data, EccMode.STRONG))

    result = benchmark(roundtrip)
    assert result.data == data


@pytest.fixture(scope="module")
def line_codec():
    return LineCodec()


def _stored_line(codec, mode, flips):
    """A stored line of random data in ``mode`` with ``flips`` data-bit flips."""
    data = RNG.getrandbits(codec.data_bits)
    stored = codec.encode(data, mode)
    for p in RNG.sample(range(codec.layout.field_bits, codec.stored_bits), flips):
        stored ^= 1 << p
    return data, stored


@pytest.mark.parametrize(
    "mode, flips",
    [(EccMode.WEAK, 0), (EccMode.WEAK, 1), (EccMode.STRONG, 2)],
    ids=["weak-clean", "weak-1-flip", "strong-2-flips"],
)
def test_bench_line_codec_decode(benchmark, line_codec, mode, flips):
    """Scalar ``LineCodec.decode``: the path functional reads and chaos use."""
    data, stored = _stored_line(line_codec, mode, flips)
    result = benchmark(line_codec.decode, stored)
    assert (result.data, result.mode, result.errors_corrected) == (data, mode, flips)


def test_bench_line_codec_batch_strong(benchmark):
    codec = LineCodec()
    datas = [RNG.getrandbits(512) for _ in range(BATCH)]

    def roundtrip():
        return codec.decode_batch(codec.encode_batch(datas, EccMode.STRONG))

    results = benchmark(roundtrip)
    assert all(r.data == d for r, d in zip(results, datas))


def _throughput(fn, words, repeats=3):
    """Best-of-N wall-clock for one pass over ``words`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for word in words:
            fn(word)
        best = min(best, time.perf_counter() - start)
    return best


def test_fast_path_speedup_floor(ecc6):
    """The matrix fast path must keep >= 5x encode+decode throughput.

    This is the codec-regression smoke (no pytest-benchmark machinery,
    so it also runs under ``-p no:benchmark`` CI configurations).
    """
    rng = random.Random(2024)
    datas = [rng.getrandbits(516) for _ in range(400)]
    words = ecc6.encode_batch(datas)
    encode_fast = _throughput(ecc6.encode, datas)
    encode_ref = _throughput(ecc6.encode_reference, datas)
    decode_fast = _throughput(ecc6.decode, words)
    decode_ref = _throughput(ecc6.decode_reference, words)
    speedup = (encode_ref + decode_ref) / (encode_fast + decode_fast)
    print(
        f"\nencode {encode_ref / encode_fast:.1f}x, "
        f"decode {decode_ref / decode_fast:.1f}x, combined {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"fast path regressed: {speedup:.2f}x < 5x"
