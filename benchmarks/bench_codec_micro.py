"""Microbenchmarks of the ECC substrate (real codec throughput).

Not a paper exhibit — these time the software BCH/SEC-DED codecs that
back the fault-injection studies, so regressions in the hot loops
(matrix folds, syndromes, Berlekamp–Massey, Chien search) are visible.

The fast (matrix) path and the reference (polynomial) path are both
timed, and ``test_fast_path_speedup_floor`` asserts the fast path keeps
its >= 5x encode+decode advantage.  The batch API (the bitsliced lane
engine at these sizes) is timed against per-word scalar calls, and
``test_lane_engine_speedup_floor`` asserts its >= 5x advantage.  The
quick CI smoke for codec regressions is::

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

#: Deep batch where the lane engine amortizes fully (64+ full slices).
BACKEND_BATCH = 4096


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


def test_bench_ecc6_check_batch(benchmark, ecc6):
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(BATCH)])
    oks = benchmark(ecc6.check_batch, words)
    assert all(oks)


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


def test_bench_line_codec_batch_strong(benchmark):
    codec = LineCodec()
    datas = [RNG.getrandbits(512) for _ in range(BATCH)]

    def roundtrip():
        return codec.decode_batch(codec.encode_batch(datas, EccMode.STRONG))

    results = benchmark(roundtrip)
    assert all(r.data == d for r, d in zip(results, datas))


def _per_word(fn):
    """A batch callable that makes one scalar call per word."""
    return lambda items: [fn(item) for item in items]


def _paths(code):
    """``name -> (encode, check, decode)`` batch callables per path."""
    return {
        "per-word": (
            _per_word(code.encode),
            _per_word(code.check),
            _per_word(code.decode),
        ),
        "batch": (code.encode_batch, code.check_batch, code.decode_batch),
    }


@pytest.fixture(params=["per-word", "batch"])
def batch_path(request, ecc6):
    """The (encode, check, decode) callables of one path."""
    return _paths(ecc6)[request.param]


def test_bench_ecc6_encode_batch_paths(benchmark, batch_path):
    encode, _, _ = batch_path
    datas = [RNG.getrandbits(516) for _ in range(1024)]
    words = benchmark(encode, datas)
    assert len(words) == 1024


def test_bench_ecc6_check_batch_paths(benchmark, ecc6, batch_path):
    _, check, _ = batch_path
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(1024)])
    oks = benchmark(check, words)
    assert all(oks)


def test_bench_ecc6_decode_batch_paths(benchmark, ecc6, batch_path):
    _, _, decode = batch_path
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(1024)])
    results = benchmark(decode, words)
    assert all(r.errors_corrected == 0 for r in results)


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


def _batch_seconds(fn, batch, repeats=7):
    """Best-of-N wall-clock for one whole-batch call (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(batch)
        best = min(best, time.perf_counter() - start)
    return best


def test_lane_engine_speedup_floor(ecc6):
    """The batch API must keep >= 5x over per-word scalar calls at 4096
    words.

    Times encode / check / clean decode per path and prints the
    path-column table; the floor is asserted on the combined (sum of the
    three passes) per-word/batch ratio, the quantity the batched
    fault-injection and retention sweeps actually pay.
    """
    rng = random.Random(4096)
    datas = [rng.getrandbits(516) for _ in range(BACKEND_BATCH)]
    words = [ecc6.encode(data) for data in datas]
    # Warm the engine's compiled maps so lazy table builds
    # (exec-compiled runners) don't pollute the first timing.
    ecc6.check_batch(words)
    columns = {
        name: (
            _batch_seconds(encode, datas),
            _batch_seconds(check, words),
            _batch_seconds(decode, words),
        )
        for name, (encode, check, decode) in _paths(ecc6).items()
    }
    print(f"\nECC-6 (t=6, 516 data bits), {BACKEND_BATCH}-word batches:")
    print(f"{'path':>10} {'encode':>9} {'check':>9} {'decode':>9} {'combined':>9}")
    scalar_total = sum(columns["per-word"])
    for name, (enc, chk, dec) in columns.items():
        rel = scalar_total / (enc + chk + dec)
        print(f"{name:>10} {enc:8.4f}s {chk:8.4f}s {dec:8.4f}s {rel:8.1f}x")
    speedup = scalar_total / sum(columns["batch"])
    assert speedup >= 5.0, (
        f"batch lane engine regressed: {speedup:.2f}x < 5x over per-word calls"
    )
