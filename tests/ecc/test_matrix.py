"""Tests for the fast-path matrix machinery and codec counters."""

import random

import pytest

from repro.ecc.bch import BchCode
from repro.ecc.counters import CodecCounters
from repro.ecc.matrix import (
    CHUNK_BITS,
    build_chunk_tables,
    cached_tables,
    clear_table_cache,
    fold_word,
    table_cache_info,
)
from repro.errors import UncorrectableError


class TestChunkTables:
    def test_single_chunk_subset_xor(self):
        contributions = [1 << i for i in range(CHUNK_BITS)]
        tables = build_chunk_tables(contributions)
        assert len(tables) == 1
        # For identity contributions the subset-XOR of byte b is b itself.
        assert tables[0] == list(range(1 << CHUNK_BITS))

    def test_partial_last_chunk(self):
        contributions = [3, 5, 9]  # 3 bits -> one chunk, 5 bits unused
        (table,) = build_chunk_tables(contributions)
        assert table[0b001] == 3
        assert table[0b110] == 5 ^ 9
        assert table[0b111] == 3 ^ 5 ^ 9
        # High bits of the byte beyond the contribution list add nothing.
        assert table[0b1000_0111] == table[0b111]

    def test_fold_matches_naive_per_bit_xor(self):
        rng = random.Random(13)
        contributions = [rng.getrandbits(40) for _ in range(100)]
        tables = build_chunk_tables(contributions)
        for _ in range(50):
            word = rng.getrandbits(100)
            naive = 0
            for p in range(100):
                if (word >> p) & 1:
                    naive ^= contributions[p]
            assert fold_word(tables, word) == naive

    def test_fold_zero_word(self):
        tables = build_chunk_tables([7] * 16)
        assert fold_word(tables, 0) == 0


class TestTableCache:
    def test_hit_and_miss_accounting(self):
        calls = []

        def builder():
            calls.append(1)
            return object()

        key = ("test-matrix", "hit-miss-accounting")
        before = table_cache_info()
        first = cached_tables(key, builder)
        second = cached_tables(key, builder)
        after = table_cache_info()
        assert first is second
        assert len(calls) == 1
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_codecs_with_same_config_share_tables(self):
        a = BchCode(t=3, data_bits=64)
        hits_before = table_cache_info()["hits"]
        b = BchCode(t=3, data_bits=64)
        assert table_cache_info()["hits"] > hits_before
        data = random.Random(1).getrandbits(64)
        assert a.encode(data) == b.encode(data)

    def test_clear_resets_counters_but_not_behavior(self):
        code = BchCode(t=2, data_bits=64)
        word = code.encode(12345)
        clear_table_cache()
        info = table_cache_info()
        assert info == {"hits": 0, "misses": 0, "entries": 0}
        # Rebuilt tables produce identical codewords.
        assert BchCode(t=2, data_bits=64).encode(12345) == word
        assert table_cache_info()["misses"] >= 1


class TestCodecCounters:
    def test_fast_paths_count_reference_paths_do_not(self):
        code = BchCode(t=2, data_bits=64)
        code.counters.reset()
        word = code.encode(999)
        code.encode_reference(999)
        code.decode(word ^ 0b11)
        code.decode_reference(word ^ 0b11)
        assert code.counters.encodes == 1
        assert code.counters.decodes == 1
        assert code.counters.corrected_histogram == {2: 1}

    def test_detected_uncorrectable_counts(self):
        code = BchCode(t=1, data_bits=64, extended=True)
        code.counters.reset()
        word = code.encode(5)
        with pytest.raises(UncorrectableError):
            code.decode(word ^ 0b101)
        assert code.counters.detected_uncorrectable == 1
        assert code.counters.decodes == 1

    def test_merge_and_totals(self):
        counters = CodecCounters(decodes=7, corrected_histogram={0: 2, 2: 5})
        assert counters.corrected_bits_total == 10
        assert counters.words_with_correction == 5

    def test_as_dict_snapshot(self):
        counters = CodecCounters()
        counters.encodes += 3
        counters.record_decode(0)
        counters.record_decode(4)
        counters.record_detected()
        snapshot = counters.as_dict()
        assert snapshot["encodes"] == 3
        assert snapshot["decodes"] == 3
        assert snapshot["detected_uncorrectable"] == 1
        assert snapshot["corrected_bits_total"] == 4
        assert snapshot["corrected_histogram"] == {0: 1, 4: 1}

    def test_batch_apis_count_every_word(self):
        code = BchCode(t=2, data_bits=64)
        code.counters.reset()
        datas = list(range(10))
        words = code.encode_batch(datas)
        code.decode_batch(words)
        assert code.counters.encodes == 10
        assert code.counters.decodes == 10
