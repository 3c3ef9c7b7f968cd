"""Hsiao SEC-DED codes: the industry-standard construction.

The paper calls SEC-DED "a widely adopted code in industry" without
detail; the code industry actually adopted is Hsiao's 1970 variant of
extended Hamming.  Its parity-check matrix H uses only *odd-weight*
columns, which buys three hardware properties over classic
Hamming-plus-parity:

1. double errors are detected by an **even-weight** (nonzero) syndrome —
   no separate overall-parity bit or second XOR tree;
2. the total number of 1s in H is minimized → fewer XOR gates and a
   shallower, faster encoder/decoder (the basis for our SECDED cost
   model's ~3K gates);
3. balanced rows → uniform per-check fanin.

This implementation builds H for any data length, encodes/decodes via
the matrix, and exposes the gate-count statistics so the cost model's
numbers can be checked against a real construction.  The H product is
evaluated through the chunked XOR-fold fast path
(:mod:`repro.ecc.matrix`) with batch APIs and counters; the original
per-bit walks survive as ``encode_reference``/``decode_reference`` for
the differential harness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from repro.ecc.backend import MIN_SLICED_BATCH, get_engine
from repro.ecc.bitslice import lane_flags, supports_from_contributions
from repro.ecc.counters import CodecCounters
from repro.ecc.matrix import build_chunk_tables, cached_tables, fold_word
from repro.errors import ConfigurationError, EncodingError, UncorrectableError


@dataclass(frozen=True)
class HsiaoResult:
    """Outcome of a Hsiao decode."""

    data: int
    corrected_position: int | None  # column index in the codeword

    @property
    def errors_corrected(self) -> int:
        return 0 if self.corrected_position is None else 1


@dataclass(frozen=True)
class _HsiaoTables:
    """Fast-path tables: H columns folded per data / codeword chunk."""

    encode: list[list[int]]
    syndrome: list[list[int]]


class HsiaoCode:
    """A (n, k) Hsiao SEC-DED code for ``data_bits`` of data.

    Check bits r satisfy ``2^(r-1) >= k + r`` (enough odd-weight columns
    for every data bit).  Codeword layout: data columns first, then the
    r check columns (each check column is the unit vector for its row).

    Attributes:
        counters: fast-path traffic tallies (reference calls not counted).
    """

    def __init__(self, data_bits: int):
        if data_bits < 1:
            raise ConfigurationError("data_bits must be >= 1")
        self.data_bits = data_bits
        r = 2
        while _odd_weight_columns_available(r) < data_bits:
            r += 1
        self.check_bits = r
        self.codeword_bits = data_bits + r
        self._data_columns = _choose_columns(data_bits, r)
        # Syndrome lookup: column value -> codeword position.
        self._position_of_syndrome: dict[int, int] = {}
        for position, column in enumerate(self._data_columns):
            self._position_of_syndrome[column] = position
        for row in range(r):
            self._position_of_syndrome[1 << row] = data_bits + row
        self._tables = self._tables_for()
        self.counters = CodecCounters()

    def _tables_for(self) -> _HsiaoTables:
        """Fast-path tables, cached per data length (columns are fixed)."""

        def build() -> _HsiaoTables:
            columns = list(self._data_columns)
            full = columns + [1 << row for row in range(self.check_bits)]
            return _HsiaoTables(
                encode=build_chunk_tables(columns),
                syndrome=build_chunk_tables(full),
            )

        return cached_tables(("hsiao", self.data_bits), build)

    def _sliced_for(self, engine):
        """Engine-compiled maps, cached per data length.

        ``enc``: data slices -> r syndrome slices (the data columns of
        H).  ``chk``: codeword slices -> r syndrome slices (full H);
        any nonzero lane is dirty.
        """

        def build():
            r = self.check_bits
            columns = list(self._data_columns)
            full = columns + [1 << row for row in range(r)]
            return (
                engine.compile_map(
                    supports_from_contributions(columns, r), self.data_bits
                ),
                engine.compile_map(
                    supports_from_contributions(full, r), self.codeword_bits
                ),
            )

        return cached_tables(("hsiao-sliced", self.data_bits), build)

    # -- construction statistics ------------------------------------------------

    @property
    def total_ones_in_h(self) -> int:
        """1s in H: proportional to the encoder's XOR count."""
        data_ones = sum(bin(c).count("1") for c in self._data_columns)
        return data_ones + self.check_bits  # identity part

    def xor_gate_estimate(self) -> int:
        """Two-input XOR gates for the encoder (ones minus one per row)."""
        return self.total_ones_in_h - self.check_bits

    # -- encode -------------------------------------------------------------------

    def encode(self, data: int) -> int:
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        syndrome = fold_word(self._tables.encode, data)
        self.counters.encodes += 1
        return data | (syndrome << self.data_bits)

    def encode_batch(self, datas: Iterable[int]) -> list[int]:
        """Encode many data words through the fast path.

        Large batches run through the lane engine: one transpose,
        one compiled H fold for the syndromes, one untranspose.
        """
        if not isinstance(datas, list):
            datas = list(datas)
        engine = get_engine() if len(datas) >= MIN_SLICED_BATCH else None
        if engine is None:
            out = [self.encode(data) for data in datas]
            if out:
                self.counters.record_backend("matrix", len(out))
            return out
        data_bits = self.data_bits
        for data in datas:
            if data < 0 or data >> data_bits:
                raise EncodingError(f"data does not fit in {data_bits} bits")
        n = len(datas)
        enc_map, _ = self._sliced_for(engine)
        syndromes = engine.untranspose(
            engine.fold(engine.transpose(datas, data_bits), enc_map), n
        )
        out = [
            data | (syndrome << data_bits)
            for data, syndrome in zip(datas, syndromes)
        ]
        self.counters.encodes += n
        self.counters.record_backend(engine.name, n)
        return out

    def encode_reference(self, data: int) -> int:
        """Reference encoder: per-bit column accumulation (oracle)."""
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        syndrome = 0
        remaining = data
        position = 0
        while remaining:
            if remaining & 1:
                syndrome ^= self._data_columns[position]
            remaining >>= 1
            position += 1
        return data | (syndrome << self.data_bits)

    def extract_data(self, codeword: int) -> int:
        return codeword & ((1 << self.data_bits) - 1)

    # -- decode -------------------------------------------------------------------

    def check(self, received: int) -> bool:
        """True iff ``received`` is a valid codeword (syndrome-only test)."""
        if received < 0 or received >> self.codeword_bits:
            return False
        return fold_word(self._tables.syndrome, received) == 0

    def check_batch(self, words: Iterable[int]) -> list[bool]:
        """Vectorized :meth:`check` over many received words."""
        if not isinstance(words, list):
            words = list(words)
        engine = get_engine() if len(words) >= MIN_SLICED_BATCH else None
        if engine is None:
            out = [self.check(word) for word in words]
            if out:
                self.counters.record_backend("matrix", len(out))
            return out
        n = len(words)
        cw_bits = self.codeword_bits
        valid = [not (w < 0 or w >> cw_bits) for w in words]
        safe = words if all(valid) else [
            w if ok else 0 for w, ok in zip(words, valid)
        ]
        _, chk_map = self._sliced_for(engine)
        dirty = engine.or_reduce(
            engine.fold(engine.transpose(safe, cw_bits), chk_map)
        )
        self.counters.record_backend(engine.name, n)
        if not dirty:  # common case: every in-range word is a codeword
            return valid
        flags = lane_flags(dirty, n)
        return [
            ok and not ((flags[i >> 3] >> (i & 7)) & 1)
            for i, ok in enumerate(valid)
        ]

    def decode(self, received: int) -> HsiaoResult:
        """Correct single errors; detect double errors by syndrome weight.

        Raises:
            UncorrectableError: on an even-weight nonzero syndrome
                (double error) or an odd-weight syndrome matching no
                column (triple-error alias detected).
        """
        if received < 0 or received >> self.codeword_bits:
            self.counters.record_detected()
            raise UncorrectableError("received word has out-of-range bits")
        syndrome = fold_word(self._tables.syndrome, received)
        try:
            result = self._resolve(received, syndrome)
        except UncorrectableError:
            self.counters.record_detected()
            raise
        self.counters.record_decode(result.errors_corrected)
        return result

    def decode_batch(
        self, words: Iterable[int]
    ) -> list[HsiaoResult | UncorrectableError]:
        """Decode many words; failures come back as exception instances."""
        if not isinstance(words, list):
            words = list(words)
        out: list[HsiaoResult | UncorrectableError] = []
        append = out.append
        decode = self.decode
        engine = get_engine() if len(words) >= MIN_SLICED_BATCH else None
        if engine is None:
            for word in words:
                try:
                    append(decode(word))
                except UncorrectableError as exc:
                    append(exc)
            if out:
                self.counters.record_backend("matrix", len(out))
            return out
        # Sliced prescreen (see BchCode.decode_batch): the data part of a
        # clean Hsiao word is just its low bits, so clean lanes cost one
        # mask; dirty / out-of-range lanes take the scalar decoder.
        n = len(words)
        cw_bits = self.codeword_bits
        invalid = 0
        safe = words
        for i, w in enumerate(words):
            if w < 0 or w >> cw_bits:
                if safe is words:
                    safe = list(words)
                safe[i] = 0
                invalid |= 1 << i
        _, chk_map = self._sliced_for(engine)
        dirty = engine.or_reduce(
            engine.fold(engine.transpose(safe, cw_bits), chk_map)
        )
        data_mask = (1 << self.data_bits) - 1
        bad = dirty | invalid
        if not bad:  # common case: whole batch clean, skip the lane loop
            out = [HsiaoResult(w & data_mask, None) for w in words]
            self.counters.decodes += n
            hist = self.counters.corrected_histogram
            hist[0] = hist.get(0, 0) + n
            self.counters.record_backend(engine.name, n)
            return out
        flags = lane_flags(bad, n)
        n_clean = 0
        for i, word in enumerate(words):
            if (flags[i >> 3] >> (i & 7)) & 1:
                try:
                    append(decode(word))
                except UncorrectableError as exc:
                    append(exc)
            else:
                n_clean += 1
                append(HsiaoResult(word & data_mask, None))
        if n_clean:
            self.counters.decodes += n_clean
            hist = self.counters.corrected_histogram
            hist[0] = hist.get(0, 0) + n_clean
        self.counters.record_backend(engine.name, n)
        return out

    def decode_reference(self, received: int) -> HsiaoResult:
        """Reference decoder with the original per-bit syndrome walk."""
        if received < 0 or received >> self.codeword_bits:
            raise UncorrectableError("received word has out-of-range bits")
        syndrome = 0
        word = received
        position = 0
        while word and position < self.data_bits:
            if word & 1:
                syndrome ^= self._data_columns[position]
            word >>= 1
            position += 1
        syndrome ^= received >> self.data_bits
        return self._resolve(received, syndrome)

    def _resolve(self, received: int, syndrome: int) -> HsiaoResult:
        """Shared decision logic of both decode paths."""
        if syndrome == 0:
            return HsiaoResult(self.extract_data(received), None)
        if bin(syndrome).count("1") % 2 == 0:
            raise UncorrectableError("double-bit error detected", detected_errors=2)
        flip = self._position_of_syndrome.get(syndrome)
        if flip is None:
            raise UncorrectableError("syndrome matches no column (multi-bit error)")
        corrected = received ^ (1 << flip)
        return HsiaoResult(self.extract_data(corrected), flip)

    def __repr__(self) -> str:
        return (
            f"HsiaoCode(data_bits={self.data_bits}, "
            f"codeword_bits={self.codeword_bits})"
        )


def _odd_weight_columns_available(r: int) -> int:
    """Odd-weight nonzero r-bit columns, excluding the r unit vectors."""
    total = 0
    for weight in range(3, r + 1, 2):
        total += _comb(r, weight)
    return total


def _comb(n: int, k: int) -> int:
    import math

    return math.comb(n, k)


def _choose_columns(data_bits: int, r: int) -> list[int]:
    """Pick ``data_bits`` odd-weight columns, minimum weights first.

    Minimum-weight-first selection is what minimizes the total 1s count
    (Hsiao's optimality criterion).
    """
    columns: list[int] = []
    for weight in range(3, r + 1, 2):
        for combo in itertools.combinations(range(r), weight):
            column = 0
            for bit in combo:
                column |= 1 << bit
            columns.append(column)
            if len(columns) == data_bits:
                return columns
    raise ConfigurationError("not enough odd-weight columns (internal)")
