"""Hamming-based SEC-DED codes: the paper's weak ECC.

Implements single-error-correct, double-error-detect codes for arbitrary
data lengths using the classic extended-Hamming construction: check bits
at power-of-two positions plus one overall parity bit.  Two instances
matter for the paper:

* ``SecDedCode(64)`` — the traditional (72,64) word-granularity code of
  paper Fig. 6(i).
* ``SecDedCode(512)`` — SEC-DED over a whole 64-byte line, needing 11
  check bits, as proposed in paper Sec. III-D / Fig. 6(ii).

Like :class:`repro.ecc.bch.BchCode`, the codec has a matrix fast path
(chunked XOR-fold tables from :mod:`repro.ecc.matrix`, batch APIs, a
counters object) and keeps the original per-bit walks as the reference
path (:meth:`SecDedCode.encode_reference` /
:meth:`SecDedCode.decode_reference`) for the differential harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.ecc.backend import MIN_SLICED_BATCH, get_engine
from repro.ecc.bitslice import lane_flags, supports_from_contributions
from repro.ecc.counters import CodecCounters
from repro.ecc.matrix import build_chunk_tables, cached_tables, fold_word
from repro.errors import ConfigurationError, EncodingError, UncorrectableError

#: Lane width for packing a Hamming syndrome next to a scatter mask.
_SYN_BITS = 16
_SYN_MASK = (1 << _SYN_BITS) - 1


@dataclass(frozen=True)
class SecDedResult:
    """Outcome of a SEC-DED decode."""

    data: int
    corrected_position: int | None  # codeword bit index, None if clean

    @property
    def errors_corrected(self) -> int:
        return 0 if self.corrected_position is None else 1


@dataclass(frozen=True)
class _SecDedTables:
    """Fast-path tables for one data length.

    Attributes:
        scatter: chunk tables over the data bits; folding a data word
            yields ``(scattered word << 16) | hamming_syndrome``.
        syndrome: chunk tables over the codeword bits; folding a received
            word yields its Hamming syndrome (bit 0 contributes nothing).
        extract: chunk tables over the codeword bits; folding a codeword
            yields the packed data bits.
    """

    scatter: list[list[int]]
    syndrome: list[list[int]]
    extract: list[list[int]]


class SecDedCode:
    """Extended Hamming SEC-DED code for ``data_bits`` of data.

    Codeword layout uses 1-based Hamming positions 1..(data_bits + r) with
    check bits at powers of two, prefixed by the overall parity bit at
    position 0.  The public bit numbering of a codeword int is therefore:
    bit 0 = overall parity, bit p = Hamming position p.

    Attributes:
        counters: fast-path traffic tallies (reference calls not counted).
    """

    def __init__(self, data_bits: int):
        if data_bits < 1:
            raise ConfigurationError(f"SEC-DED needs data_bits >= 1, got {data_bits}")
        self.data_bits = data_bits
        r = 2
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.hamming_check_bits = r
        self.check_bits = r + 1  # including overall parity
        self.codeword_bits = data_bits + self.check_bits
        # Map data bit index -> codeword position (non-power-of-two Hamming
        # positions, in increasing order).
        self._data_positions: list[int] = []
        pos = 1
        while len(self._data_positions) < data_bits:
            if pos & (pos - 1):  # not a power of two
                self._data_positions.append(pos)
            pos += 1
        self._max_position = self._data_positions[-1]
        self._check_positions = [1 << i for i in range(r)]
        if self._check_positions[-1] > self._max_position:
            # The last check position may exceed the last data position
            # (possible for data lengths just above a power of two).
            self._max_position = self._check_positions[-1]
        self._position_of_data = {p: i for i, p in enumerate(self._data_positions)}
        self._tables = self._tables_for(data_bits)
        self.counters = CodecCounters()

    def _tables_for(self, data_bits: int) -> _SecDedTables:
        """Fast-path tables, cached per data length (the layout is fixed)."""

        def build() -> _SecDedTables:
            if self.codeword_bits > _SYN_MASK:
                raise ConfigurationError(
                    "SEC-DED fast path supports codewords up to 65535 bits"
                )
            scatter = [
                (1 << (pos + _SYN_BITS)) | pos for pos in self._data_positions
            ]
            # Codeword bit p contributes its Hamming position p to the
            # syndrome; the overall-parity bit at position 0 contributes 0.
            syndrome = list(range(self.codeword_bits))
            extract = [0] * self.codeword_bits
            for i, pos in enumerate(self._data_positions):
                extract[pos] = 1 << i
            return _SecDedTables(
                scatter=build_chunk_tables(scatter),
                syndrome=build_chunk_tables(syndrome),
                extract=build_chunk_tables(extract),
            )

        return cached_tables(("secded", data_bits), build)

    def _sliced_for(self, engine):
        """Engine-compiled maps, cached per data length.

        ``enc``: data slices -> full codeword slices (check bits and the
        overall parity folded in, since both are GF(2)-linear in the
        data).  ``chk``: codeword slices -> r+1 outputs (Hamming
        syndrome bits plus overall parity); any nonzero lane is dirty.
        """

        def build():
            r = self.hamming_check_bits
            enc_cols = []
            for pos in self._data_positions:
                col = 1 << pos
                for check_pos in self._check_positions:
                    if pos & check_pos:
                        col |= 1 << check_pos
                if _parity_of(col):
                    col |= 1
                enc_cols.append(col)
            parity_out = 1 << r
            chk_cols = [pos | parity_out for pos in range(self.codeword_bits)]
            chk_cols[0] = parity_out  # bit 0 feeds only the overall parity
            return (
                engine.compile_map(
                    supports_from_contributions(enc_cols, self.codeword_bits),
                    self.data_bits,
                ),
                engine.compile_map(
                    supports_from_contributions(chk_cols, r + 1),
                    self.codeword_bits,
                ),
            )

        return cached_tables(("secded-sliced", self.data_bits), build)

    # -- encode -------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode data into a codeword int (bit 0 = overall parity)."""
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        packed = fold_word(self._tables.scatter, data)
        word = packed >> _SYN_BITS
        syndrome = packed & _SYN_MASK
        # Set check bits so that the syndrome of the full word is zero.
        for check_pos in self._check_positions:
            if syndrome & check_pos:
                word |= 1 << check_pos
        if _parity_of(word):
            word |= 1  # overall parity at position 0
        self.counters.encodes += 1
        return word

    def encode_batch(self, datas: Iterable[int]) -> list[int]:
        """Encode many data words through the fast path.

        Large batches run through the lane engine: one transpose,
        one compiled scatter fold (check bits and overall parity
        included), one untranspose.
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
        out = engine.untranspose(
            engine.fold(engine.transpose(datas, data_bits), enc_map), n
        )
        self.counters.encodes += n
        self.counters.record_backend(engine.name, n)
        return out

    def encode_reference(self, data: int) -> int:
        """Reference encoder: per-bit Hamming-position scatter (oracle)."""
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        word = 0
        syndrome = 0
        for i, pos in enumerate(self._data_positions):
            if (data >> i) & 1:
                word |= 1 << pos
                syndrome ^= pos
        for check_pos in self._check_positions:
            if syndrome & check_pos:
                word |= 1 << check_pos
        if _parity_of(word):
            word |= 1
        return word

    def extract_data(self, codeword: int) -> int:
        """Pull the data bits out of a codeword without decoding."""
        return fold_word(self._tables.extract, codeword)

    # -- decode -------------------------------------------------------------

    def check(self, received: int) -> bool:
        """True iff ``received`` is a valid codeword (syndrome-only test)."""
        if received < 0 or received >> self.codeword_bits:
            return False
        if fold_word(self._tables.syndrome, received):
            return False
        return _parity_of(received) == 0

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

    def decode(self, received: int) -> SecDedResult:
        """Correct a single error or detect a double error.

        Raises:
            UncorrectableError: on a detected double error.
        """
        if received < 0 or received >> self.codeword_bits:
            self.counters.record_detected()
            raise UncorrectableError("received word has out-of-range bits")
        syndrome = fold_word(self._tables.syndrome, received)
        overall = _parity_of(received)
        try:
            result = self._resolve(received, syndrome, overall)
        except UncorrectableError:
            self.counters.record_detected()
            raise
        self.counters.record_decode(result.errors_corrected)
        return result

    def decode_batch(
        self, words: Iterable[int]
    ) -> list[SecDedResult | UncorrectableError]:
        """Decode many words; failures come back as exception instances."""
        if not isinstance(words, list):
            words = list(words)
        out: list[SecDedResult | UncorrectableError] = []
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
        # Sliced prescreen (see BchCode.decode_batch): clean lanes take a
        # bulk extract; dirty / out-of-range lanes fall back to the
        # scalar decoder for bit-identical results and counters.
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
        slices = engine.transpose(safe, cw_bits)
        dirty = engine.or_reduce(engine.fold(slices, chk_map))
        extracted = engine.untranspose(
            engine.select(slices, self._data_positions), n
        )
        bad = dirty | invalid
        if not bad:  # common case: whole batch clean, skip the lane loop
            out = [SecDedResult(x, None) for x in extracted]
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
                append(SecDedResult(extracted[i], None))
        if n_clean:
            self.counters.decodes += n_clean
            hist = self.counters.corrected_histogram
            hist[0] = hist.get(0, 0) + n_clean
        self.counters.record_backend(engine.name, n)
        return out

    def decode_reference(self, received: int) -> SecDedResult:
        """Reference decoder with the original per-bit syndrome walk."""
        if received < 0 or received >> self.codeword_bits:
            raise UncorrectableError("received word has out-of-range bits")
        syndrome = 0
        word = received >> 1  # strip overall parity for syndrome walk
        pos = 1
        while word:
            if word & 1:
                syndrome ^= pos
            word >>= 1
            pos += 1
        overall = _parity_of(received)
        return self._resolve(received, syndrome, overall)

    def _resolve(self, received: int, syndrome: int, overall: int) -> SecDedResult:
        """Shared decision logic of both decode paths."""
        if syndrome == 0 and overall == 0:
            return SecDedResult(self.extract_data(received), None)
        if overall == 1:
            # Single error: at Hamming position `syndrome`, or at the
            # overall parity bit itself when syndrome == 0.
            if syndrome == 0:
                return SecDedResult(self.extract_data(received ^ 1), 0)
            if syndrome > self._max_position:
                raise UncorrectableError("syndrome points outside the codeword")
            corrected = received ^ (1 << syndrome)
            return SecDedResult(self.extract_data(corrected), syndrome)
        # syndrome != 0 and overall parity holds -> even number of errors.
        raise UncorrectableError("double-bit error detected", detected_errors=2)

    def __repr__(self) -> str:
        return (
            f"SecDedCode(data_bits={self.data_bits}, "
            f"codeword_bits={self.codeword_bits})"
        )


def _parity_of(word: int) -> int:
    """Overall parity (popcount mod 2) of an int."""
    return bin(word).count("1") & 1
