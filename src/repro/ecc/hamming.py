"""Hamming-based SEC-DED codes: the paper's weak ECC.

Implements single-error-correct, double-error-detect codes for arbitrary
data lengths using the classic extended-Hamming construction: check bits
at power-of-two positions plus one overall parity bit.  Two instances
matter for the paper:

* ``SecDedCode(64)`` — the traditional (72,64) word-granularity code of
  paper Fig. 6(i).
* ``SecDedCode(512)`` — SEC-DED over a whole 64-byte line, needing 11
  check bits, as proposed in paper Sec. III-D / Fig. 6(ii).

Like :class:`repro.ecc.bch.BchCode`, the codec has one matrix fast path
(chunked XOR-fold tables from :mod:`repro.ecc.matrix`, with a counters
object) and keeps the original per-bit walks as the reference path
(:meth:`SecDedCode.encode_reference` /
:meth:`SecDedCode.decode_reference`) for the differential harness.  The
compact forms (:meth:`SecDedCode.encode_compact` /
:meth:`SecDedCode.decode_compact`) serve the morphable line's weak
mode from its stored message and compacted check bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
class _CodewordTables:
    """Fast-path tables over full codewords for one data length.

    Attributes:
        syndrome: chunk tables over the codeword bits; folding a received
            word yields its Hamming syndrome (bit 0 contributes nothing).
        extract: chunk tables over the codeword bits; folding a codeword
            yields the packed data bits.
    """

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
        self._data_mask = (1 << data_bits) - 1
        self._checks_mask = (1 << self.check_bits) - 1
        (
            self._data_positions,
            self._check_positions,
            self._max_position,
            self._position_of_data,
        ) = cached_tables(("secded-layout", data_bits), self._build_layout)
        self._scatter = cached_tables(
            ("secded-scatter", data_bits), self._build_scatter
        )
        self.counters = CodecCounters()

    def _build_layout(self) -> tuple:
        """Codeword positions of the data and check bits (shared, read-only).

        Data bit ``i`` sits at the ``i``-th non-power-of-two Hamming
        position; check bit ``i`` at position ``2^i``.  Also returns the
        highest occupied position and the position -> data-bit map.
        """
        data_positions: list[int] = []
        pos = 1
        while len(data_positions) < self.data_bits:
            if pos & (pos - 1):  # not a power of two
                data_positions.append(pos)
            pos += 1
        check_positions = [1 << i for i in range(self.hamming_check_bits)]
        # The last check position may exceed the last data position
        # (possible for data lengths just above a power of two).
        max_position = max(data_positions[-1], check_positions[-1])
        position_of_data = {p: i for i, p in enumerate(data_positions)}
        return data_positions, check_positions, max_position, position_of_data

    def _build_scatter(self) -> list[list[int]]:
        """Chunk tables over the data bits; folding a data word yields
        ``(scattered word << 16) | hamming_syndrome``."""
        if self.codeword_bits > _SYN_MASK:
            raise ConfigurationError(
                "SEC-DED fast path supports codewords up to 65535 bits"
            )
        return build_chunk_tables(
            [(1 << (pos + _SYN_BITS)) | pos for pos in self._data_positions]
        )

    @cached_property
    def _codeword_tables(self) -> _CodewordTables:
        """Full-codeword tables, cached per data length, built on first use.

        Only :meth:`decode`, :meth:`check` and :meth:`extract_data` fold a
        full codeword.  The compact paths never do, so a codec that only
        serves them (the morphable line's weak code) never builds these
        ~1.4 MB of tables.
        """

        def build() -> _CodewordTables:
            # Codeword bit p contributes its Hamming position p to the
            # syndrome; the overall-parity bit at position 0 contributes 0.
            syndrome = list(range(self.codeword_bits))
            extract = [0] * self.codeword_bits
            for i, pos in enumerate(self._data_positions):
                extract[pos] = 1 << i
            return _CodewordTables(
                syndrome=build_chunk_tables(syndrome),
                extract=build_chunk_tables(extract),
            )

        return cached_tables(("secded", self.data_bits), build)

    # -- encode -------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode data into a codeword int (bit 0 = overall parity)."""
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        packed = fold_word(self._scatter, data)
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

    def encode_compact(self, data: int) -> int:
        """The check bits of :meth:`encode`, without building the codeword.

        Bit 0 is the overall parity and bit ``i+1`` the check bit at
        Hamming position ``2^i`` (the morphable line layout stores them
        this way).  The Hamming check bits are the data syndrome itself.
        Counted as one encode.
        """
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        syndrome = fold_word(self._scatter, data) & _SYN_MASK
        self.counters.encodes += 1
        return (syndrome << 1) | (_parity_of(data) ^ _parity_of(syndrome))

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
        return fold_word(self._codeword_tables.extract, codeword)

    # -- decode -------------------------------------------------------------

    def check(self, received: int) -> bool:
        """True iff ``received`` is a valid codeword (syndrome-only test)."""
        if received < 0 or received >> self.codeword_bits:
            return False
        if fold_word(self._codeword_tables.syndrome, received):
            return False
        return _parity_of(received) == 0

    def decode(self, received: int) -> SecDedResult:
        """Correct a single error or detect a double error.

        Raises:
            UncorrectableError: on a detected double error.
        """
        if received < 0 or received >> self.codeword_bits:
            self.counters.record_detected()
            raise UncorrectableError("received word has out-of-range bits")
        syndrome = fold_word(self._codeword_tables.syndrome, received)
        overall = _parity_of(received)
        try:
            result = self._resolve(received, syndrome, overall)
        except UncorrectableError:
            self.counters.record_detected()
            raise
        self.counters.record_decode(result.errors_corrected)
        return result

    def decode_compact(self, data: int, checks: int) -> SecDedResult:
        """:meth:`decode` of a codeword kept as data plus compact checks.

        ``checks`` is the :meth:`encode_compact` field.  Only the low
        ``data_bits`` of ``data`` and ``check_bits`` of ``checks`` are
        read.  The result, the raised errors and the counter updates
        equal those of :meth:`decode` on the rebuilt codeword, but no
        codeword is built: one scatter fold gives the data syndrome, and
        each stored check bit ``i+1`` adds its position ``2^i``.
        """
        data &= self._data_mask
        checks &= self._checks_mask
        syndrome = (fold_word(self._scatter, data) & _SYN_MASK) ^ (checks >> 1)
        overall = _parity_of(data) ^ _parity_of(checks)
        try:
            position = self._locate(syndrome, overall)
        except UncorrectableError:
            self.counters.record_detected()
            raise
        index = self._position_of_data.get(position)
        if index is not None:
            data ^= 1 << index
        result = SecDedResult(data, position)
        self.counters.record_decode(result.errors_corrected)
        return result

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
        """Decision of :meth:`_locate` applied to a full codeword."""
        position = self._locate(syndrome, overall)
        if position is not None:
            received ^= 1 << position
        return SecDedResult(self.extract_data(received), position)

    def _locate(self, syndrome: int, overall: int) -> int | None:
        """Shared decision logic of every decode path.

        Returns the codeword position to flip, or ``None`` for a clean
        word.

        Raises:
            UncorrectableError: on a detected double error, or a single
                error whose syndrome points past the last position.
        """
        if overall == 0:
            if syndrome == 0:
                return None
            # syndrome != 0 and overall parity holds -> even number of errors.
            raise UncorrectableError("double-bit error detected", detected_errors=2)
        # Single error: at Hamming position `syndrome`, or at the overall
        # parity bit itself (position 0) when syndrome == 0.
        if syndrome > self._max_position:
            raise UncorrectableError("syndrome points outside the codeword")
        return syndrome

    def __repr__(self) -> str:
        return (
            f"SecDedCode(data_bits={self.data_bits}, "
            f"codeword_bits={self.codeword_bits})"
        )


def _parity_of(word: int) -> int:
    """Overall parity (popcount mod 2) of an int."""
    return bin(word).count("1") & 1
