"""The (72,64)-compatible morphable line layout of paper Fig. 6.

A 64-byte line carries 64 bits of ECC storage (the budget of a standard
(72,64) DIMM).  MECC repurposes this field as:

* bits ``[0:4)``  — the ECC-mode bit, replicated 4 ways for fault
  tolerance (``0000`` = weak/SECDED, ``1111`` = strong/ECC-6);
* bits ``[4:64)`` — either the 11-bit line-granularity SEC-DED code
  (weak mode, remaining bits unused) or the 60-bit BCH ECC-6 code
  (strong mode).

Both codes cover the 512 data bits *and* the 4 mode-replica bits (paper
Sec. III-D: "All the data bits and ECC-mode bits are covered by the
ECC-6").  When the four replicas disagree without a clear majority, the
controller tries both decoders and accepts the one whose corrected output
is self-consistent — exactly the paper's fallback.

This module implements the layout bit-exactly with the real codecs so the
fault-injection experiments can validate the scheme end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecc.backend import MIN_SLICED_BATCH
from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.errors import (
    ConfigurationError,
    DecodingError,
    ModeBitError,
    UncorrectableError,
)
from repro.types import EccMode

#: Number of replicas of the ECC-mode bit (paper: 4-way redundancy).
MODE_REPLICAS = 4


@dataclass(frozen=True)
class EccFieldLayout:
    """Bit allocation inside the per-line ECC field.

    Attributes:
        field_bits: total ECC storage per line (64 for a (72,64) system).
        mode_bits: replicas of the mode bit at the bottom of the field.
        code_bits: bits available to the actual code.
    """

    field_bits: int = 64
    mode_bits: int = MODE_REPLICAS

    def __post_init__(self) -> None:
        if self.mode_bits < 1:
            raise ConfigurationError("at least one mode bit is required")
        if self.field_bits <= self.mode_bits:
            raise ConfigurationError("field must hold mode bits plus code bits")

    @property
    def code_bits(self) -> int:
        return self.field_bits - self.mode_bits


@dataclass(frozen=True)
class LineDecodeResult:
    """Outcome of decoding one stored line."""

    data: int
    mode: EccMode
    errors_corrected: int
    used_trial_decode: bool


class LineCodec:
    """Encode/decode whole 72-byte stored lines in either ECC mode.

    The stored word is ``(data << field_bits) | ecc_field`` where the data
    occupies the high 512 bits.  The *protected message* given to either
    code is ``(data << mode_bits) | mode_replicas`` — 516 bits.

    Args:
        line_bytes: data bytes per line (default 64).
        strong_t: correction strength of the strong code (default 6).
        layout: ECC-field layout (default: the (72,64) 64-bit field).
    """

    def __init__(
        self,
        line_bytes: int = 64,
        strong_t: int = 6,
        layout: EccFieldLayout | None = None,
    ):
        self.layout = layout or EccFieldLayout()
        self.line_bytes = line_bytes
        self.data_bits = line_bytes * 8
        message_bits = self.data_bits + self.layout.mode_bits
        self.weak_code = SecDedCode(message_bits)
        self.strong_code = BchCode(strong_t, message_bits)
        weak_parity = self.weak_code.check_bits
        strong_parity = self.strong_code.parity_bits
        if weak_parity > self.layout.code_bits:
            raise ConfigurationError(
                f"weak code needs {weak_parity} bits, layout offers {self.layout.code_bits}"
            )
        if strong_parity > self.layout.code_bits:
            raise ConfigurationError(
                f"strong code needs {strong_parity} bits > {self.layout.code_bits}; "
                f"reduce strong_t"
            )
        self.stored_bits = self.data_bits + self.layout.field_bits

    # -- mode replicas -------------------------------------------------------

    def _mode_pattern(self, mode: EccMode) -> int:
        return ((1 << self.layout.mode_bits) - 1) if mode is EccMode.STRONG else 0

    def read_mode_replicas(self, stored: int) -> int:
        """Extract the raw replica bits from a stored word."""
        return stored & ((1 << self.layout.mode_bits) - 1)

    def resolve_mode(self, replicas: int) -> EccMode | None:
        """Majority-vote the replicas; ``None`` means a tie (trial decode)."""
        ones = bin(replicas).count("1")
        zeros = self.layout.mode_bits - ones
        if ones > zeros:
            return EccMode.STRONG
        if zeros > ones:
            return EccMode.WEAK
        return None

    # -- encode ---------------------------------------------------------------

    def encode(self, data: int, mode: EccMode) -> int:
        """Encode a 512-bit data block into the 576-bit stored word."""
        if data < 0 or data >> self.data_bits:
            raise ConfigurationError(f"data does not fit in {self.data_bits} bits")
        replicas = self._mode_pattern(mode)
        message = (data << self.layout.mode_bits) | replicas
        if mode is EccMode.STRONG:
            codeword = self.strong_code.encode(message)
            parity = codeword & ((1 << self.strong_code.parity_bits) - 1)
            code_field = parity
        else:
            # The SEC-DED codeword interleaves its check bits; the field
            # stores them compacted (overall parity, then position 2^i).
            code_field = self.weak_code.encode_compact(message)
        field = (code_field << self.layout.mode_bits) | replicas
        return (data << self.layout.field_bits) | field

    def encode_batch(self, datas, mode: EccMode) -> list[int]:
        """Encode many 512-bit data blocks in one mode (bulk fast path).

        Routes the whole batch through the underlying code's
        ``encode_batch`` so Monte-Carlo campaigns pay the Python loop
        overhead once per stage instead of once per word.
        """
        replicas = self._mode_pattern(mode)
        mode_bits = self.layout.mode_bits
        messages = []
        for data in datas:
            if data < 0 or data >> self.data_bits:
                raise ConfigurationError(
                    f"data does not fit in {self.data_bits} bits"
                )
            messages.append((data << mode_bits) | replicas)
        if mode is EccMode.STRONG:
            parity_mask = (1 << self.strong_code.parity_bits) - 1
            code_fields = [
                codeword & parity_mask
                for codeword in self.strong_code.encode_batch(messages)
            ]
        else:
            code_fields = self.weak_code.encode_compact_batch(messages)
        field_shift = self.layout.field_bits
        return [
            (message >> mode_bits) << field_shift
            | (code_field << mode_bits)
            | replicas
            for message, code_field in zip(messages, code_fields)
        ]

    # -- decode ---------------------------------------------------------------

    def decode(self, stored: int) -> LineDecodeResult:
        """Decode a stored word, resolving the ECC mode first.

        Raises:
            ModeBitError: if neither decoder yields a self-consistent line.
            DecodingError: if the resolved mode's decoder detects an
                uncorrectable pattern and the trial fallback also fails.
        """
        replicas = self.read_mode_replicas(stored)
        majority = self.resolve_mode(replicas)
        if majority is not None:
            try:
                return self._decode_as(stored, majority, trial=False)
            except (DecodingError, ModeBitError):
                other = EccMode.WEAK if majority is EccMode.STRONG else EccMode.STRONG
                try:
                    return self._decode_as(stored, other, trial=True)
                except (DecodingError, ModeBitError) as exc:
                    raise ModeBitError(
                        "line undecodable under both ECC modes"
                    ) from exc
        # Replica tie: paper's fallback — try both decoders.
        for mode in (EccMode.STRONG, EccMode.WEAK):
            try:
                return self._decode_as(stored, mode, trial=True)
            except (DecodingError, ModeBitError):
                continue
        raise ModeBitError("mode replicas tied and both decoders failed")

    def decode_batch(
        self, stored_words
    ) -> "list[LineDecodeResult | DecodingError | ModeBitError]":
        """Decode many stored words without raising.

        Returns one entry per word: the :class:`LineDecodeResult` on
        success, or the exception instance (``DecodingError`` /
        ``ModeBitError``) the word produced.

        Lines are grouped by majority-voted mode and pushed through the
        underlying codes' batch decoders (which bit-slice large groups);
        replica ties and decode failures fall back to the scalar
        trial-decode path per word, so outcomes match :meth:`decode`
        exactly.
        """
        if not isinstance(stored_words, list):
            stored_words = list(stored_words)
        n = len(stored_words)
        if n < MIN_SLICED_BATCH:
            out: list[LineDecodeResult | DecodingError | ModeBitError] = []
            append = out.append
            for stored in stored_words:
                try:
                    append(self.decode(stored))
                except (DecodingError, ModeBitError) as exc:
                    append(exc)
            return out
        results: list = [None] * n
        mode_mask = (1 << self.layout.mode_bits) - 1
        mode_bits = self.layout.mode_bits
        field_bits = self.layout.field_bits
        field_mask = (1 << field_bits) - 1
        strong_idx: list[int] = []
        weak_idx: list[int] = []
        for i, stored in enumerate(stored_words):
            majority = self.resolve_mode(stored & mode_mask)
            if majority is EccMode.STRONG:
                strong_idx.append(i)
            elif majority is EccMode.WEAK:
                weak_idx.append(i)
            else:
                # Replica tie (rare): the paper's try-both fallback.
                try:
                    results[i] = self.decode(stored)
                except (DecodingError, ModeBitError) as exc:
                    results[i] = exc
        if strong_idx:
            parity_bits = self.strong_code.parity_bits
            parity_mask = (1 << parity_bits) - 1
            codewords = []
            for i in strong_idx:
                stored = stored_words[i]
                field = stored & field_mask
                message = ((stored >> field_bits) << mode_bits) | (field & mode_mask)
                codewords.append(
                    (message << parity_bits) | ((field >> mode_bits) & parity_mask)
                )
            decoded = self.strong_code.decode_batch(codewords)
            for i, res in zip(strong_idx, decoded):
                results[i] = self._finish_line(stored_words[i], EccMode.STRONG, res)
        if weak_idx:
            messages = []
            checks = []
            for i in weak_idx:
                stored = stored_words[i]
                field = stored & field_mask
                messages.append(
                    ((stored >> field_bits) << mode_bits) | (field & mode_mask)
                )
                checks.append(field >> mode_bits)
            decoded = self.weak_code.decode_compact_batch(messages, checks)
            for i, res in zip(weak_idx, decoded):
                results[i] = self._finish_line(stored_words[i], EccMode.WEAK, res)
        return results

    def _finish_line(
        self, stored: int, mode: EccMode, result
    ) -> "LineDecodeResult | DecodingError | ModeBitError":
        """Line-level outcome from one underlying batch-decode entry.

        Mirrors the majority branch of :meth:`decode`: a successful
        decode whose corrected replicas agree with ``mode`` is accepted;
        anything else takes the scalar trial decode under the other mode.
        """
        if not isinstance(result, UncorrectableError):
            corrected_message = result.data
            if self.resolve_mode(corrected_message & ((1 << self.layout.mode_bits) - 1)) is mode:
                return LineDecodeResult(
                    data=corrected_message >> self.layout.mode_bits,
                    mode=mode,
                    errors_corrected=result.errors_corrected,
                    used_trial_decode=False,
                )
        other = EccMode.WEAK if mode is EccMode.STRONG else EccMode.STRONG
        try:
            return self._decode_as(stored, other, trial=True)
        except (DecodingError, ModeBitError) as exc:
            error = ModeBitError("line undecodable under both ECC modes")
            error.__cause__ = exc
            return error

    def _decode_as(self, stored: int, mode: EccMode, trial: bool) -> LineDecodeResult:
        data_part = stored >> self.layout.field_bits
        field = stored & ((1 << self.layout.field_bits) - 1)
        replicas = field & ((1 << self.layout.mode_bits) - 1)
        code_field = field >> self.layout.mode_bits
        message = (data_part << self.layout.mode_bits) | replicas
        if mode is EccMode.STRONG:
            parity = code_field & ((1 << self.strong_code.parity_bits) - 1)
            codeword = (message << self.strong_code.parity_bits) | parity
            result = self.strong_code.decode(codeword)
            corrected_message = result.data
            n_corrected = result.errors_corrected
        else:
            result = self.weak_code.decode_compact(message, code_field)
            corrected_message = result.data
            n_corrected = result.errors_corrected
        corrected_replicas = corrected_message & ((1 << self.layout.mode_bits) - 1)
        decoded_mode = self.resolve_mode(corrected_replicas)
        if decoded_mode is not mode:
            # The corrected replicas contradict the decoder we used: this
            # line was not actually stored in `mode`.
            raise ModeBitError(
                f"decoded replicas indicate {decoded_mode}, tried {mode}"
            )
        data = corrected_message >> self.layout.mode_bits
        return LineDecodeResult(
            data=data,
            mode=mode,
            errors_corrected=n_corrected,
            used_trial_decode=trial,
        )

    def __repr__(self) -> str:
        return (
            f"LineCodec(line_bytes={self.line_bytes}, "
            f"weak={self.weak_code!r}, strong={self.strong_code!r})"
        )
