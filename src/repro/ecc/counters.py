"""Codec-level operation counters.

Every fast-path codec (:class:`repro.ecc.bch.BchCode`,
:class:`repro.ecc.hamming.SecDedCode`) carries one :class:`CodecCounters`
instance that tallies encodes, decodes, detected-uncorrectable events and
a corrected-bit histogram.  The reference (oracle) paths deliberately do
*not* count, so differential tests can replay traffic without polluting
the production statistics.  A batch call counts exactly what its
per-word calls would.

:meth:`CodecCounters.as_dict` is the plain-dict snapshot that tests and
tools read.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CodecCounters:
    """Operation tallies for one codec instance.

    Attributes:
        encodes: words encoded through the fast path.
        decodes: decode attempts (successful or detected).
        detected_uncorrectable: decodes that raised a detected failure.
        corrected_histogram: map ``bits corrected per word -> word count``
            over successful decodes (key 0 counts clean words).
    """

    encodes: int = 0
    decodes: int = 0
    detected_uncorrectable: int = 0
    corrected_histogram: dict[int, int] = field(default_factory=dict)

    def record_decode(self, corrected_bits: int) -> None:
        self.decodes += 1
        hist = self.corrected_histogram
        hist[corrected_bits] = hist.get(corrected_bits, 0) + 1

    def record_detected(self) -> None:
        self.decodes += 1
        self.detected_uncorrectable += 1

    @property
    def corrected_bits_total(self) -> int:
        """Total bits flipped back across all successful decodes."""
        return sum(bits * n for bits, n in self.corrected_histogram.items())

    @property
    def words_with_correction(self) -> int:
        """Successful decodes that corrected at least one bit."""
        return sum(n for bits, n in self.corrected_histogram.items() if bits)

    def reset(self) -> None:
        self.encodes = 0
        self.decodes = 0
        self.detected_uncorrectable = 0
        self.corrected_histogram = {}

    def as_dict(self) -> dict:
        """Plain-dict snapshot (stable keys, for export/reporting)."""
        return {
            "encodes": self.encodes,
            "decodes": self.decodes,
            "detected_uncorrectable": self.detected_uncorrectable,
            "corrected_bits_total": self.corrected_bits_total,
            "words_with_correction": self.words_with_correction,
            "corrected_histogram": dict(sorted(self.corrected_histogram.items())),
        }
