"""Binary BCH codes: the paper's strong multi-bit ECC (ECC-2 .. ECC-6).

The paper (Sec. III-E) uses t-error-correcting BCH over GF(2^m) with
``t*m`` parity bits (plus one for t+1-error detection).  For a 64-byte
line (512 data bits) this means m=10 and, for ECC-6, 60 parity bits —
exactly the budget available in a (72,64)-style ECC DIMM once SECDED is
moved to line granularity (paper Fig. 6).

Two implementations live side by side:

* the **fast path** (:meth:`BchCode.encode` / :meth:`BchCode.decode`)
  folds precomputed generator-matrix rows and packed parity-check
  columns byte-at-a-time (:mod:`repro.ecc.matrix`), with batch variants
  (:meth:`BchCode.encode_batch` etc.) for bulk traffic;
* the **reference path** (:meth:`BchCode.encode_reference` /
  :meth:`BchCode.decode_reference`) keeps the original polynomial
  division and per-bit syndrome evaluation.  It is the oracle for the
  differential test harness (``tests/ecc/test_differential.py``) and is
  deliberately untouched by the fast-path tables.

Both paths share Berlekamp–Massey and Chien search, so they are
bit-identical by construction everywhere except parity/syndrome
computation — exactly what the differential suite verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.ecc.backend import MIN_SLICED_BATCH, get_engine
from repro.ecc.bitslice import lane_flags, supports_from_contributions
from repro.ecc.counters import CodecCounters
from repro.ecc.gf import GF2m, get_field, gf2_poly_degree, gf2_poly_lcm, gf2_poly_mod
from repro.ecc.matrix import build_chunk_tables, cached_tables, fold_word
from repro.errors import ConfigurationError, EncodingError, UncorrectableError

#: Bit width of one packed-syndrome lane (fits any supported GF(2^m)).
_LANE_BITS = 16
_LANE_MASK = (1 << _LANE_BITS) - 1


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a successful decode.

    Attributes:
        data: the corrected data bits as an int.
        corrected_positions: bit positions (in the codeword) that were
            flipped by the decoder; empty tuple for a clean word.
    """

    data: int
    corrected_positions: tuple[int, ...]

    @property
    def errors_corrected(self) -> int:
        return len(self.corrected_positions)


@dataclass(frozen=True)
class _BchTables:
    """Precomputed fast-path matrices for one (t, data_bits, m) config.

    Attributes:
        parity: chunk tables over the data bits; folding a data word
            yields its ``parity_bits``-bit remainder.
        syndrome: chunk tables over the base codeword bits; folding a
            received word yields all ``2t`` syndromes packed into
            16-bit lanes (lane ``j-1`` holds ``S_j``).
    """

    parity: list[list[int]]
    syndrome: list[list[int]]


def _generator_for(t: int, m: int, primitive_poly: int) -> int:
    """g(x) = lcm of minimal polynomials of alpha^1 .. alpha^(2t), cached."""

    def build() -> int:
        field = get_field(m)
        gen = 1
        for j in range(1, 2 * t + 1):
            gen = gf2_poly_lcm(gen, field.minimal_polynomial(j))
        return gen

    return cached_tables(("bch-generator", t, m, primitive_poly), build)


def _tables_for(
    t: int, data_bits: int, m: int, generator: int, base_len: int, field: GF2m
) -> _BchTables:
    """Fast-path tables, cached per (t, data_bits, m, generator)."""

    def build() -> _BchTables:
        parity_bits = gf2_poly_degree(generator)
        top = 1 << parity_bits
        # Generator-matrix rows: x^(parity_bits + i) mod g(x), built
        # incrementally (multiply by x, reduce) instead of dividing a
        # full-length polynomial for every row.
        r = gf2_poly_mod(top, generator)
        rows = []
        for _ in range(data_bits):
            rows.append(r)
            r <<= 1
            if r & top:
                r ^= generator
        # Parity-check columns: lane j-1 of column p holds alpha^(j*p).
        exp = field._exp
        order = field.order
        columns = []
        for p in range(base_len):
            packed = 0
            for j in range(1, 2 * t + 1):
                packed |= exp[(j * p) % order] << ((j - 1) * _LANE_BITS)
            columns.append(packed)
        return _BchTables(
            parity=build_chunk_tables(rows),
            syndrome=build_chunk_tables(columns),
        )

    key = ("bch", t, data_bits, m, generator)
    return cached_tables(key, build)


@dataclass(frozen=True)
class _SlicedBch:
    """Engine-compiled maps for the bit-sliced batch paths.

    Attributes:
        enc: data slices -> parity slices (the generator-matrix rows).
        chk: codeword slices -> remainder slices (``x^p mod g``); any
            nonzero output lane marks a dirty word.
    """

    enc: object
    chk: object


def _sliced_for(code: "BchCode", engine) -> _SlicedBch:
    """The lane engine's compiled maps, cached per code parameters."""

    def build() -> _SlicedBch:
        parity_bits = code.parity_bits
        generator = code.generator
        top = 1 << parity_bits
        r = gf2_poly_mod(top, generator)
        rows = []
        for _ in range(code.data_bits):
            rows.append(r)
            r <<= 1
            if r & top:
                r ^= generator
        c = 1  # x^0 mod g
        checks = []
        for _ in range(code._base_len):
            checks.append(c)
            c <<= 1
            if c & top:
                c ^= generator
        if code.extended:
            checks.append(0)  # the ext parity bit is outside g's reach
        return _SlicedBch(
            enc=engine.compile_map(
                supports_from_contributions(rows, parity_bits), code.data_bits
            ),
            chk=engine.compile_map(
                supports_from_contributions(checks, parity_bits), code.codeword_bits
            ),
        )

    key = ("bch-sliced", code.t, code.data_bits, code.m, code.generator, code.extended)
    return cached_tables(key, build)


class BchCode:
    """A shortened, systematic, t-error-correcting binary BCH code.

    Args:
        t: guaranteed correction capability (number of bit errors).
        data_bits: number of data bits per codeword (e.g. 512 for a 64-byte
            line).
        m: Galois-field degree; defaults to the smallest m with
            ``2^m - 1 >= data_bits + t*m``.
        extended: if True, append one overall parity bit, turning the code
            into a (t)EC-(t+1)ED code (the paper's "61 bits if we want
            6-bit correction and 7-bit detection").

    Codeword layout (LSB first): ``[parity | data]`` — data occupies the
    high ``data_bits`` bits, parity the low bits, and the optional extended
    parity bit sits above the data.

    Attributes:
        counters: :class:`repro.ecc.counters.CodecCounters` tallying the
            fast-path traffic of this instance (reference-path calls are
            not counted).
    """

    def __init__(self, t: int, data_bits: int, m: int | None = None, extended: bool = False):
        if t < 1:
            raise ConfigurationError(f"BCH needs t >= 1, got t={t}")
        if data_bits < 1:
            raise ConfigurationError(f"BCH needs data_bits >= 1, got {data_bits}")
        if m is None:
            m = 3
            while (1 << m) - 1 < data_bits + t * m:
                m += 1
                if m > 16:
                    raise ConfigurationError(
                        f"no supported field fits data_bits={data_bits}, t={t}"
                    )
        self.field: GF2m = get_field(m)
        self.t = t
        self.m = m
        self.n_full = (1 << m) - 1
        self.data_bits = data_bits
        self.extended = extended
        self.generator = _generator_for(t, m, self.field.primitive_poly)
        self.parity_bits = gf2_poly_degree(self.generator)
        base_len = data_bits + self.parity_bits
        if base_len > self.n_full:
            raise ConfigurationError(
                f"shortened length {base_len} exceeds n={self.n_full} for m={m}"
            )
        self.codeword_bits = base_len + (1 if extended else 0)
        # Precompute masks.
        self._parity_mask = (1 << self.parity_bits) - 1
        self._data_shift = self.parity_bits
        self._ext_bit = 1 << (base_len) if extended else 0
        self._base_len = base_len
        self._base_mask = (1 << base_len) - 1
        self._tables = _tables_for(
            t, data_bits, m, self.generator, base_len, self.field
        )
        self.counters = CodecCounters()

    # -- encode -------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Systematically encode ``data`` into a codeword int (fast path).

        Raises:
            EncodingError: if data does not fit in ``data_bits``.
        """
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        word = (data << self.parity_bits) | fold_word(self._tables.parity, data)
        if self.extended and _parity_of(word):
            word |= self._ext_bit
        self.counters.encodes += 1
        return word

    def encode_batch(self, datas: Iterable[int]) -> list[int]:
        """Encode many data words; equivalent to ``[encode(d) for d in datas]``.

        Batches of at least ``MIN_SLICED_BATCH`` words go through the
        bitsliced lane engine (see :mod:`repro.ecc.backend`): one
        transpose, one compiled parity fold, one untranspose for the
        whole batch.  Smaller batches take the scalar :meth:`encode`.
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
        shift = self.parity_bits
        extended = self.extended
        ext_bit = self._ext_bit
        for data in datas:
            if data < 0 or data >> data_bits:
                raise EncodingError(f"data does not fit in {data_bits} bits")
        n = len(datas)
        maps = _sliced_for(self, engine)
        slices = engine.transpose(datas, data_bits)
        parity_slices = engine.fold(slices, maps.enc)
        parities = engine.untranspose(parity_slices, n)
        if extended:
            # Lane parity of the base codeword = data parity ^ parity parity.
            ext = lane_flags(
                engine.xor_reduce(slices) ^ engine.xor_reduce(parity_slices), n
            )
            out = [
                (data << shift)
                | parity
                | (ext_bit if (ext[i >> 3] >> (i & 7)) & 1 else 0)
                for i, (data, parity) in enumerate(zip(datas, parities))
            ]
        else:
            out = [
                (data << shift) | parity for data, parity in zip(datas, parities)
            ]
        self.counters.encodes += n
        self.counters.record_backend(engine.name, n)
        return out

    def encode_reference(self, data: int) -> int:
        """Reference (oracle) encoder: systematic polynomial division.

        Bit-identical to :meth:`encode`; kept as the slow path for the
        differential test harness.  Does not touch :attr:`counters`.
        """
        if data < 0 or data >> self.data_bits:
            raise EncodingError(f"data does not fit in {self.data_bits} bits")
        shifted = data << self.parity_bits
        parity = gf2_poly_mod(shifted, self.generator)
        word = shifted | parity
        if self.extended and _parity_of(word):
            word |= self._ext_bit
        return word

    def extract_data(self, codeword: int) -> int:
        """Pull the data bits out of a codeword without decoding."""
        return (codeword & self._base_mask) >> self._data_shift

    # -- decode -------------------------------------------------------------

    def check(self, received: int) -> bool:
        """True iff ``received`` is a valid codeword (syndrome-only test).

        This is the cheapest integrity probe: one table fold, no error
        location.  Out-of-range words are simply invalid.
        """
        if received < 0 or received >> self.codeword_bits:
            return False
        if fold_word(self._tables.syndrome, received & self._base_mask):
            return False
        return not (self.extended and _parity_of(received))

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
        maps = _sliced_for(self, engine)
        slices = engine.transpose(safe, cw_bits)
        dirty = engine.or_reduce(engine.fold(slices, maps.chk))
        if self.extended:
            dirty |= engine.xor_reduce(slices)
        self.counters.record_backend(engine.name, n)
        if not dirty:  # common case: every in-range word is a codeword
            return valid
        flags = lane_flags(dirty, n)
        return [
            ok and not ((flags[i >> 3] >> (i & 7)) & 1)
            for i, ok in enumerate(valid)
        ]

    def decode(self, received: int) -> DecodeResult:
        """Correct up to t errors in ``received`` and return the data.

        Raises:
            UncorrectableError: when the decoder *detects* more errors than
                it can correct.  Patterns with > t errors that alias onto a
                valid codeword (or a correctable coset) are miscorrected
                silently, as in real hardware.
        """
        if received < 0 or received >> self.codeword_bits:
            self.counters.record_detected()
            raise UncorrectableError("received word has out-of-range bits")
        base = received & self._base_mask
        packed = fold_word(self._tables.syndrome, base)
        if packed == 0:
            if self.extended and _parity_of(received):
                # Clean BCH word but bad overall parity: the error is the
                # extended parity bit itself.
                self.counters.record_decode(1)
                return DecodeResult(self.extract_data(base), (self._base_len,))
            self.counters.record_decode(0)
            return DecodeResult(self.extract_data(base), ())
        syndromes = [
            (packed >> (j * _LANE_BITS)) & _LANE_MASK for j in range(2 * self.t)
        ]
        try:
            result = self._locate_and_correct(received, base, syndromes)
        except UncorrectableError:
            self.counters.record_detected()
            raise
        self.counters.record_decode(result.errors_corrected)
        return result

    def decode_batch(
        self, words: Iterable[int]
    ) -> list[DecodeResult | UncorrectableError]:
        """Decode many received words without raising.

        Returns one entry per word: the :class:`DecodeResult` on success,
        or the :class:`UncorrectableError` instance the word produced —
        callers classify outcomes with ``isinstance`` instead of
        try/except per word.
        """
        if not isinstance(words, list):
            words = list(words)
        out: list[DecodeResult | UncorrectableError] = []
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
        # Sliced prescreen: one fold finds the (rare) dirty lanes; clean
        # lanes skip syndrome extraction and BM/Chien entirely.  Dirty and
        # out-of-range lanes take the scalar decoder, so results *and*
        # counter updates stay bit-identical to the scalar loop.
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
        maps = _sliced_for(self, engine)
        slices = engine.transpose(safe, cw_bits)
        dirty = engine.or_reduce(engine.fold(slices, maps.chk))
        if self.extended:
            dirty |= engine.xor_reduce(slices)
        base_mask = self._base_mask
        shift = self._data_shift
        bad = dirty | invalid
        if not bad:  # common case: whole batch clean, skip the lane loop
            out = [DecodeResult((w & base_mask) >> shift, ()) for w in words]
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
                append(DecodeResult((word & base_mask) >> shift, ()))
        if n_clean:
            self.counters.decodes += n_clean
            hist = self.counters.corrected_histogram
            hist[0] = hist.get(0, 0) + n_clean
        self.counters.record_backend(engine.name, n)
        return out

    def decode_reference(self, received: int) -> DecodeResult:
        """Reference (oracle) decoder using per-bit syndrome evaluation.

        Bit-identical to :meth:`decode` (same Berlekamp–Massey and Chien
        search); the differential harness replays traffic through both.
        Does not touch :attr:`counters`.
        """
        if received < 0 or received >> self.codeword_bits:
            raise UncorrectableError("received word has out-of-range bits")
        base = received & self._base_mask
        syndromes = self._syndromes_reference(base)
        if all(s == 0 for s in syndromes):
            if self.extended and _parity_of(received):
                return DecodeResult(self.extract_data(base), (self._base_len,))
            return DecodeResult(self.extract_data(base), ())
        return self._locate_and_correct(received, base, syndromes)

    def _locate_and_correct(
        self, received: int, base: int, syndromes: list[int]
    ) -> DecodeResult:
        """Shared back half of both decode paths: BM + Chien + fixup."""
        sigma = self._berlekamp_massey(syndromes)
        n_errors = len(sigma) - 1
        if n_errors > self.t:
            raise UncorrectableError(
                "error locator degree exceeds t", detected_errors=n_errors
            )
        positions = self._chien_search(sigma)
        if len(positions) != n_errors:
            raise UncorrectableError(
                "error locator does not split over valid positions",
                detected_errors=n_errors,
            )
        if self.extended:
            # Total flips must leave the overall parity consistent.
            corrected = received
            for pos in positions:
                corrected ^= 1 << pos
            if _parity_of(corrected):
                # Parity mismatch after correcting n <= t errors means the
                # true error count is n+1 (or more): detected.
                if n_errors >= self.t:
                    raise UncorrectableError(
                        "extended parity indicates t+1 errors",
                        detected_errors=n_errors + 1,
                    )
                # Fewer than t corrections plus the parity bit itself.
                positions = positions + [self._base_len]
                corrected ^= self._ext_bit
            return DecodeResult(self.extract_data(corrected), tuple(sorted(positions)))

        corrected = base
        for pos in positions:
            corrected ^= 1 << pos
        return DecodeResult(self.extract_data(corrected), tuple(sorted(positions)))

    def _syndromes_reference(self, received: int) -> list[int]:
        """S_j = r(alpha^j) for j = 1..2t, iterating over set bits only."""
        field = self.field
        exp = field._exp
        order = field.order
        syndromes = [0] * (2 * self.t)
        bits = []
        word = received
        while word:
            low = word & -word
            bits.append(low.bit_length() - 1)
            word ^= low
        for j in range(1, 2 * self.t + 1):
            acc = 0
            for i in bits:
                acc ^= exp[(j * i) % order]
            syndromes[j - 1] = acc
        return syndromes

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        """Find the error-locator polynomial sigma(x) (low-to-high coeffs)."""
        field = self.field
        sigma = [1]
        prev_sigma = [1]
        length = 0
        shift = 1
        prev_discrepancy = 1
        for step, s in enumerate(syndromes):
            # discrepancy d = s + sum_{i=1..L} sigma_i * S_{step-i}
            d = s
            for i in range(1, length + 1):
                if i < len(sigma) and sigma[i]:
                    d ^= field.mul(sigma[i], syndromes[step - i])
            if d == 0:
                shift += 1
                continue
            scale = field.div(d, prev_discrepancy)
            candidate = sigma[:]
            # candidate = sigma - scale * x^shift * prev_sigma
            needed = len(prev_sigma) + shift
            if len(candidate) < needed:
                candidate.extend([0] * (needed - len(candidate)))
            for i, coeff in enumerate(prev_sigma):
                if coeff:
                    candidate[i + shift] ^= field.mul(scale, coeff)
            if 2 * length <= step:
                prev_sigma = sigma
                prev_discrepancy = d
                length = step + 1 - length
                shift = 1
            else:
                shift += 1
            sigma = candidate
        # Trim trailing zeros.
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(self, sigma: list[int]) -> list[int]:
        """Roots of sigma give error positions; keep only in-range ones.

        A root at ``alpha^(-i)`` marks an error at codeword position ``i``.
        Only positions ``[0, base_len)`` exist in the shortened code, so
        only those are returned, in ascending order: a root beyond them
        means the pattern is uncorrectable, which the caller's root-count
        check catches because fewer than ``degree`` positions come back.

        Berlekamp–Massey normalises ``sigma_0 = 1``.  Locators of degree
        1 and 2 are solved in closed form (:meth:`_low_degree_roots`);
        higher degrees scan ``[0, base_len)`` in the log domain, where
        term ``k`` at position ``i`` is ``alpha^(log sigma_k - i*k)``.
        """
        degree = len(sigma) - 1
        if 0 < degree < 3:
            return self._low_degree_roots(sigma)
        field = self.field
        exp, log, order = field._exp, field._log, field.order
        constant = sigma[0]
        terms = [(log[coeff], k) for k, coeff in enumerate(sigma) if k and coeff]
        positions = []
        for i in range(self._base_len):
            value = constant
            for log_coeff, k in terms:
                value ^= exp[(log_coeff - i * k) % order]
            if value == 0:
                positions.append(i)
                if len(positions) == degree:
                    break
        return positions

    def _low_degree_roots(self, sigma: list[int]) -> list[int]:
        """Error positions of a locator ``1 + s1 x (+ s2 x^2)`` in closed form.

        * degree 1: the root ``1/s1`` sits at position ``log s1``;
        * degree 2 with ``s1 = 0``: ``x^2 = 1/s2`` has the double root at
          position ``log s2 / 2``, i.e. ``log s2 * (order+1)/2 mod order``
          (one position for two errors, so the caller reports it);
        * otherwise ``x = (s1/s2) y`` turns it into ``y^2 + y = s2/s1^2``,
          looked up in the field's quadratic table; no root exists when
          that constant has trace 1.

        Returns the same list as the scan: positions below ``base_len``,
        ascending.
        """
        field = self.field
        log, order = field._log, field.order
        if len(sigma) == 2:
            roots = [log[sigma[1]]]
        elif sigma[1] == 0:
            roots = [log[sigma[2]] * ((order + 1) >> 1) % order]
        else:
            exp = field._exp
            log_s1, log_s2 = log[sigma[1]], log[sigma[2]]
            log_y = _quadratic_roots(field)[exp[(log_s2 - 2 * log_s1) % order]]
            if log_y < 0:
                return []
            # y and y ^ 1 both solve it; neither is 0 or 1 as s2 != 0.
            shift = log_s2 - log_s1
            log_other = log[exp[log_y] ^ 1]
            roots = sorted(((shift - log_y) % order, (shift - log_other) % order))
        base_len = self._base_len
        return [i for i in roots if i < base_len]

    def __repr__(self) -> str:
        kind = "extended " if self.extended else ""
        return (
            f"BchCode({kind}t={self.t}, data_bits={self.data_bits}, m={self.m}, "
            f"parity_bits={self.parity_bits + (1 if self.extended else 0)})"
        )


def _quadratic_roots(field: GF2m) -> list[int]:
    """``table[c]`` = ``log y`` of a root of ``y^2 + y = c``, or -1 if none.

    ``y -> y^2 + y`` is two-to-one onto the trace-0 half of the field
    (``y`` and ``y ^ 1`` share an image), so half the entries are -1.
    Built once per field by enumerating the even root of each pair; this
    works for even ``m`` too, where the half-trace does not solve the
    equation.  ``c = 0`` (roots 0 and 1) is left at -1: the degree-2
    locators that look it up have ``c != 0``.  Entries reuse the field's
    own log values, so the table adds no int objects.
    """

    def build() -> list[int]:
        exp, log = field._exp, field._log
        table = [-1] * field.size
        for y in range(2, field.size, 2):
            log_y = log[y]
            table[exp[2 * log_y] ^ y] = log_y
        return table

    return cached_tables(("gf-quadratic", field.m, field.primitive_poly), build)


def _parity_of(word: int) -> int:
    """Overall parity (popcount mod 2) of an int."""
    return bin(word).count("1") & 1
