"""Sparse functional memory storing real morphable codewords.

Lines are materialized lazily: untouched memory is represented by its
deterministic background pattern (zeros encoded in strong mode), so a
1 GB space costs nothing until written.  Reads decode the stored word
with the real :class:`repro.ecc.layout.LineCodec`, classify the outcome,
and (for MECC) perform the ECC-Downgrade re-encode.

Fault injection happens lazily too: each line remembers when it was last
"touched" (encoded or scrubbed); on the next access, the fault process
samples the flips accumulated over the elapsed simulated time at the
refresh period(s) in force.  A line's weak-cell RNG is built only when
its weak population grows (:meth:`FaultProcess.retention_decay`).

Decoding is cached per line: each line keeps the stored word it last
decoded and that decode's outcome, and a read, scrub or upgrade of an
unchanged word reuses the outcome instead of decoding again.  The key is
the whole stored word, so every write, fault flip, re-encode or injected
corruption forces a fresh decode; the outcome classification
(:class:`IntegrityCounters`) still runs on every access.  The codec's own
counters therefore count only the decodes the memory performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ecc.layout import LineCodec, LineDecodeResult
from repro.errors import ConfigurationError, DecodingError, ModeBitError
from repro.functional.faults import FaultProcess, LineFaultState
from repro.types import EccMode


@dataclass
class IntegrityCounters:
    """Outcome counts across all functional accesses."""

    reads: int = 0
    writes: int = 0
    corrected_bits: int = 0
    lines_with_correction: int = 0
    detected_uncorrectable: int = 0
    silent_corruptions: int = 0
    trial_decodes: int = 0
    downgrades: int = 0
    upgrades: int = 0

    @property
    def data_loss_events(self) -> int:
        return self.detected_uncorrectable + self.silent_corruptions


@dataclass
class _StoredLine:
    """One materialized line: its codeword and fault bookkeeping."""

    stored: int
    mode: EccMode
    last_touched_s: float
    expected_data: int  # ground truth for silent-corruption detection
    fault_state: LineFaultState | None = None
    # The word last decoded (-1: none yet) and that decode's outcome: a
    # LineDecodeResult, or the DecodingError/ModeBitError it raised.
    decoded_word: int = -1
    decoded: LineDecodeResult | DecodingError | ModeBitError | None = None


class FunctionalMemory:
    """A data-holding memory under a refresh period and a fault process.

    Args:
        codec: the morphable line codec (default: the paper's 64B/ECC-6).
        faults: the fault process; None disables fault injection.
        line_bytes: line granularity.
    """

    def __init__(
        self,
        codec: LineCodec | None = None,
        faults: FaultProcess | None = None,
        line_bytes: int = 64,
    ):
        self.codec = codec or LineCodec(line_bytes=line_bytes)
        self.faults = faults
        self.line_bytes = line_bytes
        self.counters = IntegrityCounters()
        self.refresh_period_s = 0.064
        self._now_s = 0.0
        self._lines: dict[int, _StoredLine] = {}

    # -- time & refresh ---------------------------------------------------------

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance_time(self, seconds: float) -> None:
        """Advance the simulated clock; faults accrue lazily per line."""
        if seconds < 0:
            raise ConfigurationError("cannot advance time backwards")
        self._now_s += seconds

    def set_refresh_period(self, period_s: float) -> None:
        """Change the refresh period; accrued faults are settled first.

        Settling matters: flips that accumulated at the *old* period must
        not be re-evaluated at the new one.
        """
        if period_s <= 0:
            raise ConfigurationError("refresh period must be positive")
        for address in list(self._lines):
            self._settle_faults(address)
        self.refresh_period_s = period_s

    # -- data path -----------------------------------------------------------------

    def write(self, address: int, data: int, mode: EccMode) -> None:
        """Encode and store a line (a write-back from the LLC)."""
        line = self._line_index(address)
        if data < 0 or data >> (8 * self.line_bytes):
            raise ConfigurationError("data does not fit in a line")
        previous = self._lines.get(line)
        fault_state = previous.fault_state if previous is not None else (
            self.faults.line_state() if self.faults is not None else None
        )
        self._lines[line] = _StoredLine(
            stored=self.codec.encode(data, mode),
            mode=mode,
            last_touched_s=self._now_s,
            expected_data=data,
            fault_state=fault_state,
        )
        self.counters.writes += 1

    def read(self, address: int, downgrade: bool = False) -> int | None:
        """Decode a line; optionally ECC-Downgrade it on the way out.

        Returns the data, or ``None`` when the decoder *detected* an
        uncorrectable pattern (data loss, counted).  Silent corruptions
        (decode succeeded with wrong data) are counted via ground truth.
        """
        line = self._line_index(address)
        entry = self._materialize(line)
        self._settle_faults_entry(entry, line)
        self.counters.reads += 1
        return self._finish_read(entry, self._decode(entry), downgrade)

    def write_batch(self, addresses, datas, mode: EccMode) -> None:
        """Bulk :meth:`write`: one codec ``encode_batch`` for all lines."""
        addresses = list(addresses)
        datas = list(datas)
        if len(addresses) != len(datas):
            raise ConfigurationError("addresses and datas must have equal length")
        stored_words = self.codec.encode_batch(datas, mode)
        for address, data, stored in zip(addresses, datas, stored_words):
            line = self._line_index(address)
            previous = self._lines.get(line)
            fault_state = previous.fault_state if previous is not None else (
                self.faults.line_state() if self.faults is not None else None
            )
            self._lines[line] = _StoredLine(
                stored=stored,
                mode=mode,
                last_touched_s=self._now_s,
                expected_data=data,
                fault_state=fault_state,
            )
        self.counters.writes += len(addresses)

    def read_batch(self, addresses, downgrade: bool = False) -> list[int | None]:
        """Bulk :meth:`read`: settle faults, then one ``decode_batch``.

        The patrol scrubber uses this to sweep every materialized line in
        a single codec pass over the lines whose stored word changed;
        per-line outcome accounting is identical to :meth:`read`.
        """
        entries = []
        lines = []
        for address in addresses:
            line = self._line_index(address)
            entries.append(self._materialize(line))
            lines.append(line)
        self._settle_faults_batch(entries, lines)
        self.counters.reads += len(entries)
        results = self._decode_batch(entries)
        return [
            self._finish_read(entry, result, downgrade)
            for entry, result in zip(entries, results)
        ]

    def _finish_read(self, entry: _StoredLine, result, downgrade: bool) -> int | None:
        """Shared classification/write-back tail of read and read_batch."""
        if isinstance(result, Exception):
            self.counters.detected_uncorrectable += 1
            return None
        if result.used_trial_decode:
            self.counters.trial_decodes += 1
        if result.errors_corrected:
            self.counters.corrected_bits += result.errors_corrected
            self.counters.lines_with_correction += 1
        if result.data != entry.expected_data:
            self.counters.silent_corruptions += 1
        if result.errors_corrected or (downgrade and result.mode is EccMode.STRONG):
            # Scrub corrected errors back to storage; apply the downgrade.
            new_mode = EccMode.WEAK if downgrade else result.mode
            if downgrade and result.mode is EccMode.STRONG:
                self.counters.downgrades += 1
            entry.stored = self.codec.encode(result.data, new_mode)
            entry.mode = new_mode
            entry.last_touched_s = self._now_s
        return result.data

    def upgrade_line(self, address: int) -> bool:
        """ECC-Upgrade one line (idle-entry scan); False on decode failure."""
        line = self._line_index(address)
        entry = self._materialize(line)
        self._settle_faults_entry(entry, line)
        result = self._decode(entry)
        if isinstance(result, Exception):
            self.counters.detected_uncorrectable += 1
            return False
        if result.data != entry.expected_data:
            self.counters.silent_corruptions += 1
        if result.mode is EccMode.WEAK:
            self.counters.upgrades += 1
        entry.stored = self.codec.encode(result.data, EccMode.STRONG)
        entry.mode = EccMode.STRONG
        entry.last_touched_s = self._now_s
        return True

    def upgrade_batch(self, addresses) -> list[bool]:
        """Bulk :meth:`upgrade_line`: one settle pass, one decode_batch,
        one encode_batch for every upgradeable line."""
        entries = []
        lines = []
        for address in addresses:
            line = self._line_index(address)
            entries.append(self._materialize(line))
            lines.append(line)
        self._settle_faults_batch(entries, lines)
        results = self._decode_batch(entries)
        out = []
        survivors = []
        datas = []
        for entry, result in zip(entries, results):
            if isinstance(result, Exception):
                self.counters.detected_uncorrectable += 1
                out.append(False)
                continue
            if result.data != entry.expected_data:
                self.counters.silent_corruptions += 1
            if result.mode is EccMode.WEAK:
                self.counters.upgrades += 1
            survivors.append(entry)
            datas.append(result.data)
            out.append(True)
        for entry, stored in zip(
            survivors, self.codec.encode_batch(datas, EccMode.STRONG)
        ):
            entry.stored = stored
            entry.mode = EccMode.STRONG
            entry.last_touched_s = self._now_s
        return out

    def mode_of(self, address: int) -> EccMode:
        line = self._line_index(address)
        if line in self._lines:
            return self._lines[line].mode
        return EccMode.STRONG

    def stored_modes(self) -> dict[int, EccMode]:
        """Line index -> stored ECC mode for every materialized line.

        The data-plane-agreement invariant compares this against the
        controller's :class:`repro.core.line_store.LineEccStore` view.
        """
        return {line: entry.mode for line, entry in self._lines.items()}

    # -- fault injection (chaos harness) ------------------------------------

    def rewrite_mode(self, address: int, mode: EccMode) -> None:
        """Fault-inject: silently re-encode a line under another ECC mode.

        Models the end state of a corrupted conversion: the stored word
        is a *valid* codeword of ``mode``, but nothing else in the system
        was told.  Bypasses all counters by design.
        """
        line = self._line_index(address)
        entry = self._materialize(line)
        self._settle_faults_entry(entry, line)
        entry.stored = self.codec.encode(entry.expected_data, mode)
        entry.mode = mode
        entry.last_touched_s = self._now_s

    def corrupt_stored(self, address: int, positions) -> None:
        """Fault-inject: XOR the given bit positions of the stored word.

        Used by the mode-replica campaigns to flip individual replica
        bits (positions ``[0, mode_bits)`` of the stored layout).
        """
        line = self._line_index(address)
        entry = self._materialize(line)
        for position in positions:
            if not 0 <= position < self.codec.stored_bits:
                raise ConfigurationError(
                    f"bit position {position} outside the stored word"
                )
            entry.stored ^= 1 << position

    @property
    def materialized_lines(self) -> int:
        return len(self._lines)

    def weak_addresses(self) -> list[int]:
        """Byte addresses of all currently weak lines."""
        return [
            line * self.line_bytes
            for line, entry in self._lines.items()
            if entry.mode is EccMode.WEAK
        ]

    # -- internals ---------------------------------------------------------------------

    def _line_index(self, address: int) -> int:
        if address < 0:
            raise ConfigurationError("address must be non-negative")
        return address // self.line_bytes

    def _decode(self, entry: _StoredLine):
        """The decode outcome of ``entry.stored``, decoding only a word
        that changed since the line's last decode."""
        stored = entry.stored
        if stored != entry.decoded_word:
            try:
                entry.decoded = self.codec.decode(stored)
            except (DecodingError, ModeBitError) as exc:
                entry.decoded = exc
            entry.decoded_word = stored
        return entry.decoded

    def _decode_batch(self, entries) -> list:
        """:meth:`_decode` for many lines: one ``decode_batch`` over the
        lines whose stored word changed since their last decode."""
        stale = [entry for entry in entries if entry.stored != entry.decoded_word]
        if stale:
            outcomes = self.codec.decode_batch([entry.stored for entry in stale])
            for entry, outcome in zip(stale, outcomes):
                entry.decoded_word = entry.stored
                entry.decoded = outcome
        return [entry.decoded for entry in entries]

    def _materialize(self, line: int) -> _StoredLine:
        entry = self._lines.get(line)
        if entry is None:
            entry = _StoredLine(
                stored=self.codec.encode(0, EccMode.STRONG),
                mode=EccMode.STRONG,
                last_touched_s=self._now_s,
                expected_data=0,
            )
            if self.faults is not None:
                entry.fault_state = self.faults.line_state()
            self._lines[line] = entry
        return entry

    def _settle_faults(self, address_line: int) -> None:
        entry = self._lines.get(address_line)
        if entry is not None:
            self._settle_faults_entry(entry, address_line)

    def _settle_faults_entry(self, entry: _StoredLine, line_index: int) -> None:
        """Apply the faults accrued since the line was last touched.

        Retention decay uses the line's *fixed* weak-cell population
        (the same cells decay every slow window, each to its discharge
        value, so unread lines do not accumulate unbounded errors);
        soft-error upsets accumulate with elapsed time.
        """
        if self.faults is None:
            entry.last_touched_s = self._now_s
            return
        elapsed = self._now_s - entry.last_touched_s
        if elapsed <= 0:
            return
        for position in self.faults.sample_soft_error_flips(elapsed):
            entry.stored ^= 1 << position
        if elapsed >= self.refresh_period_s and entry.fault_state is not None:
            f = self.faults.retention_flip_probability(self.refresh_period_s)
            decayed = self.faults.retention_decay(entry.fault_state, line_index, f)
            for position, decay in decayed:
                if (entry.stored >> position) & 1 != decay:
                    entry.stored ^= 1 << position
        entry.last_touched_s = self._now_s

    def _settle_faults_batch(self, entries, lines) -> None:
        """Batched :meth:`_settle_faults_entry` over many lines.

        The shared soft-error RNG is drawn in entry order (one batched
        call), and per-line weak-cell RNGs are order-independent by
        construction, so a seeded run settles bit-identically to the
        per-line loop.  Timestamps update as each line is collected, so
        duplicate lines in one batch settle once — as sequential calls
        would.
        """
        faults = self.faults
        now = self._now_s
        if faults is None:
            for entry in entries:
                entry.last_touched_s = now
            return
        pending = []
        for entry, line in zip(entries, lines):
            elapsed = now - entry.last_touched_s
            if elapsed <= 0:
                continue
            pending.append((entry, line, elapsed))
            entry.last_touched_s = now
        if not pending:
            return
        flip_lists = faults.sample_soft_error_flips_batch(
            [elapsed for _, _, elapsed in pending]
        )
        period = self.refresh_period_s
        for (entry, line, elapsed), positions in zip(pending, flip_lists):
            for position in positions:
                entry.stored ^= 1 << position
            if elapsed >= period and entry.fault_state is not None:
                f = faults.retention_flip_probability(period)
                decayed = faults.retention_decay(entry.fault_state, line, f)
                for position, decay in decayed:
                    if (entry.stored >> position) & 1 != decay:
                        entry.stored ^= 1 << position


class NoEccMemory:
    """Raw (ECC-free) functional memory — the strawman comparator.

    Same fault process and clock semantics as :class:`FunctionalMemory`,
    but lines are stored as bare 512-bit values: every flip that lands on
    a stored bit is a silent corruption at the next read.  Quantifies why
    a 1 s refresh period is unusable without ECC.
    """

    def __init__(self, faults: FaultProcess | None = None, line_bytes: int = 64):
        self.faults = faults
        self.line_bytes = line_bytes
        self.counters = IntegrityCounters()
        self.refresh_period_s = 0.064
        self._now_s = 0.0
        self._lines: dict[int, _StoredLine] = {}

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance_time(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("cannot advance time backwards")
        self._now_s += seconds

    def set_refresh_period(self, period_s: float) -> None:
        if period_s <= 0:
            raise ConfigurationError("refresh period must be positive")
        for line, entry in self._lines.items():
            self._settle(entry, line)
        self.refresh_period_s = period_s

    def write(self, address: int, data: int, mode: EccMode = EccMode.WEAK) -> None:
        if data < 0 or data >> (8 * self.line_bytes):
            raise ConfigurationError("data does not fit in a line")
        line = address // self.line_bytes
        previous = self._lines.get(line)
        fault_state = previous.fault_state if previous is not None else (
            self.faults.line_state() if self.faults is not None else None
        )
        self._lines[line] = _StoredLine(
            stored=data, mode=mode, last_touched_s=self._now_s,
            expected_data=data, fault_state=fault_state,
        )
        self.counters.writes += 1

    def read(self, address: int, downgrade: bool = False) -> int:
        line = address // self.line_bytes
        entry = self._lines.get(line)
        if entry is None:
            entry = _StoredLine(0, EccMode.WEAK, self._now_s, 0)
            if self.faults is not None:
                entry.fault_state = self.faults.line_state()
            self._lines[line] = entry
        self._settle(entry, line)
        self.counters.reads += 1
        if entry.stored != entry.expected_data:
            self.counters.silent_corruptions += 1
        return entry.stored

    def weak_addresses(self) -> list[int]:
        return []

    def upgrade_line(self, address: int) -> bool:
        return True

    def _settle(self, entry: _StoredLine, line_index: int) -> None:
        if self.faults is None:
            entry.last_touched_s = self._now_s
            return
        elapsed = self._now_s - entry.last_touched_s
        if elapsed <= 0:
            return
        data_bits = 8 * self.line_bytes
        for position in self.faults.sample_soft_error_flips(elapsed):
            if position < data_bits:
                entry.stored ^= 1 << position
        if elapsed >= self.refresh_period_s and entry.fault_state is not None:
            f = self.faults.retention_flip_probability(self.refresh_period_s)
            decayed = self.faults.retention_decay(entry.fault_state, line_index, f)
            for position, decay in decayed:
                if position < data_bits and (entry.stored >> position) & 1 != decay:
                    entry.stored ^= 1 << position
        entry.last_touched_s = self._now_s
