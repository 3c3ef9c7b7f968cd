"""Trace container and on-disk format.

A trace is a sequence of accesses in the USIMM convention: each carries
the number of non-memory instructions since the previous access, the
operation, and the line address.  :class:`Trace` stores them as three
typed columns (gaps, op flags, addresses) instead of one
:class:`repro.types.TraceRecord` object per access; ``trace.records`` is
a read-only view that builds records only when indexed or iterated.
Trace metadata carries the non-memory CPI the core model should charge
for gap instructions (the trace generator calibrates it against the
benchmark's target baseline IPC).

The cycle engine does not decode addresses per access: a trace memoizes
each record's ``(bank, row)`` columns per mapper geometry
(:meth:`Trace.decoded`), so every policy run, calibration pass and
exhibit over one trace shares a single decode.

The text format is one record per line: ``<gap> <R|W> <hex-address>``,
with ``#``-prefixed metadata headers.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Sequence
from typing import Iterable, Iterator

from repro.errors import TraceError
from repro.types import MemoryOp, TraceRecord

#: Values of :attr:`Trace.ops`: one byte per record.
READ_FLAG = 0
WRITE_FLAG = 1
_OP_OF_FLAG = (MemoryOp.READ, MemoryOp.WRITE)


class TraceRecords(Sequence):
    """Read-only sequence view of a trace's records.

    ``len`` reads the columns; a :class:`TraceRecord` is built only when
    the view is indexed or iterated, so no record objects are kept.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.gaps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        trace = self._trace
        return TraceRecord(
            gap=trace.gaps[index],
            op=_OP_OF_FLAG[trace.ops[index]],
            address=trace.addresses[index],
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        trace = self._trace
        for gap, flag, address in zip(trace.gaps, trace.ops, trace.addresses):
            yield TraceRecord(gap=gap, op=_OP_OF_FLAG[flag], address=address)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceRecords):
            return self._trace._columns() == other._trace._columns()
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"TraceRecords({self._trace.name!r}, {len(self)} records)"


class Trace:
    """An in-memory workload trace plus scheduling metadata.

    ``Trace(name, records, nonmem_cpi)`` builds a trace from
    :class:`TraceRecord` s; :meth:`from_columns` adopts ready-made
    columns.  The columns are shared, never copied, by :meth:`prefix`
    and the decode memo, so treat them as read-only.

    Attributes:
        name: workload name.
        gaps: non-memory instructions before each record (``array('q')``).
        ops: :data:`READ_FLAG` / :data:`WRITE_FLAG` per record (``bytes``).
        addresses: line-aligned byte address per record (``array('q')``).
        nonmem_cpi: cycles charged per gap instruction by the core model
            (captures non-memory stalls beyond the 2-wide retire limit).
    """

    def __init__(
        self,
        name: str,
        records: Iterable[TraceRecord] = (),
        nonmem_cpi: float = 0.5,
    ):
        gaps = array("q")
        ops = bytearray()
        addresses = array("q")
        WRITE = MemoryOp.WRITE
        for record in records:
            gaps.append(record.gap)
            ops.append(WRITE_FLAG if record.op is WRITE else READ_FLAG)
            addresses.append(record.address)
        self._adopt(name, gaps, bytes(ops), addresses, nonmem_cpi)

    @classmethod
    def from_columns(
        cls,
        name: str,
        gaps: array,
        ops: bytes,
        addresses: array,
        nonmem_cpi: float = 0.5,
    ) -> "Trace":
        """A trace over existing columns (adopted, not copied).

        Raises:
            ValueError: on a negative gap or address, as
                :class:`TraceRecord` does.
            TraceError: on columns of unequal length or unknown op flags.
        """
        if not len(gaps) == len(ops) == len(addresses):
            raise TraceError("trace columns must have equal lengths")
        if gaps and min(gaps) < 0:
            raise ValueError(f"trace gap must be non-negative, got {min(gaps)}")
        if addresses and min(addresses) < 0:
            raise ValueError("trace address must be non-negative")
        if ops and max(ops) > WRITE_FLAG:
            raise TraceError(f"unknown op flag {max(ops)}")
        trace = cls.__new__(cls)
        trace._adopt(name, gaps, bytes(ops), addresses, nonmem_cpi)
        return trace

    def _adopt(self, name, gaps, ops, addresses, nonmem_cpi) -> None:
        if nonmem_cpi <= 0:
            raise TraceError("nonmem_cpi must be positive")
        self.name = name
        self.gaps = gaps
        self.ops = ops
        self.addresses = addresses
        self.nonmem_cpi = nonmem_cpi
        #: mapper geometry -> (banks, rows) columns; see :meth:`decoded`.
        self._decoded: dict = {}
        #: (trace, n): this trace is the first n records of ``trace``,
        #: whose decode it slices instead of decoding again.
        self._decode_source: tuple[Trace, int] | None = None

    def _columns(self) -> tuple:
        return (self.gaps, self.ops, self.addresses)

    @property
    def records(self) -> TraceRecords:
        """The records, as a read-only view over the columns."""
        return TraceRecords(self)

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and self.nonmem_cpi == other.nonmem_cpi
            and self._columns() == other._columns()
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, records={len(self)}, "
            f"nonmem_cpi={self.nonmem_cpi!r})"
        )

    def prefix(self, n_records: int) -> "Trace":
        """The first ``n_records`` records as a trace of their own.

        The prefix shares this trace's decode: :meth:`decoded` on it
        slices this trace's memoized columns (decoding them here first if
        needed), so a prefix never decodes an address a second time.
        """
        n_records = max(0, min(n_records, len(self)))
        if n_records == len(self):
            gaps, ops, addresses = self._columns()
        else:
            gaps = self.gaps[:n_records]
            ops = self.ops[:n_records]
            addresses = self.addresses[:n_records]
        prefix = Trace.__new__(Trace)
        prefix._adopt(self.name, gaps, ops, addresses, self.nonmem_cpi)
        prefix._decode_source = (self, n_records)
        return prefix

    def decoded(self, mapper) -> tuple[array, array]:
        """Per-record ``(banks, rows)`` columns under ``mapper``'s geometry.

        Decoded once per geometry (:attr:`AddressMapper.geometry`) and
        memoized, so every run over this trace with an equal mapping
        shares the columns.
        """
        key = mapper.geometry
        columns = self._decoded.get(key)
        if columns is None:
            if self._decode_source is not None:
                source, n_records = self._decode_source
                banks, rows = source.decoded(mapper)
                if n_records < len(banks):
                    banks, rows = banks[:n_records], rows[:n_records]
                columns = (banks, rows)
            else:
                columns = mapper.decode(self.addresses)
            self._decoded[key] = columns
        return columns

    @property
    def writes(self) -> int:
        return self.ops.count(WRITE_FLAG)

    @property
    def reads(self) -> int:
        return len(self.ops) - self.writes

    @property
    def instructions(self) -> int:
        """Total instructions represented: gaps plus one per demand read.

        Writes are dirty write-backs accompanying evictions, not retired
        instructions, so they do not count.
        """
        return sum(self.gaps) + self.reads

    @property
    def mpki(self) -> float:
        """Demand-read misses per kilo-instruction."""
        instrs = self.instructions
        if instrs == 0:
            raise TraceError("empty trace has no MPKI")
        return 1000.0 * self.reads / instrs

    def footprint_bytes(self, line_bytes: int = 64) -> int:
        """Bytes in distinct lines touched by the trace."""
        return line_bytes * len({a // line_bytes for a in self.addresses})

    def unique_pages(self, page_bytes: int = 4096) -> int:
        """Distinct pages touched (the paper's footprint metric)."""
        return len({a // page_bytes for a in self.addresses})


_OP_CODES = ("R", "W")
_FLAG_FROM_CODE = {"R": READ_FLAG, "W": WRITE_FLAG}


def write_trace(trace: Trace, stream: io.TextIOBase) -> None:
    """Serialize a trace to a text stream."""
    stream.write(f"# name: {trace.name}\n")
    stream.write(f"# nonmem_cpi: {trace.nonmem_cpi!r}\n")
    for gap, flag, address in zip(trace.gaps, trace.ops, trace.addresses):
        stream.write(f"{gap} {_OP_CODES[flag]} {address:#x}\n")


def read_trace(stream: io.TextIOBase) -> Trace:
    """Parse a trace from a text stream.

    Raises:
        TraceError: on malformed records or headers.
    """
    name = "unnamed"
    nonmem_cpi = 0.5
    gaps = array("q")
    ops = bytearray()
    addresses = array("q")
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip()
                value = value.strip()
                if key == "name":
                    name = value
                elif key == "nonmem_cpi":
                    try:
                        nonmem_cpi = float(value)
                    except ValueError as exc:
                        raise TraceError(f"line {line_no}: bad nonmem_cpi") from exc
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TraceError(f"line {line_no}: expected 'gap op address', got {line!r}")
        gap_text, op_code, addr_text = parts
        if op_code not in _FLAG_FROM_CODE:
            raise TraceError(f"line {line_no}: unknown op {op_code!r}")
        try:
            gap = int(gap_text)
            address = int(addr_text, 16)
        except ValueError as exc:
            raise TraceError(f"line {line_no}: bad numeric field") from exc
        if gap < 0:
            raise TraceError(f"line {line_no}: trace gap must be non-negative, got {gap}")
        if address < 0:
            raise TraceError(f"line {line_no}: trace address must be non-negative")
        try:
            gaps.append(gap)
            addresses.append(address)
        except OverflowError as exc:
            raise TraceError(f"line {line_no}: {exc}") from exc
        ops.append(_FLAG_FROM_CODE[op_code])
    return Trace.from_columns(name, gaps, bytes(ops), addresses, nonmem_cpi)


def concatenate(name: str, traces: Iterable[Trace]) -> Trace:
    """Join traces back to back (used to build multi-phase sessions)."""
    traces = list(traces)
    if not traces:
        raise TraceError("cannot concatenate zero traces")
    gaps = array("q")
    ops = bytearray()
    addresses = array("q")
    for t in traces:
        gaps.extend(t.gaps)
        ops.extend(t.ops)
        addresses.extend(t.addresses)
    # Weight the CPI by each trace's instruction share.
    total_instrs = sum(t.instructions for t in traces)
    cpi = sum(t.nonmem_cpi * t.instructions for t in traces) / max(1, total_instrs)
    return Trace.from_columns(name, gaps, bytes(ops), addresses, cpi)
