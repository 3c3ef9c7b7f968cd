"""Physical-address-to-DRAM-coordinate mapping.

Two standard policies:

* ``row-interleaved`` (default, what the paper's open-page system wants):
  ``| row | bank | column-line |`` — sequential streams stay in one row
  buffer (locality), successive rows spread across banks.
  With the paper's organization (1 GB, 4 banks, 16 KB rows, 64 B lines):
  256 lines per row (8 column bits), 2 bank bits, 14 row bits.
* ``block-interleaved``: ``| row | column-line | bank |`` — consecutive
  lines round-robin across banks, maximizing bank parallelism at the
  cost of row-buffer hits.  Provided for the mapping ablation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError

MAPPING_POLICIES = ("row-interleaved", "block-interleaved")


@dataclass(frozen=True)
class LineLocation:
    """DRAM coordinates of one cache line."""

    bank: int
    row: int
    column_line: int


class AddressMapper:
    """Map byte addresses to (bank, row, column-line) coordinates."""

    def __init__(
        self,
        org: DramOrganization | None = None,
        policy: str = "row-interleaved",
    ):
        if policy not in MAPPING_POLICIES:
            raise ConfigurationError(
                f"unknown mapping policy {policy!r}; choose from {MAPPING_POLICIES}"
            )
        self.org = org or DramOrganization()
        self.policy = policy
        self._line_bytes = self.org.line_bytes
        self._lines_per_row = self.org.lines_per_row
        self._banks = self.org.banks * self.org.ranks * self.org.channels
        self._rows = self.org.rows
        # Each coordinate is ``line // divisor % modulus``.  The row field
        # sits above both the bank and column fields in either policy; its
        # modulus also wraps addresses beyond capacity, because every
        # divisor * modulus divides the total line count.
        if policy == "row-interleaved":
            self._bank_div, self._column_div = self._lines_per_row, 1
        else:  # block-interleaved
            self._bank_div, self._column_div = 1, self._banks
        self._row_div = self._lines_per_row * self._banks

    def line_address(self, byte_address: int) -> int:
        """Line index of a byte address."""
        if byte_address < 0:
            raise ConfigurationError("address must be non-negative")
        return byte_address // self._line_bytes

    def bank_row(self, byte_address: int) -> tuple[int, int]:
        """``(bank, row)`` of the line containing ``byte_address``.

        The allocation-free decode the memory controller calls per access;
        :meth:`locate` adds the column on top of it.
        """
        if byte_address < 0:
            raise ConfigurationError("address must be non-negative")
        line = byte_address // self._line_bytes
        return line // self._bank_div % self._banks, line // self._row_div % self._rows

    @property
    def geometry(self) -> tuple[int, int, int, int, int]:
        """Everything :meth:`bank_row` depends on.

        Mappers with equal geometries decode every address alike; traces
        key their memoized decode (:meth:`decode`) on it.
        """
        return (
            self._line_bytes, self._bank_div, self._banks, self._row_div, self._rows
        )

    def decode(self, byte_addresses) -> tuple[array, array]:
        """``(banks, rows)`` columns: :meth:`bank_row` of every address.

        The whole-trace form of the per-access decode; the cycle engine
        runs on these columns (see :meth:`repro.workloads.trace.Trace.decoded`).
        """
        line_bytes, bank_div, banks, row_div, rows = self.geometry
        lines = [address // line_bytes for address in byte_addresses]
        if lines and min(lines) < 0:
            raise ConfigurationError("address must be non-negative")
        return (
            array("i", [line // bank_div % banks for line in lines]),
            array("i", [line // row_div % rows for line in lines]),
        )

    def locate(self, byte_address: int) -> LineLocation:
        """Coordinates of the line containing ``byte_address``.

        Addresses beyond capacity wrap (traces are generated modulo the
        footprint, so this is a guard, not a normal path).
        """
        bank, row = self.bank_row(byte_address)
        column_line = (
            self.line_address(byte_address) // self._column_div % self._lines_per_row
        )
        return LineLocation(bank=bank, row=row, column_line=column_line)

    @property
    def total_banks(self) -> int:
        return self._banks
