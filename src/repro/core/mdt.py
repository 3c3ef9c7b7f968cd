"""Memory Downgrade Tracking (paper Sec. VI-A).

A table of single bits, one per memory region (default: 1K entries of
1 MB each over 1 GB — 128 *bytes* of controller storage).  The bit for a
region is set when any line in it undergoes ECC-Downgrade.  On idle entry
only the marked regions are scanned for ECC-Upgrade, cutting the upgrade
pass from ~400 ms (full memory) to ~50 ms (typical 128 MB footprint) and
saving 8x of the encoder energy.  The table resets after each upgrade.
"""

from __future__ import annotations

from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError


class MemoryDowngradeTracker:
    """The MDT bit table.

    Args:
        org: memory organization (for capacity/line size).
        entries: number of regions tracked (paper default: 1024).
    """

    def __init__(self, org: DramOrganization | None = None, entries: int = 1024):
        if entries < 1:
            raise ConfigurationError("entries must be >= 1")
        self.org = org or DramOrganization()
        if self.org.capacity_bytes % entries:
            raise ConfigurationError("entries must divide memory capacity")
        self.entries = entries
        self.region_bytes = self.org.capacity_bytes // entries
        if self.region_bytes < self.org.line_bytes:
            raise ConfigurationError("regions must hold at least one line")
        self._marked: set[int] = set()
        #: Optional :class:`repro.obs.trace.EventTracer`; None = no tracing.
        self.tracer = None

    @property
    def storage_bytes(self) -> int:
        """Hardware cost of the table: one bit per entry (128 B default)."""
        return (self.entries + 7) // 8

    @property
    def lines_per_region(self) -> int:
        return self.region_bytes // self.org.line_bytes

    def region_of(self, byte_address: int) -> int:
        """Region index of an address (top MSBs of the line address)."""
        if byte_address < 0:
            raise ConfigurationError("address must be non-negative")
        return (byte_address % self.org.capacity_bytes) // self.region_bytes

    def record_downgrade(self, byte_address: int) -> None:
        """Set the bit for the region containing a downgraded line."""
        region = self.region_of(byte_address)
        if region not in self._marked:
            self._marked.add(region)
            if self.tracer is not None:
                self.tracer.emit(
                    "mdt", "set", region=region, marked=len(self._marked)
                )

    def record_span(self, byte_address: int, n_bytes: int) -> None:
        """Set the bit of every region the bytes ``[byte_address,
        byte_address + n_bytes)`` touch, in address order.

        For a line-aligned span, when ``region_bytes`` is a whole number
        of lines, this marks the same bits and emits the same ``set``
        events, in the same order, as :meth:`record_downgrade` on each
        line of the span.
        """
        if byte_address < 0 or n_bytes < 0:
            raise ConfigurationError("address and span length must be non-negative")
        if not n_bytes:
            return
        # (address // region_bytes) % entries == region_of(address).
        first = byte_address // self.region_bytes
        last = (byte_address + n_bytes - 1) // self.region_bytes
        marked = self._marked
        # Past `entries` regions the span wraps onto regions it already set.
        for index in range(first, min(last + 1, first + self.entries)):
            region = index % self.entries
            if region not in marked:
                marked.add(region)
                if self.tracer is not None:
                    self.tracer.emit("mdt", "set", region=region, marked=len(marked))

    def is_marked(self, region: int) -> bool:
        if not 0 <= region < self.entries:
            raise ConfigurationError(f"region {region} out of range")
        return region in self._marked

    @property
    def marked_regions(self) -> frozenset[int]:
        return frozenset(self._marked)

    @property
    def marked_count(self) -> int:
        return len(self._marked)

    @property
    def tracked_bytes(self) -> int:
        """Memory the upgrade pass must scan (Fig. 11's y-axis)."""
        return self.marked_count * self.region_bytes

    def lines_to_upgrade(self) -> int:
        """Number of lines the MDT-guided ECC-Upgrade scans."""
        return self.marked_count * self.lines_per_region

    def reset(self) -> None:
        """Clear the table (done after each ECC-Upgrade pass)."""
        if self._marked and self.tracer is not None:
            self.tracer.emit("mdt", "clear", cleared=len(self._marked))
        self._marked.clear()

    # -- fault injection (chaos harness) ------------------------------------

    def inject_set(self, region: int) -> None:
        """Fault-inject: spuriously set a region bit (false-set fault).

        Models a bit flip in the controller's MDT SRAM.  A false-set bit
        costs extra idle-entry scan work but cannot lose data; the
        coherence invariant is expected to flag it.
        """
        if not 0 <= region < self.entries:
            raise ConfigurationError(f"region {region} out of range")
        self._marked.add(region)
        if self.tracer is not None:
            self.tracer.emit("mdt", "fault-set", region=region)

    def inject_clear(self, region: int) -> None:
        """Fault-inject: spuriously clear a region bit (false-clear fault).

        The dangerous direction: downgraded lines in the region will be
        skipped by an MDT-guided ECC-Upgrade unless the conservative
        fallback or the patrol scrubber catches them.
        """
        if not 0 <= region < self.entries:
            raise ConfigurationError(f"region {region} out of range")
        self._marked.discard(region)
        if self.tracer is not None:
            self.tracer.emit("mdt", "fault-clear", region=region)
