"""Sparse per-line ECC-mode bookkeeping for a whole memory.

Physically the ECC mode lives in each line's mode bits
(:mod:`repro.ecc.layout`); the simulator only needs to know *which* mode
each line is in.  Since idle entry leaves every line strong, and active
periods downgrade a working set that is small relative to 1 GB, the store
keeps only the set of weak (downgraded) line indices.
"""

from __future__ import annotations

from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError
from repro.types import EccMode


class LineEccStore:
    """Tracks each line's ECC mode; all lines start strong (post-idle)."""

    def __init__(self, org: DramOrganization | None = None):
        self.org = org or DramOrganization()
        self._total_lines = self.org.total_lines
        self._weak_lines: set[int] = set()

    def _check(self, line: int) -> None:
        if not 0 <= line < self._total_lines:
            raise ConfigurationError(
                f"line {line} out of range [0, {self._total_lines})"
            )

    def mode_of(self, line: int) -> EccMode:
        self._check(line)
        return EccMode.WEAK if line in self._weak_lines else EccMode.STRONG

    def downgrade(self, line: int) -> bool:
        """Mark a line weak; returns True if it was strong (a real downgrade)."""
        return not self.touch(line, True)

    def touch(self, line: int, downgrade: bool) -> bool:
        """One access's mode step; returns True if ``line`` is weak.

        A strong line is range-checked and, with ``downgrade``, marked
        weak.  The MECC controller calls this once per access, so it
        does in one call what :meth:`mode_of` then :meth:`downgrade` do.
        """
        weak_lines = self._weak_lines
        if line in weak_lines:
            return True  # in range: only checked lines are ever added
        self._check(line)
        if downgrade:
            weak_lines.add(line)
        return False

    def upgrade(self, line: int) -> bool:
        """Mark a line strong; returns True if it was weak (a real upgrade)."""
        self._check(line)
        if line in self._weak_lines:
            self._weak_lines.remove(line)
            return True
        return False

    def upgrade_all(self) -> int:
        """ECC-Upgrade every downgraded line; returns how many converted."""
        return len(self.drain_all())

    def upgrade_region(self, start_line: int, line_count: int) -> int:
        """Upgrade all weak lines within ``[start_line, start_line + count)``."""
        return len(self.drain_region(start_line, line_count))

    def drain_all(self) -> frozenset[int]:
        """Upgrade every weak line; returns the set of lines converted.

        The set-returning form exists for callers that must mirror the
        conversion onto a data plane (e.g. the chaos harness upgrading
        the corresponding functional-memory lines).
        """
        converted = frozenset(self._weak_lines)
        self._weak_lines.clear()
        return converted

    def drain_region(self, start_line: int, line_count: int) -> frozenset[int]:
        """Upgrade the weak lines of one region; returns the converted set."""
        if line_count < 0:
            raise ConfigurationError("line_count must be non-negative")
        end = start_line + line_count
        converted = frozenset(
            l for l in self._weak_lines if start_line <= l < end
        )
        self._weak_lines -= converted
        return converted

    @property
    def weak_count(self) -> int:
        return len(self._weak_lines)

    @property
    def weak_lines(self) -> frozenset[int]:
        return frozenset(self._weak_lines)

    def all_strong(self) -> bool:
        return not self._weak_lines
