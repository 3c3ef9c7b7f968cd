"""The MECC controller (paper Sec. III, Fig. 4/5).

Owns the per-line ECC-mode state, the MDT table, and the device's refresh
mode, and implements the two conversions:

* **ECC-Downgrade** (active mode, demand basis): the first access to a
  strong line decodes with the slow ECC-6 decoder, then the line is
  re-encoded with SECDED and written back — off the critical path — so
  subsequent accesses pay only the weak latency.
* **ECC-Upgrade** (idle entry): every downgraded line is converted back
  to ECC-6; with MDT only the marked regions are scanned.  Afterwards the
  device enters self-refresh with the 16x divider (1 s period).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.line_store import LineEccStore
from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.device import DramDevice
from repro.ecc.codes import ECC6, SECDED, EccScheme
from repro.errors import ConfigurationError
from repro.types import EccMode, SystemState


@dataclass(frozen=True)
class UpgradeReport:
    """What one idle-entry ECC-Upgrade pass did (paper Sec. VI-A numbers)."""

    lines_scanned: int
    lines_converted: int
    seconds: float
    encode_energy_j: float
    used_mdt: bool


class MeccController:
    """Morphable-ECC state machine for one memory system.

    Args:
        device: the DRAM device (organization + refresh modes).
        weak: the weak scheme (default SECDED, 2-cycle decode).
        strong: the strong scheme (default ECC-6, 30-cycle decode).
        mdt: optional Memory Downgrade Tracker; None disables MDT (idle
            entry scans the whole memory, the paper's unoptimized 400 ms).
        idle_fallback: ``"conservative"`` (default) treats the MDT as
            advisory — if the MDT-guided pass leaves any line downgraded
            (a table fault, so the unmarked regions are *unknown*), the
            whole memory is rescanned rather than trusting the table;
            ``"none"`` trusts the MDT unconditionally, the configuration
            the chaos campaigns use to expose what the fallback prevents.
    """

    def __init__(
        self,
        device: DramDevice | None = None,
        weak: EccScheme = SECDED,
        strong: EccScheme = ECC6,
        mdt: MemoryDowngradeTracker | None = None,
        use_mdt: bool = True,
        idle_fallback: str = "conservative",
    ):
        self.device = device or DramDevice()
        if strong.correctable <= weak.correctable:
            raise ConfigurationError("strong scheme must out-correct the weak scheme")
        self.weak = weak
        self.strong = strong
        self.line_store = LineEccStore(self.device.org)
        self._line_bytes = self.device.org.line_bytes
        self.mdt = mdt if mdt is not None else (
            MemoryDowngradeTracker(self.device.org) if use_mdt else None
        )
        if idle_fallback not in ("conservative", "none"):
            raise ConfigurationError(
                "idle_fallback must be 'conservative' or 'none'"
            )
        self.idle_fallback = idle_fallback
        self.state = SystemState.IDLE
        self.device.enter_self_refresh(slow=True)
        # Counters.
        self.downgrades = 0
        self.upgraded_lines = 0
        self.strong_decodes = 0
        self.weak_decodes = 0
        self.fallback_scans = 0
        #: Optional per-line upgrade callback; the chaos harness uses it
        #: to mirror idle-entry conversions onto a functional data plane.
        self.upgrade_sink = None
        # Observability hooks (see repro.obs): a tracer receives mode
        # transitions and conversions; an invariant suite is evaluated on
        # idle entry/exit.  Both default to None = zero overhead.
        self.tracer = None
        self.invariants = None
        #: SMD gate driving this controller, if any (set by MeccPolicy so
        #: invariant checks can see the gating state).
        self.smd_ref = None

    def reset(self) -> None:
        """Return to the just-constructed state: every line strong, idle.

        Used when one controller is re-run against several traces; the
        per-line mode store, MDT contents, and counters must not leak
        between runs.
        """
        self.line_store = LineEccStore(self.device.org)
        if self.mdt is not None:
            self.mdt.reset()
        self.state = SystemState.IDLE
        self.device.enter_self_refresh(slow=True)
        self.downgrades = 0
        self.upgraded_lines = 0
        self.strong_decodes = 0
        self.weak_decodes = 0
        self.fallback_scans = 0

    # -- active-mode data path ----------------------------------------------------

    def wake(self) -> None:
        """Idle -> active: refresh returns to 64 ms; lines stay strong."""
        self.state = SystemState.ACTIVE
        self.device.exit_self_refresh()
        if self.tracer is not None:
            self.tracer.emit(
                "mecc", "wake", weak_lines=self.line_store.weak_count
            )
        if self.invariants is not None:
            self.invariants.check(self, smd=self.smd_ref, event="idle-exit")

    def on_read(
        self, byte_address: int, downgrade_enabled: bool = True, now: int = 0
    ) -> tuple[int, bool]:
        """Decode latency and write-back need for a demand read.

        Returns ``(decode_cycles, writeback_needed)``.  The write-back is
        the ECC-Downgrade re-encode; it is issued off the critical path.
        ``now`` (processor cycles) only stamps trace events.
        """
        line = byte_address // self._line_bytes
        mode = self.line_store.mode_of(line)
        if mode is EccMode.WEAK:
            self.weak_decodes += 1
            return self.weak.decode_cycles, False
        self.strong_decodes += 1
        if not downgrade_enabled:
            return self.strong.decode_cycles, False
        self.line_store.downgrade(line)
        self.downgrades += 1
        if self.mdt is not None:
            self.mdt.record_downgrade(byte_address)
        if self.tracer is not None:
            self.tracer.emit("mecc", "downgrade", cycle=now, line=line, via="read")
        return self.strong.decode_cycles, True

    def on_write(
        self, byte_address: int, downgrade_enabled: bool = True, now: int = 0
    ) -> None:
        """A dirty write-back from the LLC re-encodes the line.

        With downgrade enabled the line is written in weak mode (and
        tracked); otherwise it is re-encoded with the strong code so the
        1 s refresh remains safe (SMD path).
        """
        line = byte_address // self._line_bytes
        if downgrade_enabled:
            if self.line_store.downgrade(line):
                self.downgrades += 1
                if self.mdt is not None:
                    self.mdt.record_downgrade(byte_address)
                if self.tracer is not None:
                    self.tracer.emit(
                        "mecc", "downgrade", cycle=now, line=line, via="write"
                    )
        else:
            self.line_store.upgrade(line)

    # -- idle entry ------------------------------------------------------------------

    def enter_idle(self) -> UpgradeReport:
        """Active -> idle: ECC-Upgrade, then slow self-refresh (Fig. 4)."""
        self.state = SystemState.IDLE
        org = self.device.org
        if self.mdt is not None:
            lines_scanned = self.mdt.lines_to_upgrade()
            lines_per_region = self.mdt.lines_per_region
            converted = 0
            for region in sorted(self.mdt.marked_regions):
                converted += self._upgrade_lines(
                    self.line_store.drain_region(
                        region * lines_per_region, lines_per_region
                    )
                )
            self.mdt.reset()
            used_mdt = True
        else:
            lines_scanned = org.total_lines
            converted = self._upgrade_lines(self.line_store.drain_all())
            used_mdt = False
        # Conservative MDT fallback: a weak line surviving the MDT-guided
        # pass means the table lied, so *every* unmarked region is
        # suspect — treat unknown regions as downgraded and rescan all of
        # memory rather than corrupt data.  "none" trusts the table.
        if not self.line_store.all_strong() and self.idle_fallback == "conservative":
            lines_scanned = org.total_lines
            converted += self._upgrade_lines(self.line_store.drain_all())
            self.fallback_scans += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "mecc", "fallback-scan", lines_scanned=org.total_lines
                )
        self.upgraded_lines += converted
        seconds = self.device.bulk_convert_seconds(lines_scanned)
        encode_energy = lines_scanned * self.strong.encode_energy_pj * 1e-12
        self.device.enter_self_refresh(slow=True)
        if self.tracer is not None:
            self.tracer.emit(
                "mecc",
                "upgrade",
                lines_scanned=lines_scanned,
                lines_converted=converted,
                used_mdt=used_mdt,
            )
        if self.invariants is not None:
            self.invariants.check(self, smd=self.smd_ref, event="idle-entry")
        return UpgradeReport(
            lines_scanned=lines_scanned,
            lines_converted=converted,
            seconds=seconds,
            encode_energy_j=encode_energy,
            used_mdt=used_mdt,
        )

    def _upgrade_lines(self, lines: frozenset[int]) -> int:
        """Feed drained lines to the upgrade sink; returns the count."""
        if self.upgrade_sink is not None:
            for line in sorted(lines):
                self.upgrade_sink(line)
        return len(lines)

    @property
    def refresh_period_s(self) -> float:
        return self.device.refresh_period_s
