"""ECC policies: what the cycle simulator evaluates against each other.

Each policy answers, per memory access, how many processor cycles of
decode latency the access pays and whether an extra write-back (the
ECC-Downgrade re-encode) must be injected.  The paper's evaluated
configurations:

* ``NoEccPolicy`` — the normalization baseline (no correction latency).
* ``SecdedPolicy`` — ECC-1 everywhere, 2-cycle decode.
* ``Ecc6Policy`` — ECC-6 everywhere, 30-cycle decode (sweepable, Fig. 12).
* ``MeccPolicy`` — morphable: strong decode + downgrade on first touch,
  weak afterwards; optional SMD gate (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mecc import MeccController
from repro.core.smd import PAPER_QUANTUM_CYCLES, SelectiveMemoryDowngrade
from repro.ecc.codes import ECC6, SECDED, EccScheme
from repro.types import MemoryOp


@dataclass(frozen=True)
class ReadAction:
    """What the engine must do for one demand read."""

    decode_cycles: int
    writeback: bool = False


#: The per-access hooks; a class that overrides one is called per access.
_ACCESS_HOOKS = ("on_read", "on_write", "on_write_batch")


class EccPolicy:
    """Base policy: fixed decode latency, no extra traffic.

    Such a policy is *stateless*: every read returns the same
    :class:`ReadAction` and the write hooks do nothing, so the engine
    need not call it per access (see :meth:`constant_read_action`).
    """

    #: Whether a read decodes with the strong code (counted in
    #: :attr:`strong_decodes`) rather than the weak one.
    strong_reads = False

    def __init__(self, name: str, decode_cycles: int = 0):
        self.name = name
        #: The one (immutable) action every fixed-latency read returns.
        self._read_action = ReadAction(decode_cycles=decode_cycles)
        self.strong_decodes = 0
        self.weak_decodes = 0
        self.downgrades = 0
        #: Observability hooks (repro.obs); None = disabled, zero cost.
        self.tracer = None
        self.invariants = None

    def attach_observer(self, tracer=None, invariants=None) -> None:
        """Attach a tracer and/or invariant suite to this policy.

        Stateless policies only record the references (the engine emits
        run-level events); stateful subclasses propagate them to their
        components.  Passing None for either leaves that hook detached.
        """
        self.tracer = tracer
        self.invariants = invariants

    def reset(self) -> None:
        """Forget per-run counters/state so the policy can be re-run.

        Called by the simulation engine at the top of every run; stateful
        subclasses must also restore their fresh-from-idle state here.
        """
        self.strong_decodes = 0
        self.weak_decodes = 0
        self.downgrades = 0

    def constant_read_action(self) -> ReadAction | None:
        """The action of every read, or None if each access must be seen.

        None when the policy's class overrides an access hook.  For a
        stateless policy the engine uses this action instead of calling
        :meth:`on_read`, skips the write hooks, and charges its reads
        once per run through :meth:`count_reads`.
        """
        cls = type(self)
        for hook in _ACCESS_HOOKS:
            if getattr(cls, hook) is not getattr(EccPolicy, hook):
                return None
        return self._read_action

    def settled_lines(self) -> tuple[set[int], int, int] | None:
        """The lines whose accesses this policy need not see, or None.

        Returns ``(lines, line_bytes, decode_cycles)``: a live set of line
        indices (``address // line_bytes``) that the engine may serve
        without calling the access hooks -- every read of such a line
        decodes in ``decode_cycles`` and writes nothing back, and every
        write to it changes nothing.  The engine charges those reads
        through :meth:`count_reads`.  Fetched after :meth:`reset`.  The
        base policy has no such lines.
        """
        return None

    def count_reads(self, reads: int) -> None:
        """Charge ``reads`` reads the engine served without asking."""
        if self.strong_reads:
            self.strong_decodes += reads
        else:
            self.weak_decodes += reads

    def on_read(self, byte_address: int, now: int) -> ReadAction:
        """Called for every demand read at processor cycle ``now``."""
        self.count_reads(1)
        return self._read_action

    def on_write(self, byte_address: int, now: int) -> None:
        """Called for every write-back; default: nothing extra."""

    def on_write_batch(self, byte_addresses, nows) -> None:
        """Called for a run of consecutive write-backs (engine coalescing).

        Semantically identical to calling :meth:`on_write` per element;
        stateful policies may override to amortize dispatch over the run.
        The engine leaves out writes to :meth:`settled_lines`.
        """
        on_write = self.on_write
        for byte_address, now in zip(byte_addresses, nows):
            on_write(byte_address, now)

    def on_run_end(self, total_cycles: int) -> None:
        """Called once when the simulation finishes."""

    @property
    def slow_refresh_fraction(self) -> float:
        """Fraction of active time spent at the 1 s refresh period.

        Non-SMD policies refresh at 64 ms for the whole active period.
        """
        return 0.0


class NoEccPolicy(EccPolicy):
    """No error correction: the paper's normalization baseline."""

    def __init__(self):
        super().__init__(name="Baseline", decode_cycles=0)


class SecdedPolicy(EccPolicy):
    """SEC-DED everywhere (paper's ECC-1 / weak configuration)."""

    def __init__(self, scheme: EccScheme = SECDED):
        super().__init__(name=scheme.name, decode_cycles=scheme.decode_cycles)
        self.scheme = scheme


class Ecc6Policy(EccPolicy):
    """Strong multi-bit ECC everywhere: saves refresh, costs latency."""

    strong_reads = True

    def __init__(self, scheme: EccScheme = ECC6):
        super().__init__(name=scheme.name, decode_cycles=scheme.decode_cycles)
        self.scheme = scheme


class MeccPolicy(EccPolicy):
    """Morphable ECC, optionally gated by Selective Memory Downgrade.

    Args:
        controller: the MECC state machine (fresh-from-idle: all strong).
        smd: optional SMD monitor; when present, downgrades stay disabled
            until the traffic threshold trips, and refresh stays slow
            meanwhile.
    """

    def __init__(
        self,
        controller: MeccController | None = None,
        smd: SelectiveMemoryDowngrade | None = None,
    ):
        controller = controller or MeccController()
        name = "MECC+SMD" if smd is not None else "MECC"
        super().__init__(name=name, decode_cycles=0)
        self.controller = controller
        self.smd = smd
        self.controller.smd_ref = smd
        self.controller.wake()
        if self.smd is not None:
            self.smd.reset(0)
        self._total_cycles = 0
        # Quantum bookkeeping for invariant evaluation: boundaries follow
        # the SMD quantum when gated, the paper quantum otherwise.
        self._invariant_quantum = (
            smd.quantum_cycles if smd is not None else PAPER_QUANTUM_CYCLES
        )
        self._last_quantum = 0
        # The three outcomes of MeccController.on_read, built once.
        self._weak_read = ReadAction(decode_cycles=controller.weak.decode_cycles)
        self._strong_read = ReadAction(decode_cycles=controller.strong.decode_cycles)
        self._downgrade_read = ReadAction(
            decode_cycles=controller.strong.decode_cycles, writeback=True
        )

    def attach_observer(self, tracer=None, invariants=None) -> None:
        """Propagate observability hooks to the MECC core components."""
        super().attach_observer(tracer, invariants)
        self.controller.tracer = tracer
        self.controller.invariants = invariants
        self.controller.device.refresh.tracer = tracer
        if self.controller.mdt is not None:
            self.controller.mdt.tracer = tracer
        if self.smd is not None:
            self.smd.tracer = tracer
        if invariants is not None and invariants.tracer is None:
            invariants.tracer = tracer

    def reset(self) -> None:
        """Back to the fresh-from-idle state: all lines strong, SMD re-armed."""
        super().reset()
        self.controller.reset()
        self.controller.wake()
        if self.smd is not None:
            self.smd.reset(0)
        self._total_cycles = 0
        self._last_quantum = 0

    def _check_quantum(self, now: int) -> None:
        """Evaluate invariants when the access stream crosses a quantum."""
        quantum = now // self._invariant_quantum
        if quantum != self._last_quantum:
            self._last_quantum = quantum
            self.invariants.check(
                self.controller, smd=self.smd, event="quantum", cycle=now
            )

    def settled_lines(self) -> tuple[set[int], int, int] | None:
        """The weak lines: their reads decode weak and write nothing back.

        A line turns weak only while downgrades are enabled, and the SMD
        gate does not close within a run, so once the set is non-empty
        an access to one of its lines leaves every counter but
        ``weak_decodes`` unchanged and emits no event.  The set is the
        store's own, updated as lines downgrade; None when an invariant
        suite must see every access.
        """
        if self.invariants is not None:
            return None
        controller = self.controller
        return (
            controller.line_store._weak_lines,
            controller._line_bytes,
            controller.weak.decode_cycles,
        )

    def count_reads(self, reads: int) -> None:
        """Charge ``reads`` reads of weak lines to the controller."""
        self.controller.weak_decodes += reads

    @property
    def downgrade_enabled(self) -> bool:
        return self.smd is None or self.smd.enabled

    def on_read(self, byte_address: int, now: int) -> ReadAction:
        if self.smd is not None:
            self.smd.record_access(now)
        if self.invariants is not None:
            self._check_quantum(now)
        decode_cycles, writeback = self.controller.on_read(
            byte_address, self.downgrade_enabled, now
        )
        if writeback:
            self.downgrades += 1
            return self._downgrade_read
        if decode_cycles == self._weak_read.decode_cycles:
            return self._weak_read
        return self._strong_read

    def on_write(self, byte_address: int, now: int) -> None:
        if self.smd is not None:
            self.smd.record_access(now)
        if self.invariants is not None:
            self._check_quantum(now)
        self.controller.on_write(byte_address, self.downgrade_enabled, now)

    def on_write_batch(self, byte_addresses, nows) -> None:
        """Amortized :meth:`on_write` over a coalesced write run.

        Binds the hot components once per run instead of once per access;
        every per-access side effect (SMD traffic accounting, quantum
        invariant checks, MDT updates) still fires in access order.
        """
        smd = self.smd
        invariants = self.invariants
        controller_on_write = self.controller.on_write
        for byte_address, now in zip(byte_addresses, nows):
            if smd is not None:
                smd.record_access(now)
            if invariants is not None:
                self._check_quantum(now)
            controller_on_write(byte_address, self.downgrade_enabled, now)

    def on_run_end(self, total_cycles: int) -> None:
        self._total_cycles = total_cycles
        self.strong_decodes = self.controller.strong_decodes
        self.weak_decodes = self.controller.weak_decodes
        if self.invariants is not None:
            self.invariants.check(
                self.controller, smd=self.smd, event="run-end", cycle=total_cycles
            )

    @property
    def slow_refresh_fraction(self) -> float:
        """With SMD, refresh stays at 1 s until downgrades are enabled."""
        if self.smd is None:
            return 0.0
        report = self.smd.report(self._total_cycles)
        return report.disabled_fraction
