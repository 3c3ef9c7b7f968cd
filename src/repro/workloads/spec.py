"""The paper's 28 SPEC2006 workloads as synthetic-trace models.

Per-benchmark parameters (MPKI, baseline IPC, footprint, streaming share,
write-back share, phase structure) are calibrated so that

* the per-class averages match paper Table III
  (Low: MPKI 0.3 / IPC 1.514 / 26 MB; Med: 4.7 / 0.887 / 96.4 MB;
  High: 23.5 / 0.359 / 259.1 MB);
* the seven benchmarks the paper names as never tripping SMD's traffic
  threshold (povray, tonto, wrf, gamess, hmmer, sjeng, h264ref) have
  MPKC < 2 throughout, while mid-intensity benchmarks ramp past the
  threshold partway through execution (Fig. 14's gradient);
* memory-intensity ordering matches the paper's figure layouts.

``mcf`` is excluded, as in the paper (1.4 GB footprint exceeds the 1 GB
memory).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.workloads.synth import LINE_BYTES, Phase, SyntheticTraceGenerator
from repro.workloads.trace import Trace

#: Fraction of a perf run's demand reads that are cold (first-touch) in
#: steady state; sizes the working set of scaled perf traces so MECC's
#: downgrade traffic matches the paper's 4-billion-instruction dynamics.
DEFAULT_COLD_FRACTION = 0.02
#: Floor on the perf-run working set, in lines (spread over a few rows).
MIN_WORKING_SET_LINES = 256


class MpkiClass(enum.Enum):
    """The paper's three-way workload classification (Sec. IV-B)."""

    LOW = "Low-MPKI"  # MPKI < 1
    MED = "Med-MPKI"  # 1 <= MPKI <= 10
    HIGH = "High-MPKI"  # MPKI > 10


@dataclass(frozen=True)
class BenchmarkSpec:
    """Statistical model of one SPEC2006 benchmark.

    Attributes:
        name: SPEC short name as printed in the paper's figures.
        mpki: average demand-read misses per kilo-instruction.
        ipc: baseline IPC with no error-correction latency.
        footprint_mb: full-scale footprint in MB (unique 4KB pages).
        stream_fraction: share of reads from sequential streams.
        write_fraction: dirty write-backs per demand read.
        phases: intensity phases, weights summing to 1 and the weighted
            intensity averaging 1 (so average MPKI is preserved).
        seed: deterministic RNG seed.
    """

    name: str
    mpki: float
    ipc: float
    footprint_mb: float
    stream_fraction: float
    write_fraction: float
    phases: tuple[Phase, ...] = ()
    seed: int = 0

    @property
    def mpki_class(self) -> MpkiClass:
        if self.mpki < 1.0:
            return MpkiClass.LOW
        if self.mpki <= 10.0:
            return MpkiClass.MED
        return MpkiClass.HIGH

    @property
    def footprint_bytes(self) -> int:
        return int(self.footprint_mb * (1 << 20))

    def generator(
        self,
        instructions: int | None = None,
        cold_fraction: float = DEFAULT_COLD_FRACTION,
    ) -> SyntheticTraceGenerator:
        """Build a trace generator.

        With ``instructions`` given, the working set is scaled so roughly
        ``cold_fraction`` of the run's reads are first touches — preserving
        the paper's steady-state ratio of ECC-Downgrades to accesses in
        scaled-down runs.  Without it, the working set is the full
        footprint (use for address-only footprint/MDT studies).
        """
        working_set = None
        if instructions is not None:
            if instructions < 1:
                raise ConfigurationError("instructions must be >= 1")
            expected_reads = self.mpki * instructions / 1000.0
            ws_lines = max(MIN_WORKING_SET_LINES, int(cold_fraction * expected_reads))
            working_set = ws_lines * LINE_BYTES
        return SyntheticTraceGenerator(
            name=self.name,
            mpki=self.mpki,
            target_ipc=self.ipc,
            footprint_bytes=self.footprint_bytes,
            working_set_bytes=working_set,
            write_fraction=self.write_fraction,
            stream_fraction=self.stream_fraction,
            phases=self.phases,
            seed=self.seed,
        )

    def trace(self, instructions: int, calibrate: bool = True, **kwargs) -> Trace:
        """Generate a perf-run trace of ``instructions`` instructions.

        With ``calibrate`` (default), the trace's non-memory CPI is tuned
        by simulating a short prefix against the baseline (no-ECC) system
        so the measured baseline IPC tracks ``self.ipc`` — the analytic
        estimate alone is off by up to ~20% for benchmarks whose queueing
        behaviour deviates from the average.
        """
        trace = self.generator(instructions, **kwargs).generate(instructions)
        if calibrate:
            trace.nonmem_cpi = _calibrate_cpi(trace, self.ipc)
        return trace


def _phases(*pairs: tuple[float, float]) -> tuple[Phase, ...]:
    return tuple(Phase(weight, intensity) for weight, intensity in pairs)


#: Instructions simulated per calibration pass (a prefix of the trace).
_CALIBRATION_PREFIX_INSTRUCTIONS = 200_000
_CALIBRATION_PASSES = 2


def _calibrate_cpi(trace: Trace, target_ipc: float) -> float:
    """Tune ``nonmem_cpi`` so a baseline run of ``trace`` hits ``target_ipc``.

    Simulates a prefix with the current CPI, measures cycles/instruction,
    and shifts the non-memory component by the shortfall.  Two passes
    absorb the second-order effect of request timing on queueing.  The
    2-wide retire width floors the CPI at 0.5, so benchmarks whose memory
    behaviour alone exceeds the target budget stay memory-bound.

    The prefix ends at the first record where ``gap + 1`` summed over the
    records so far reaches :data:`_CALIBRATION_PREFIX_INSTRUCTIONS`.  That
    sum counts one instruction per record, write-backs included, whereas
    :attr:`Trace.instructions` adds one only per demand read; the cut-off
    is kept as it is because moving it would move every calibrated CPI.  The prefix is a :meth:`Trace.prefix` view, so both
    passes share the trace's address decode.
    """
    # Imported lazily: workloads must stay importable without the simulator.
    from repro.core.policy import NoEccPolicy
    from repro.sim.engine import simulate

    n_records = 0
    instrs = 0
    for gap in trace.gaps:
        n_records += 1
        instrs += gap + 1
        if instrs >= _CALIBRATION_PREFIX_INSTRUCTIONS:
            break
    prefix = trace.prefix(n_records)
    cpi = trace.nonmem_cpi
    target_cycles_per_instr = 1.0 / target_ipc
    for _ in range(_CALIBRATION_PASSES):
        prefix.nonmem_cpi = cpi
        result = simulate(prefix, NoEccPolicy())
        measured = result.cycles / result.instructions
        cpi = max(0.5, cpi + (target_cycles_per_instr - measured))
    return cpi


#: All 28 benchmarks, in the paper's Fig. 7 order (low to high intensity).
ALL_BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    # -- Low-MPKI: avg MPKI 0.3, IPC 1.514, footprint 26 MB ------------------
    BenchmarkSpec("povray", 0.05, 1.75, 4, 0.55, 0.20, seed=101),
    BenchmarkSpec("tonto", 0.10, 1.60, 10, 0.60, 0.25, seed=102),
    BenchmarkSpec("wrf", 0.20, 1.55, 40, 0.75, 0.35, seed=103),
    BenchmarkSpec("gamess", 0.05, 1.70, 5, 0.60, 0.20, seed=104),
    BenchmarkSpec("hmmer", 0.30, 1.45, 12, 0.65, 0.25, seed=105),
    BenchmarkSpec("sjeng", 0.40, 1.40, 50, 0.30, 0.20, seed=106),
    BenchmarkSpec("h264ref", 0.50, 1.35, 30, 0.60, 0.30, seed=107),
    BenchmarkSpec(
        "namd", 0.80, 1.30, 57, 0.80, 0.35,
        phases=_phases((0.5, 0.3), (0.5, 1.7)), seed=108,
    ),
    # -- Med-MPKI: avg MPKI 4.7, IPC 0.887, footprint 96.4 MB ----------------
    BenchmarkSpec(
        "gobmk", 1.20, 1.25, 28, 0.40, 0.25,
        phases=_phases((0.4, 0.4), (0.6, 1.4)), seed=201,
    ),
    BenchmarkSpec(
        "gromacs", 1.50, 1.20, 14, 0.70, 0.30,
        phases=_phases((0.3, 0.45), (0.7, 1.2357)), seed=202,
    ),
    BenchmarkSpec(
        "perl", 1.80, 1.15, 60, 0.45, 0.30,
        phases=_phases((0.2, 0.5), (0.8, 1.125)), seed=203,
    ),
    BenchmarkSpec(
        "astar", 2.50, 1.05, 80, 0.35, 0.25,
        phases=_phases((0.15, 0.4), (0.85, 1.1059)), seed=204,
    ),
    BenchmarkSpec(
        "bzip2", 3.50, 0.95, 110, 0.60, 0.35,
        phases=_phases((0.1, 0.4), (0.9, 1.0667)), seed=205,
    ),
    BenchmarkSpec("dealII", 4.00, 0.90, 75, 0.65, 0.35, seed=206),
    BenchmarkSpec("soplex", 8.50, 0.62, 250, 0.60, 0.35, seed=207),
    BenchmarkSpec("cactus", 5.00, 0.85, 170, 0.75, 0.50, seed=208),
    BenchmarkSpec("calculix", 2.80, 1.00, 62, 0.70, 0.30, seed=209),
    BenchmarkSpec("gcc", 6.00, 0.75, 90, 0.50, 0.40, seed=210),
    BenchmarkSpec("zeusmp", 6.50, 0.70, 130, 0.70, 0.45, seed=211),
    BenchmarkSpec("omnetpp", 9.50, 0.55, 150, 0.25, 0.35, seed=212),
    BenchmarkSpec("sphinx", 8.30, 0.56, 34, 0.50, 0.25, seed=213),
    # -- High-MPKI: avg MPKI 23.5, IPC 0.359, footprint 259.1 MB --------------
    BenchmarkSpec("milc", 16.0, 0.42, 380, 0.70, 0.45, seed=301),
    BenchmarkSpec("xalanc", 18.0, 0.38, 190, 0.40, 0.30, seed=302),
    BenchmarkSpec("leslie", 21.0, 0.37, 120, 0.85, 0.50, seed=303),
    BenchmarkSpec("libq", 26.0, 0.36, 64, 0.95, 0.15, seed=304),
    BenchmarkSpec("Gems", 25.0, 0.33, 420, 0.80, 0.50, seed=305),
    BenchmarkSpec("lbm", 30.0, 0.32, 400, 0.93, 0.40, seed=306),
    BenchmarkSpec("bwaves", 28.5, 0.333, 240, 0.92, 0.35, seed=307),
)

BENCHMARKS_BY_NAME: dict[str, BenchmarkSpec] = {b.name: b for b in ALL_BENCHMARKS}

#: Benchmarks the paper reports never enable ECC-Downgrade under SMD.
SMD_ALWAYS_DISABLED = ("povray", "tonto", "wrf", "gamess", "hmmer", "sjeng", "h264ref")


def benchmarks_in_class(cls: MpkiClass) -> list[BenchmarkSpec]:
    """All benchmarks in one MPKI class, in Fig. 7 order."""
    return [b for b in ALL_BENCHMARKS if b.mpki_class is cls]


def class_averages() -> dict[MpkiClass, dict[str, float]]:
    """Recompute Table III's per-class averages from the spec table."""
    out = {}
    for cls in MpkiClass:
        members = benchmarks_in_class(cls)
        n = len(members)
        out[cls] = {
            "ipc": sum(b.ipc for b in members) / n,
            "mpki": sum(b.mpki for b in members) / n,
            "footprint_mb": sum(b.footprint_mb for b in members) / n,
        }
    return out
