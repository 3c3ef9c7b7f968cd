"""Seeded synthetic post-LLC trace generator.

Produces traces whose statistics match a benchmark description: demand-read
MPKI, dirty-write-back fraction, working-set size, sequential-streaming
share (which controls row-buffer locality), hot-set skew, and optional
multi-phase intensity (which controls when SMD's traffic threshold trips).

Two output paths:

* :meth:`SyntheticTraceGenerator.generate` — full trace for the cycle
  simulator (perf/power experiments), using a *working set* sized to the
  run length so the cold-miss fraction matches the paper's steady state.
* :meth:`SyntheticTraceGenerator.iter_read_runs` — address-only fast
  path over the benchmark's *full* footprint, as runs of consecutive
  lines, for MDT studies (paper Fig. 11) where no timing is needed;
  :meth:`~SyntheticTraceGenerator.iter_read_addresses` expands it to one
  address per read.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.workloads.trace import READ_FLAG, WRITE_FLAG, Trace

#: Byte size of a cache line (fixed across the paper).
LINE_BYTES = 64
#: Mean length (in accesses) of a sequential streaming run.
STREAM_RUN_MEAN = 8
#: Fraction of random accesses that hit the hot subset of the footprint.
HOT_HIT_FRACTION = 0.8
#: Estimated average memory latency (processor cycles) used to calibrate
#: the non-memory CPI against the target baseline IPC.  Split by row-buffer
#: outcome; see DramTimings (hit = 56, conflict = 104, plus queue margin).
_EST_HIT_LATENCY = 60.0
_EST_MISS_LATENCY = 110.0
#: Extra per-read queueing estimate per unit of write traffic (write
#: drains share banks and the data bus with demand reads).
_EST_WRITE_INTERFERENCE = 30.0


@dataclass(frozen=True)
class Phase:
    """A contiguous execution phase with a relative memory intensity.

    Attributes:
        weight: fraction of the run's instructions spent in this phase.
        intensity: multiplier on the benchmark's average MPKI during it.
    """

    weight: float
    intensity: float

    def __post_init__(self) -> None:
        if self.weight <= 0 or self.intensity < 0:
            raise ConfigurationError("phase weight must be > 0, intensity >= 0")


@dataclass
class SyntheticTraceGenerator:
    """Generate deterministic synthetic traces for one benchmark.

    Attributes:
        name: benchmark name.
        mpki: average demand-read misses per kilo-instruction.
        target_ipc: baseline (no-ECC) IPC to calibrate the non-memory CPI.
        footprint_bytes: full-scale memory footprint (Table III).
        working_set_bytes: lines cycled through in perf-run traces; when
            None, defaults to the full footprint.
        write_fraction: write-backs per demand read.
        stream_fraction: share of reads issued from sequential streams.
        segments: number of disjoint address extents (heap/stack/code...).
        base_address: placement of the first extent in physical memory.
        phases: intensity phases; default is one uniform phase.
        seed: RNG seed.
    """

    name: str
    mpki: float
    target_ipc: float
    footprint_bytes: int
    working_set_bytes: int | None = None
    write_fraction: float = 0.3
    stream_fraction: float = 0.6
    segments: int = 3
    base_address: int = 1 << 24
    phases: tuple[Phase, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ConfigurationError("mpki must be positive")
        if not 0 < self.target_ipc <= 2.0:
            raise ConfigurationError("target_ipc must be in (0, 2] for a 2-wide core")
        if self.footprint_bytes < LINE_BYTES:
            raise ConfigurationError("footprint must hold at least one line")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise ConfigurationError("stream_fraction must be in [0, 1]")
        if self.segments < 1:
            raise ConfigurationError("segments must be >= 1")
        if not self.phases:
            object.__setattr__(self, "phases", (Phase(1.0, 1.0),))
        total = sum(p.weight for p in self.phases)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"phase weights must sum to 1, got {total}")

    # -- address-space layout ----------------------------------------------------

    def _segment_extents(self, total_bytes: int) -> list[tuple[int, int]]:
        """(start_line, line_count) extents, spread across physical memory.

        Segments are placed 64 MB apart so they land in distinct MDT
        regions and across many rows, like separate program mappings.
        """
        total_lines = max(self.segments, total_bytes // LINE_BYTES)
        per_segment = total_lines // self.segments
        extents = []
        base_line = self.base_address // LINE_BYTES
        # Segments must not overlap: space them a gap beyond their own
        # size (large footprints would otherwise alias onto each other).
        gap_lines = (64 << 20) // LINE_BYTES
        spread = per_segment + gap_lines
        for i in range(self.segments):
            count = per_segment if i else total_lines - per_segment * (self.segments - 1)
            extents.append((base_line + i * spread, count))
        return extents

    @property
    def nonmem_cpi(self) -> float:
        """Non-memory CPI calibrated so the baseline run hits target_ipc.

        cycles/kinstr = 1000 * nonmem_cpi + mpki * est_latency; the 2-wide
        retire width floors nonmem_cpi at 0.5.
        """
        hit_rate = self.stream_fraction * (1.0 - 1.0 / STREAM_RUN_MEAN)
        est_latency = (
            hit_rate * _EST_HIT_LATENCY
            + (1 - hit_rate) * _EST_MISS_LATENCY
            + self.write_fraction * _EST_WRITE_INTERFERENCE
        )
        cpi = (1000.0 / self.target_ipc - self.mpki * est_latency) / 1000.0
        return max(0.5, cpi)

    # -- trace generation -----------------------------------------------------------

    def generate(self, instructions: int) -> Trace:
        """Generate a trace covering ``instructions`` retired instructions."""
        if instructions < 1:
            raise ConfigurationError("instructions must be >= 1")
        ws_bytes = self.working_set_bytes or self.footprint_bytes
        ws_bytes = min(ws_bytes, self.footprint_bytes)
        extents = self._segment_extents(ws_bytes)
        rng = random.Random(self.seed)
        # RNG methods and rates bound once: the draws are unchanged.
        random_, randrange, expovariate = rng.random, rng.randrange, rng.expovariate
        stream_fraction = self.stream_fraction
        write_fraction = self.write_fraction
        n_extents = len(extents)
        gaps = array("q")
        ops = bytearray()
        addresses = array("q")
        recent: list[int] = []
        stream_positions = [start for start, _ in extents]
        stream_segment = 0
        stream_left = 0
        instrs_done = 0
        for phase in self.phases:
            phase_budget = int(round(instructions * phase.weight))
            if phase.intensity <= 0:
                # Pure-compute phase: emit a single idle gap record pair by
                # folding the instructions into the next access's gap.
                instrs_done += phase_budget
                continue
            mean_gap = max(1.0, 1000.0 / (self.mpki * phase.intensity) - 1.0)
            phase_done = 0
            while phase_done < phase_budget:
                gap = min(
                    int(expovariate(1.0 / mean_gap) + 0.5),
                    phase_budget - phase_done,
                )
                phase_done += gap + 1
                # Pick the read address: streaming run or random.
                if stream_left > 0:
                    stream_left -= 1
                    stream_segment_idx = stream_segment
                    start, count = extents[stream_segment_idx]
                    pos = stream_positions[stream_segment_idx]
                    line = start + (pos - start + 1) % count
                    stream_positions[stream_segment_idx] = line
                elif random_() < stream_fraction:
                    stream_segment = randrange(n_extents)
                    stream_left = max(0, int(expovariate(1.0 / STREAM_RUN_MEAN)) - 1)
                    start, count = extents[stream_segment]
                    pos = stream_positions[stream_segment]
                    line = start + (pos - start + 1) % count
                    stream_positions[stream_segment] = line
                else:
                    start, count = extents[randrange(n_extents)]
                    if random_() < HOT_HIT_FRACTION:
                        hot = max(1, count // 5)
                        line = start + randrange(hot)
                    else:
                        line = start + randrange(count)
                gaps.append(gap)
                ops.append(READ_FLAG)
                addresses.append(line * LINE_BYTES)
                recent.append(line)
                if len(recent) > 64:
                    recent.pop(0)
                # Dirty write-back of an older line alongside the fill.
                if recent and random_() < write_fraction:
                    victim = recent[randrange(len(recent))]
                    gaps.append(0)
                    ops.append(WRITE_FLAG)
                    addresses.append(victim * LINE_BYTES)
            instrs_done += phase_done
        return Trace.from_columns(
            self.name, gaps, bytes(ops), addresses, self.nonmem_cpi
        )

    def footprint_extents(self) -> list[tuple[int, int]]:
        """(start_line, line_count) extents of the address-only stream.

        Every line :meth:`iter_read_runs` yields lies in one of these, so
        they bound the memory a full-footprint study can ever touch.
        """
        return self._segment_extents(self.footprint_bytes)

    def iter_read_runs(self, n_accesses: int):
        """The address-only stream over the *full* footprint, as runs.

        Yields ``(first_line, n_lines)``: consecutive line indices of one
        extent, read in order.  The RNG is drawn only when a run starts,
        so the runs expand to exactly the first ``n_accesses`` reads of
        the stream (:meth:`iter_read_addresses`).  A stream run that
        reaches the end of its extent continues at the extent's start,
        as a separate run; the run cut off by ``n_accesses`` is truncated.
        """
        if n_accesses < 0:
            raise ConfigurationError("n_accesses must be non-negative")
        extents = self.footprint_extents()
        rng = random.Random(self.seed ^ 0x5EED)
        # Footprint coverage relies on streams; floor the share so even
        # random-heavy benchmarks sweep their data (as real applications
        # do over billions of instructions).
        stream_share = max(self.stream_fraction, 0.5)
        run_rate = 1.0 / (4 * STREAM_RUN_MEAN)
        # Offset, within each extent, of the next line its stream reads.
        offsets = [1 % count for _, count in extents]
        left = n_accesses
        while left > 0:
            if rng.random() < stream_share:
                segment = rng.randrange(len(extents))
                length = min(max(1, int(rng.expovariate(run_rate))), left)
                left -= length
                start, count = extents[segment]
                offset = offsets[segment]
                offsets[segment] = (offset + length) % count
                while length:
                    piece = min(length, count - offset)
                    yield start + offset, piece
                    length -= piece
                    offset = 0
            else:
                start, count = extents[rng.randrange(len(extents))]
                left -= 1
                yield start + rng.randrange(count), 1

    def iter_read_addresses(self, n_accesses: int):
        """Fast address-only stream over the *full* footprint.

        Yields byte addresses of demand reads: the lines of
        :meth:`iter_read_runs`, one at a time.
        """
        for first, n_lines in self.iter_read_runs(n_accesses):
            for line in range(first, first + n_lines):
                yield line * LINE_BYTES
