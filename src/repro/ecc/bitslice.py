"""Pure-python bit-sliced lane engine: 64 codewords per machine word.

The matrix fast path (:mod:`repro.ecc.matrix`) folds one codeword at a
time through per-byte chunk tables — every word still pays ~70
interpreted table lookups.  This module turns the per-*word* loop into a
per-*bit-position* loop over the whole batch:

* **Transpose** — a batch of N codewords becomes ``n_bits`` *slices*,
  where slice ``p`` is an N-bit integer whose bit ``i`` is bit ``p`` of
  codeword ``i``.  Python's arbitrary-precision ints act as N-lane SIMD
  registers, so one ``^`` on two slices processes the whole batch.
  The transpose itself runs on 64-row blocks with the classic
  delta-swap ("Hacker's Delight" §7-3) recursion: ``log2(64)`` masked
  swap rounds per block, each a handful of big-int operations, instead
  of one interpreted operation per bit.

* **Fold** — any GF(2) linear map (encoding parity, a binary syndrome,
  data extraction) becomes per-output XORs of input slices.  Maps are
  compiled once per code configuration into a register program with
  byte-granular common-subexpression sharing (a lazy four-Russians
  grouping), so a dense 512x60 generator matrix costs ~8k slice XORs
  per batch instead of ~15k.

:mod:`repro.ecc.backend` wraps this module as the codecs' lane engine
for batches of at least ``MIN_SLICED_BATCH`` words.  Lane ``i`` always
corresponds to input word ``i``, so a mask produced by :func:`or_reduce`
names the input words directly.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Sequence

#: Rows per transpose block: one machine word of lanes.
LANES = 64


# -- transpose ---------------------------------------------------------------


@lru_cache(maxsize=32)
def _swap_masks(cols: int, band_count: int, bit_only: bool) -> tuple[tuple[int, int], ...]:
    """Full-height delta-swap masks for in-place square-block transposes.

    A band of ``cols`` columns is a row of side-by-side square tiles;
    all tiles (and all bands) share the same swap distance per round, so
    each round is one masked swap on the whole matrix.  With
    ``bit_only`` the rounds stop at byte granularity (m = 4, 2, 1 —
    transposing the 8x8-bit blocks only, 8-row bands); otherwise all
    log2(64) rounds for full 64x64 tiles (64-row bands) are emitted.
    The repeating band pattern is tiled to the full matrix height with a
    C-speed ``bytes *``.
    """
    band_rows = 8 if bit_only else LANES
    plan = []
    m = 4 if bit_only else LANES >> 1
    while m >= 1:
        period = 2 * m
        unit = ((1 << m) - 1) << m  # high half of one 2m-wide group
        row = 0
        for offset in range(0, cols, period):
            row |= unit << offset
        pattern = 0
        for r in range(band_rows):
            if (r % period) < m:
                pattern |= row << (r * cols)
        pattern_bytes = pattern.to_bytes((cols >> 3) * band_rows, "little")
        plan.append((m * (cols - 1), int.from_bytes(pattern_bytes * band_count, "little")))
        m >>= 1
    return tuple(plan)


def transpose(words: Sequence[int], n_bits: int) -> list[int]:
    """Bit-transpose ``words`` (each ``< 2**n_bits``) into per-bit slices.

    Returns ``n_bits`` integers; bit ``i`` of slice ``p`` is bit ``p``
    of ``words[i]``.  The batch length may be any size — rows are
    zero-padded to a multiple of 64 internally and the padding lanes of
    every slice stay zero.

    The whole batch is treated as one bit matrix and transposed in two
    stages, both C-speed with no per-bit interpreted loop:

    1. in-place square-block transposes via masked delta-swaps on a
       single big int (the masks repeat per band, so all bands swap at
       once);
    2. a block-*grid* transpose via strided ``memoryview`` copies.

    Tall batches (the hot case: thousands of lanes, a few hundred bit
    positions) stop the swap rounds at byte granularity and move whole
    bytes in stage 2 — three rounds on the big int instead of six, at
    the cost of ``cols`` strided copies.  Short batches keep all six
    rounds and move 8-byte lane-words, needing only ``64*min(grid
    dims)`` copies.
    """
    n = len(words)
    if n == 0 or n_bits == 0:
        return [0] * n_bits
    cols = (n_bits + LANES - 1) & -LANES
    rows = (n + LANES - 1) & -LANES
    stride = cols >> 3  # bytes per input row
    parts = [w.to_bytes(stride, "little") for w in words]
    if rows > n:
        parts.append(bytes(stride * (rows - n)))
    x = int.from_bytes(b"".join(parts), "little")
    out_stride = rows >> 3  # bytes per output row
    byte_moves = rows >= 512  # fewer swap rounds pay for per-byte copies
    for d, mask in _swap_masks(cols, rows >> (3 if byte_moves else 6), byte_moves):
        t = ((x >> d) ^ x) & mask
        x ^= t ^ (t << d)
    flat = x.to_bytes(rows * stride, "little")
    if byte_moves:
        # 8x8-bit blocks are already transposed; byte (8a+s, q) of the
        # matrix belongs to output row 8q+s at position a, so each
        # slice is one strided byte gather down the input (CPython's
        # stepped bytes slicing runs at ~1 ns/byte).
        from_bytes = int.from_bytes
        return [
            from_bytes(flat[(p & 7) * stride + (p >> 3) :: cols], "little")
            for p in range(n_bits)
        ]
    # Full 64x64 tiles are transposed; move 8-byte lane-words across
    # the (rows/64) x (cols/64) grid of tiles with strided Q-word copies.
    blocks = rows >> 6  # tile-grid rows in, words per output row
    tiles = cols >> 6  # tile-grid columns in, words per input row
    out = bytearray(cols * out_stride)
    src = memoryview(flat).cast("Q")
    dst = memoryview(out).cast("Q")
    if blocks >= tiles:
        # One contiguous output row per copy, gathered across blocks.
        block_words = tiles << 6
        for j in range(tiles):
            for r in range(LANES):
                o = ((j << 6) + r) * blocks
                dst[o : o + blocks] = src[tiles * r + j :: block_words]
    else:
        # One contiguous input row per copy, scattered across out rows.
        out_step = blocks << 6
        for i in range(blocks):
            base = (i << 6) * tiles
            for r in range(LANES):
                s = base + tiles * r
                dst[r * blocks + i :: out_step] = src[s : s + tiles]
    del dst, src
    # Slice p of the result is output row p, already contiguous.
    if out_stride == 8:
        return list(struct.unpack(f"<{cols}Q", out)[:n_bits])
    from_bytes = int.from_bytes
    return [
        from_bytes(out[p * out_stride : (p + 1) * out_stride], "little")
        for p in range(n_bits)
    ]


def untranspose(slices: Sequence[int], n_words: int) -> list[int]:
    """Inverse of :func:`transpose`: rebuild ``n_words`` per-word integers.

    ``slices[p]`` holds bit ``p`` of every word; the result is the list
    of words, each ``len(slices)`` bits wide.  (A bit-matrix transpose
    is an involution, so this is :func:`transpose` with the roles of
    rows and columns swapped.)
    """
    return transpose(slices, n_words)


# -- compiled XOR-fold maps --------------------------------------------------


class CompiledMap:
    """A GF(2) linear map compiled to a slice-register XOR program.

    Attributes:
        n_inputs: input slice count the program expects.
        steps: ``(src_a, src_b, dst)`` register XORs building shared
            byte-group subexpressions.
        outputs: per output bit, the registers to XOR together.
        n_regs: total register-file size.
    """

    __slots__ = ("n_inputs", "steps", "outputs", "n_regs", "_runner")

    def __init__(self, n_inputs, steps, outputs, n_regs):
        self.n_inputs = n_inputs
        self.steps = steps
        self.outputs = outputs
        self.n_regs = n_regs
        self._runner = None

    def runner(self):
        """The program as a generated python function over local names.

        Register-file interpretation costs a list index per operand;
        code-generating the program instead binds every register to a
        local variable (array-indexed ``LOAD_FAST`` in CPython), nearly
        halving the per-XOR overhead of the hot fold.  Built lazily and
        cached on the map (maps themselves are cached per code config).
        """
        if self._runner is None:
            unpack = (
                "    " + "".join(f"r{i}, " for i in range(self.n_inputs)) + "= _s"
                if self.n_inputs
                else "    pass"
            )
            lines = ["def _run(_s):", unpack]
            lines.extend(f"    r{d} = r{a} ^ r{b}" for a, b, d in self.steps)
            terms = [
                " ^ ".join(f"r{r}" for r in srcs) if srcs else "0"
                for srcs in self.outputs
            ]
            lines.append("    return [" + ", ".join(terms) + "]")
            namespace: dict = {}
            exec(compile("\n".join(lines), "<bitslice-fold>", "exec"), namespace)
            self._runner = namespace["_run"]
        return self._runner


def supports_from_contributions(
    contributions: Sequence[int], n_outputs: int
) -> list[list[int]]:
    """Transpose per-input contribution ints into per-output support lists.

    ``contributions[i]`` is the value a set input bit ``i`` XORs into
    the output (the same lists :func:`repro.ecc.matrix.build_chunk_tables`
    consumes); ``support[r]`` lists the input bits feeding output ``r``.
    """
    supports: list[list[int]] = [[] for _ in range(n_outputs)]
    for i, contribution in enumerate(contributions):
        while contribution:
            low = contribution & -contribution
            r = low.bit_length() - 1
            if r < n_outputs:
                supports[r].append(i)
            contribution ^= low
    return supports


def compile_map(supports: Sequence[Sequence[int]], n_inputs: int) -> CompiledMap:
    """Compile per-output input-support lists into a fold program.

    Inputs are grouped 8 at a time; every distinct byte-pattern an
    output needs from a group becomes one shared register, built
    incrementally from smaller patterns (lazy four-Russians).  Dense
    maps (the BCH generator) roughly halve their XOR count this way.
    """
    reg_of: dict[tuple[int, int], int] = {}
    steps: list[tuple[int, int, int]] = []
    next_reg = n_inputs

    def reg_for(group: int, pattern: int) -> int:
        nonlocal next_reg
        if pattern & (pattern - 1) == 0:  # single input bit
            return (group << 3) + (pattern.bit_length() - 1)
        reg = reg_of.get((group, pattern))
        if reg is None:
            low = pattern & -pattern
            a = reg_for(group, pattern ^ low)
            b = (group << 3) + (low.bit_length() - 1)
            reg = next_reg
            next_reg += 1
            reg_of[(group, pattern)] = reg
            steps.append((a, b, reg))
        return reg

    outputs = []
    for support in supports:
        patterns: dict[int, int] = {}
        for i in support:
            if not 0 <= i < n_inputs:
                raise ValueError(f"support index {i} outside {n_inputs} inputs")
            patterns[i >> 3] = patterns.get(i >> 3, 0) | (1 << (i & 7))
        outputs.append(
            tuple(reg_for(g, p) for g, p in sorted(patterns.items()))
        )
    return CompiledMap(n_inputs, tuple(steps), tuple(outputs), next_reg)


def fold(slices: Sequence[int], cmap: CompiledMap) -> list[int]:
    """Apply a compiled map to input slices, yielding output slices."""
    if len(slices) != cmap.n_inputs:
        raise ValueError(
            f"map expects {cmap.n_inputs} input slices, got {len(slices)}"
        )
    return cmap.runner()(slices)


# -- lane-mask helpers -------------------------------------------------------


def or_reduce(slices: Sequence[int]) -> int:
    """Lanes (as a bit mask) where *any* of the given slices has a 1."""
    acc = 0
    for s in slices:
        acc |= s
    return acc


def xor_reduce(slices: Sequence[int]) -> int:
    """Per-lane XOR (parity) across the given slices."""
    acc = 0
    for s in slices:
        acc ^= s
    return acc


def select(slices: Sequence[int], indices: Sequence[int]) -> list[int]:
    """Subset of slices by position, preserving lane order."""
    return [slices[i] for i in indices]


def lane_flags(mask: int, n: int) -> bytes:
    """Serialize a lane mask for O(1) per-lane tests over ``n`` lanes.

    Testing ``mask >> i & 1`` per lane costs an O(n)-byte big-int shift
    each time (quadratic over a batch); serializing once lets callers
    test ``flags[i >> 3] >> (i & 7) & 1`` at constant cost.
    """
    return mask.to_bytes((max(mask.bit_length(), n) + 7) >> 3, "little")
