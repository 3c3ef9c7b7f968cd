"""Matrix-based fast paths for the ECC codecs.

The reference codecs in :mod:`repro.ecc.bch` and :mod:`repro.ecc.hamming`
compute parity and syndromes bit-by-bit (polynomial division,
Hamming-position walks).  Both operations are
vector-matrix products over GF(2) for a linear code, so the matrices can
be precomputed once per code configuration:

* **Encoding** — the systematic generator-matrix row for data bit ``i``
  of a cyclic code is ``x^(parity_bits + i) mod g(x)``; encoding is then
  the XOR of the rows selected by the data word's set bits.
* **Syndromes** — the parity-check-matrix column for codeword bit ``p``
  packs all the per-root partial syndromes (``alpha^(j*p)`` for BCH, the
  H column for SEC-DED) into disjoint bit lanes of one integer;
  the full syndrome vector is the XOR of the columns of the set bits.

To turn per-bit XOR folding into per-*byte* folding, the rows/columns
are collapsed into chunk tables: ``tables[c][b]`` holds the XOR of the
contributions of the bits of byte value ``b`` at chunk ``c`` (8 bits per
chunk).  A 576-bit ECC-6 word then costs at most 72 table lookups + XORs
instead of ~576 shift/XOR steps of polynomial division.

Tables are cached per code configuration (alongside
:func:`repro.ecc.gf.get_field`) and shared by every codec instance built
with the same parameters; :func:`table_cache_info` exposes hit/miss
counters so the codec counters can report table reuse.
"""

from __future__ import annotations

from typing import Any, Callable

#: Bits folded per table lookup.
CHUNK_BITS = 8
_CHUNK_SIZE = 1 << CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1


def build_chunk_tables(contributions: list[int]) -> list[list[int]]:
    """Collapse per-bit XOR contributions into per-byte lookup tables.

    Args:
        contributions: ``contributions[p]`` is the (XOR-combinable) value
            contributed by a set bit at position ``p``.

    Returns:
        ``tables`` such that ``tables[c][b]`` equals the XOR of
        ``contributions[8*c + j]`` over the set bits ``j`` of ``b``.
    """
    tables: list[list[int]] = []
    for base in range(0, len(contributions), CHUNK_BITS):
        chunk = contributions[base : base + CHUNK_BITS]
        table = [0] * _CHUNK_SIZE
        for value in range(1, _CHUNK_SIZE):
            low = value & -value
            bit = low.bit_length() - 1
            rest = table[value ^ low]
            table[value] = rest ^ chunk[bit] if bit < len(chunk) else rest
        tables.append(table)
    return tables


def fold_word(tables: list[list[int]], word: int) -> int:
    """XOR-fold ``word`` through chunk tables (the fast-path inner loop).

    The word must be non-negative and fit in ``len(tables) * 8`` bits;
    ``int.to_bytes`` raises ``OverflowError`` otherwise, so a wide word
    is never silently truncated.  Serializing once keeps the loop free
    of repeated big-int shifts (which are O(width) each and would make
    the fold quadratic in the word size).  Zero bytes need no branch:
    ``table[0]`` is always 0.
    """
    acc = 0
    for table, byte in zip(tables, word.to_bytes(len(tables), "little")):
        acc ^= table[byte]
    return acc


# -- configuration-level table cache ----------------------------------------

_CACHE: dict[tuple, Any] = {}
_HITS = 0
_MISSES = 0


def cached_tables(key: tuple, builder: Callable[[], Any]) -> Any:
    """Return the cached table set for ``key``, building it on first use.

    Keys are namespaced by the codec module and path (e.g.
    ``("bch", t, k, m, g)`` for chunk tables, ``("bch-sliced", ...)`` for
    the lane engine's compiled maps) so one process-wide cache serves
    every code family and neither fold path can be handed the other's
    tables.
    """
    global _HITS, _MISSES
    try:
        value = _CACHE[key]
    except KeyError:
        _MISSES += 1
        value = builder()
        _CACHE[key] = value
        return value
    _HITS += 1
    return value


def table_cache_info() -> dict[str, int]:
    """Hit/miss/entry counts of the shared fast-path table cache."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE)}


def clear_table_cache() -> None:
    """Drop all cached tables and reset the hit/miss counters (tests)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
