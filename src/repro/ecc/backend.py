"""The codec lane engine and the batch size at which it takes over.

Batch calls of at least :data:`MIN_SLICED_BATCH` words run on the
pure-python 64-lane bitsliced engine (:mod:`repro.ecc.bitslice`);
smaller batches run the scalar per-word chunk-table fold
(:mod:`repro.ecc.matrix`), which stays the differential oracle beside
the polynomial reference paths.  The choice depends only on the batch
size, so a result never depends on which path computed it.

The engine is a process-wide singleton; the per-code compiled maps it
feeds are cached in :func:`repro.ecc.matrix.cached_tables` under their
own ``"<code>-sliced"`` keys, apart from the scalar chunk tables.
"""

from __future__ import annotations

#: Slice-engine batch paths only pay off past this batch size; smaller
#: batches take the scalar matrix loop.
MIN_SLICED_BATCH = 16

_engine = None


class BitslicedEngine:
    """Lane-engine facade over :mod:`repro.ecc.bitslice`."""

    name = "bitsliced"

    def __init__(self):
        from repro.ecc import bitslice

        self.transpose = bitslice.transpose
        self.untranspose = bitslice.untranspose
        self.fold = bitslice.fold
        self.or_reduce = bitslice.or_reduce
        self.xor_reduce = bitslice.xor_reduce
        self.select = bitslice.select

    @staticmethod
    def compile_map(supports, n_inputs):
        from repro.ecc import bitslice

        return bitslice.compile_map(supports, n_inputs)


def get_engine() -> BitslicedEngine:
    """The process-wide lane engine."""
    global _engine
    if _engine is None:
        _engine = BitslicedEngine()
    return _engine


def selected_backend() -> str:
    """Name of the lane engine that runs large batches (``"bitsliced"``)."""
    return BitslicedEngine.name


def reset_backend() -> None:
    """Drop the engine singleton; the next :func:`get_engine` rebuilds it."""
    global _engine
    _engine = None
