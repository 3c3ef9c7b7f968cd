"""Codec provenance names kept for the benchmark harness.

Every codec has one fast path, the chunk-table fold of
:mod:`repro.ecc.matrix`, beside its polynomial reference oracle, so
there is no engine to select or reset.  :func:`selected_backend` and
:func:`reset_backend` stay only because ``perfbench/iteration.py``
calls them for its provenance line; they go when that benchmark stops
calling them (ROADMAP direction 3).
"""

from __future__ import annotations


def selected_backend() -> str:
    """Name of the one codec fast path (``"matrix"``)."""
    return "matrix"


def reset_backend() -> None:
    """Nothing to reset: the codecs keep no engine state."""
