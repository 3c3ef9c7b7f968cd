"""Error-correction substrate: GF(2^m), BCH, Hamming SEC-DED.

Public entry points:

* :class:`repro.ecc.gf.GF2m` — finite-field arithmetic.
* :class:`repro.ecc.bch.BchCode` — t-error-correcting binary BCH codec.
* :class:`repro.ecc.hamming.SecDedCode` — single-error-correct,
  double-error-detect codec for arbitrary data lengths (includes the
  classic (72,64) configuration).
* :mod:`repro.ecc.codes` — the scheme registry used by the simulator
  (latency / storage / energy models for ECC-0 .. ECC-6).
* :mod:`repro.ecc.layout` — the 64-bit ECC-field layout of paper Fig. 6.
"""

from repro.ecc.bch import BchCode
from repro.ecc.codes import EccScheme, SchemeKind, make_scheme
from repro.ecc.gf import GF2m
from repro.ecc.hamming import SecDedCode
from repro.ecc.layout import EccFieldLayout, LineCodec

__all__ = [
    "BchCode",
    "EccFieldLayout",
    "EccScheme",
    "GF2m",
    "LineCodec",
    "SchemeKind",
    "SecDedCode",
    "make_scheme",
]
