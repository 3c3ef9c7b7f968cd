"""Golden-vector regression: stored codewords must never silently change.

``golden_vectors.json`` was generated from the *reference* (polynomial)
encoders with fixed seeds.  :mod:`repro.functional.memory` persists raw
codewords, so any refactor that alters what an encoder emits — fast path
or reference path — would corrupt previously written lines.  These tests
pin every configuration the repo exercises.
"""

import json
from pathlib import Path

import pytest

from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.ecc.layout import LineCodec
from repro.types import EccMode

VECTORS = json.loads(
    (Path(__file__).parent / "golden_vectors.json").read_text()
)


def _bch_id(group):
    tag = "x" if group["extended"] else ""
    return f"t{group['t']}{tag}-d{group['data_bits']}"


@pytest.mark.parametrize("group", VECTORS["bch"], ids=_bch_id)
def test_bch_golden(group):
    code = BchCode(
        t=group["t"],
        data_bits=group["data_bits"],
        extended=group["extended"],
    )
    assert code.m == group["m"]
    assert hex(code.generator) == group["generator"]
    assert code.codeword_bits == group["codeword_bits"]
    for vector in group["vectors"]:
        data = int(vector["data"], 16)
        expected = int(vector["codeword"], 16)
        assert code.encode(data) == expected
        assert code.encode_reference(data) == expected
        assert code.decode(expected).data == data


@pytest.mark.parametrize(
    "group", VECTORS["secded"], ids=lambda g: f"d{g['data_bits']}"
)
def test_secded_golden(group):
    code = SecDedCode(group["data_bits"])
    assert code.codeword_bits == group["codeword_bits"]
    for vector in group["vectors"]:
        data = int(vector["data"], 16)
        expected = int(vector["codeword"], 16)
        assert code.encode(data) == expected
        assert code.encode_reference(data) == expected
        assert code.decode(expected).data == data


@pytest.mark.parametrize(
    "group", VECTORS["line_codec"], ids=lambda g: g["mode"]
)
def test_line_codec_golden(group):
    codec = LineCodec()
    mode = EccMode[group["mode"].upper()]
    assert codec.stored_bits == group["stored_bits"]
    for vector in group["vectors"]:
        data = int(vector["data"], 16)
        expected = int(vector["stored"], 16)
        assert codec.encode(data, mode) == expected
        result = codec.decode(expected)
        assert result.data == data
        assert result.mode is mode
