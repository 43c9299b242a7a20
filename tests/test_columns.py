"""Decoding device segments into column sets."""

import numpy as np
import pytest

from ndtsim.columns import KIND_OFFSETS, KIND_VALUES, VID_COLUMN, decode_segment, result_specs
from ndtsim.errors import CorruptDescriptor
from ndtsim.layout import Schema, VarChar


def test_decode_segment_rejects_non_utf8_varchar():
    specs = result_specs(Schema("t", [("s", VarChar(8), False)]), ("s",))
    buffers = {
        (VID_COLUMN, KIND_VALUES): np.array([1], dtype="<u8").tobytes(),
        ("s", KIND_VALUES): b"\xff",
        ("s", KIND_OFFSETS): np.array([0, 1], dtype="<u4").tobytes(),
    }
    with pytest.raises(CorruptDescriptor):
        decode_segment(specs, buffers, 1)
