"""The per-record reference decoder the batch path is checked against.

``decode_values`` and ``decode_field`` read a record one attribute at a
time, through ``layout.record_field_slices`` (the format-parser walk), with
``struct`` and ``decimal.Decimal``: no code of the device path's batch
extractor and none of the host oracle, so one bug cannot sit on both sides
of a comparison.
"""

import struct
from decimal import Decimal as PyDecimal

from ndtsim.layout import TC_DECIMAL, TC_INT32, TC_VARCHAR, Decimal, Schema, record_field_slices

_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")


def scaled_to_decimal(scaled: int, ftype: Decimal) -> PyDecimal:
    return PyDecimal(scaled).scaleb(-ftype.scale)


def _decode_at(schema: Schema, buf, attr_index: int, slc):
    if slc is None:
        return None
    start, length = slc
    ftype = schema.attributes[attr_index].ftype
    code = ftype.code
    if code == TC_INT32:
        return _I32.unpack_from(buf, start)[0]
    if code == TC_DECIMAL:
        return scaled_to_decimal(_I64.unpack_from(buf, start)[0], ftype)
    if code == TC_VARCHAR:
        return bytes(buf[start:start + length]).decode("utf-8")
    return _I64.unpack_from(buf, start)[0]


def decode_field(schema: Schema, record_bytes, attr_index: int):
    """Extract one attribute; None when the null bitmap marks it NULL."""
    slices, _ = record_field_slices(schema, record_bytes)
    return _decode_at(schema, record_bytes, attr_index, slices[attr_index])


def decode_values(schema: Schema, record_bytes) -> list:
    """Decode every attribute of a record in one walk."""
    slices, _ = record_field_slices(schema, record_bytes)
    return [_decode_at(schema, record_bytes, i, s) for i, s in enumerate(slices)]
