"""On-disk columnar result files ("NDTC" format).

Single-copy, 64-byte-aligned little-endian layout so third-party tools can
map buffers directly:

    0   magic   "NDTC"
    4   version u32 (currently 1)
    8   snapshot_ts u64
    16  row_count u64
    24  attr_count u32
    28  schema block, per attribute:
          name_len u16, name bytes (UTF-8),
          type_tag u8, param1 u16, param2 u16, nullable u8
    ..  descriptor table, per attribute:
          values_off u64, values_len u64,
          validity_off u64, validity_len u64,
          offsets_off u64, offsets_len u64
    ..  visibility_off u64, visibility_len u64
    ..  buffers, each aligned to 64 bytes, zero padding between

Absent buffers have offset 0 and length 0.  Timestamp columns hold i64
seconds since the UNIX epoch (the transformation converts on the way out);
decimal columns hold the scaled i64 representation, with precision/scale
in the schema block parameters.

``write_file`` encodes a column set; ``write_handle`` moves a
materialization's fragment bytes into the file without decoding a value.
``read_file`` makes the file's own checks (header, schema, descriptor
ranges, overlaps) and decodes the buffers with ``columns.assemble``, one
segment through the reader of device segments, which checks each
buffer's length and content.
"""

from __future__ import annotations

import struct

import numpy as np

from .columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    VID_COLUMN,
    ColumnSet,
    ColumnSpec,
    assemble,
    column_buffers,
    gather_buffers,
    visibility_bits,
    visibility_words,
)
from .delta import read_back
from .errors import BadMagic, CorruptDescriptor, LengthMismatch, UnsupportedVersion
from .layout import (
    TC_DECIMAL,
    TC_INT32,
    TC_INT64,
    TC_TIMESTAMP,
    TC_VARCHAR,
    Decimal,
    Int32,
    Int64,
    TimestampPg,
    VarChar,
)

MAGIC = b"NDTC"
FORMAT_VERSION = 1
ALIGNMENT = 64

_HEADER = struct.Struct("<4sIQQI")
_ATTR_FIXED = struct.Struct("<BHHB")
_DESC = struct.Struct("<QQQQQQ")
_VIS = struct.Struct("<QQ")
_U16 = struct.Struct("<H")
_KINDS = (KIND_VALUES, KIND_VALIDITY, KIND_OFFSETS)      # descriptor order


def _align(n: int) -> int:
    return (n + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


def _type_params(ftype) -> tuple:
    if isinstance(ftype, Decimal):
        return ftype.precision, ftype.scale
    if isinstance(ftype, VarChar):
        return ftype.max_len, 0
    return 0, 0


def _type_from_tag(tag: int, p1: int, p2: int):
    if tag == TC_INT32:
        return Int32()
    if tag == TC_INT64:
        return Int64()
    if tag == TC_DECIMAL:
        return Decimal(p1, p2)
    if tag == TC_TIMESTAMP:
        return TimestampPg()
    if tag == TC_VARCHAR:
        return VarChar(p1)
    raise CorruptDescriptor(f"unknown type tag {tag}")


def write_file(path, column_set: ColumnSet, visibility: np.ndarray = None,
               snapshot_ts: int = 0) -> None:
    """Serialize a column set (all positions) plus its visibility bitmap.

    With no bitmap given, every row is marked current; one of another
    length than the rows is a ``LengthMismatch``.  Writing the same content
    twice produces byte-identical files.
    """
    rows = column_set.n_rows
    if visibility is None:
        visibility = np.ones(rows, dtype=bool)
    _write_buffers(path, column_set.specs, rows, column_buffers(column_set), visibility,
                   snapshot_ts)


def _write_buffers(path, specs, rows: int, buffers: dict, visibility: np.ndarray,
                   snapshot_ts: int) -> None:
    """Lay out encoded column buffers ({(name, kind): bytes}) as one file."""
    if len(visibility) != rows:
        raise LengthMismatch(f"visibility has {len(visibility)} bits for {rows} rows")

    schema_block = bytearray()
    for spec in specs:
        name_bytes = spec.name.encode("utf-8")
        schema_block.extend(_U16.pack(len(name_bytes)))
        schema_block.extend(name_bytes)
        p1, p2 = _type_params(spec.ftype)
        schema_block.extend(_ATTR_FIXED.pack(spec.ftype.code, p1, p2, int(spec.nullable)))

    desc_pos = _HEADER.size + len(schema_block)
    buffers_start = desc_pos + _DESC.size * len(specs) + _VIS.size

    blobs = []          # (absolute offset, bytes)
    cursor = buffers_start

    def place(data: bytes) -> tuple:
        nonlocal cursor
        if not data:
            return 0, 0
        off = _align(cursor)
        blobs.append((off, data))
        cursor = off + len(data)
        return off, len(data)

    descriptors = [sum((place(buffers.get((spec.name, kind), b"")) for kind in _KINDS), ())
                   for spec in specs]
    vis_desc = place(visibility_words(visibility))

    out = bytearray(cursor)
    _HEADER.pack_into(out, 0, MAGIC, FORMAT_VERSION, snapshot_ts, rows, len(specs))
    out[_HEADER.size:_HEADER.size + len(schema_block)] = schema_block
    for i, desc in enumerate(descriptors):
        _DESC.pack_into(out, desc_pos + _DESC.size * i, *desc)
    _VIS.pack_into(out, desc_pos + _DESC.size * len(specs), *vis_desc)
    for off, data in blobs:
        out[off:off + len(data)] = data

    with open(path, "wb") as fh:
        fh.write(out)


def _checked_slice(raw, off: int, length: int, what: str):
    if off + length > len(raw):
        raise CorruptDescriptor(f"{what}: range [{off},{off + length}) outside file of {len(raw)}")
    return raw[off:off + length]


def read_file(path):
    """Inverse of write_file: returns (ColumnSet, visibility bool array)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CorruptDescriptor("file shorter than header")
    magic, version, snapshot_ts, rows, attr_count = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"magic {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format version {version}")
    if attr_count == 0 or attr_count > 4096:
        raise CorruptDescriptor(f"implausible attribute count {attr_count}")

    pos = _HEADER.size
    specs = []
    try:
        for _ in range(attr_count):
            (name_len,) = _U16.unpack_from(raw, pos)
            pos += 2
            if len(raw) < pos + name_len:
                raise CorruptDescriptor("schema block truncated")
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            tag, p1, p2, nullable = _ATTR_FIXED.unpack_from(raw, pos)
            pos += _ATTR_FIXED.size
            try:
                ftype = _type_from_tag(tag, p1, p2)
            except ValueError as exc:
                raise CorruptDescriptor(f"bad type parameters: {exc}") from exc
            specs.append(ColumnSpec(name, ftype, bool(nullable)))
        descriptors = [_DESC.unpack_from(raw, pos + _DESC.size * i) for i in range(attr_count)]
        vis_off, vis_len = _VIS.unpack_from(raw, pos + _DESC.size * attr_count)
    except struct.error as exc:
        raise CorruptDescriptor(f"descriptor table truncated: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptDescriptor(f"attribute name is not UTF-8: {exc}") from exc

    names = [spec.name for spec in specs]
    if names[0] != VID_COLUMN or len(set(names)) != len(names):
        raise CorruptDescriptor("the row identity must come first, and no name twice")

    ranges = {(name, kind): desc[2 * i:2 * i + 2]
              for name, desc in zip(names, descriptors) for i, kind in enumerate(_KINDS)}
    occupied = sorted((off, off + ln) for off, ln in [*ranges.values(), (vis_off, vis_len)] if ln)
    for (a0, a1), (b0, b1) in zip(occupied, occupied[1:]):
        if b0 < a1:
            raise CorruptDescriptor(f"buffers [{a0},{a1}) and [{b0},{b1}) overlap")

    view = memoryview(raw)
    buffers = {key: _checked_slice(view, *r, " ".join(key)) for key, r in ranges.items()}
    bits = visibility_bits(_checked_slice(view, vis_off, vis_len, "visibility bitmap"), rows)
    return assemble(tuple(specs), [(rows, buffers)]), bits


def write_handle(path, handle) -> None:
    """Export a materialization: all positions plus its visibility bitmap.

    The file holds what ``write_file`` would write for every position
    ``columns.read_joined`` reads off the fragments, but its buffers are
    moved out of the fragments without decoding a value.
    """
    segs = read_back(handle)
    _write_buffers(path, handle.specs, int(segs.rows.sum()), gather_buffers(handle.specs, segs),
                   handle.current, handle.snapshot_ts)
