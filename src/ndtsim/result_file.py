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
``read_file`` checks every buffer and decodes each varchar column with one
``bytes.decode`` (``columns.decode_varchar``).
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
    column_buffers,
    decode_varchar,
    gather_buffers,
    value_width,
)
from .delta import read_segments
from .errors import BadMagic, CorruptDescriptor, UnsupportedVersion
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

    With no bitmap given, every row is marked current.  Writing the same
    content twice produces byte-identical files.
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
        raise ValueError(f"visibility has {len(visibility)} bits for {rows} rows")

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

    descriptors = []
    for spec in specs:
        name = spec.name
        descriptors.append(place(buffers.get((name, KIND_VALUES), b""))
                           + place(buffers.get((name, KIND_VALIDITY), b""))
                           + place(buffers.get((name, KIND_OFFSETS), b"")))

    if rows:
        vis_bytes = np.packbits(visibility.astype(np.uint8), bitorder="little").tobytes()
        vis_bytes += b"\x00" * (-(-rows // 64) * 8 - len(vis_bytes))
    else:
        vis_bytes = b""
    vis_desc = place(vis_bytes)

    out = bytearray(cursor)
    _HEADER.pack_into(out, 0, MAGIC, FORMAT_VERSION, snapshot_ts, rows, len(specs))
    out[_HEADER.size:_HEADER.size + len(schema_block)] = schema_block
    pos = desc_pos
    for desc in descriptors:
        _DESC.pack_into(out, pos, *desc)
        pos += _DESC.size
    _VIS.pack_into(out, pos, *vis_desc)
    for off, data in blobs:
        out[off:off + len(data)] = data

    with open(path, "wb") as fh:
        fh.write(out)


def _checked_slice(raw: bytes, off: int, length: int, what: str) -> bytes:
    if off == 0 and length == 0:
        return b""
    if off < 0 or length < 0 or off + length > len(raw):
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
        descriptors = []
        for _ in range(attr_count):
            descriptors.append(_DESC.unpack_from(raw, pos))
            pos += _DESC.size
        vis_off, vis_len = _VIS.unpack_from(raw, pos)
    except struct.error as exc:
        raise CorruptDescriptor(f"descriptor table truncated: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptDescriptor(f"attribute name is not UTF-8: {exc}") from exc

    if not specs or specs[0].name != VID_COLUMN:
        raise CorruptDescriptor("first column must be the row identity")

    ranges = [r for d in descriptors for r in ((d[0], d[1]), (d[2], d[3]), (d[4], d[5]))]
    ranges.append((vis_off, vis_len))
    occupied = sorted((off, off + ln) for off, ln in ranges if ln)
    for (a0, a1), (b0, b1) in zip(occupied, occupied[1:]):
        if b0 < a1:
            raise CorruptDescriptor(f"buffers [{a0},{a1}) and [{b0},{b1}) overlap")

    data: dict = {}
    validity: dict = {}
    vids = None
    for spec, desc in zip(specs, descriptors):
        v_off, v_len, n_off, n_len, o_off, o_len = desc
        values = _checked_slice(raw, v_off, v_len, f"{spec.name} values")
        if spec.name == VID_COLUMN:
            if len(values) != rows * 8:
                raise CorruptDescriptor(f"identity column holds {len(values)} bytes for {rows} rows")
            vids = np.frombuffer(values, dtype="<u8")
            continue
        if isinstance(spec.ftype, VarChar):
            offsets_raw = _checked_slice(raw, o_off, o_len, f"{spec.name} offsets")
            if rows == 0:
                if offsets_raw:
                    raise CorruptDescriptor(f"{spec.name}: offsets present for empty file")
                data[spec.name] = []
            else:
                if len(offsets_raw) != (rows + 1) * 4:
                    raise CorruptDescriptor(f"{spec.name}: offsets length {len(offsets_raw)}")
                data[spec.name] = decode_varchar(
                    values, np.frombuffer(offsets_raw, dtype="<u4"), spec.name)
        else:
            width = value_width(spec.ftype)
            if len(values) != rows * width:
                raise CorruptDescriptor(
                    f"{spec.name}: {len(values)} value bytes for {rows} rows of width {width}"
                )
            data[spec.name] = np.frombuffer(values, dtype=f"<i{width}")
        if spec.nullable:
            bits_raw = _checked_slice(raw, n_off, n_len, f"{spec.name} validity")
            if rows == 0:
                validity[spec.name] = np.zeros(0, dtype=bool)
            else:
                if len(bits_raw) != (rows + 7) // 8:
                    raise CorruptDescriptor(f"{spec.name}: validity length {len(bits_raw)}")
                bits = np.unpackbits(np.frombuffer(bits_raw, dtype=np.uint8), bitorder="little")
                validity[spec.name] = bits[:rows].astype(bool)
        else:
            validity[spec.name] = None

    if vids is None:
        raise CorruptDescriptor("missing row identity column")
    vis_raw = _checked_slice(raw, vis_off, vis_len, "visibility bitmap")
    if rows == 0:
        bits = np.zeros(0, dtype=bool)
        if vis_raw:
            raise CorruptDescriptor("visibility bitmap present for empty file")
    else:
        if len(vis_raw) != -(-rows // 64) * 8:
            raise CorruptDescriptor(f"visibility bitmap length {len(vis_raw)}")
        bits = np.unpackbits(np.frombuffer(vis_raw, dtype=np.uint8),
                             bitorder="little")[:rows].astype(bool)
    column_set = ColumnSet(tuple(specs), vids, data, validity, rows)
    return column_set, bits


def write_handle(path, handle) -> None:
    """Export a materialization: all positions plus its visibility bitmap.

    The file holds what ``write_file`` would write for ``full_column_set``,
    but its buffers are moved out of the fragments without decoding a value.
    """
    segments = read_segments(handle)
    _write_buffers(path, handle.specs, sum(rows for rows, _ in segments),
                   gather_buffers(handle.specs, segments), handle.current, handle.snapshot_ts)
