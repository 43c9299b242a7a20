"""Logical columnar results: typed buffers plus row identity.

A ColumnSet is the in-memory form of a transformation result: one numpy
array (or string list) per projected attribute, optional validity arrays
for nullable attributes, and the per-row tuple identity vector that makes
order-insensitive comparison possible.  Buffer encodings mirror what the
device writes:

* Int32 -> little-endian i4; Int64 / Decimal (scaled) / converted
  timestamps (seconds since the UNIX epoch) -> little-endian i8
* varchar -> UTF-8 payload plus a u4 offsets vector of length rows+1
* validity -> LSB-first bitmap, 1 = value present

Reading device buffers back checks every row of every segment, but
decodes only what the consumer keeps.  ``assemble`` takes an optional keep
mask: fixed-width columns are numpy views gathered by it, and each varchar
column is checked as a whole (offsets from 0, never decreasing, ending at
the payload's length, on character boundaries; the payload UTF-8) and
decoded with one ``bytes.decode``, each kept value being one slice of that
text (``decode_varchar``).  ``gather_buffers`` moves kept values, offsets,
payload bytes and validity bits between buffer sets without building a
string, for compaction and export.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal as PyDecimal
from typing import NamedTuple, Optional

import numpy as np

from .errors import CorruptDescriptor, SchemaMismatch
from .layout import (
    TC_DECIMAL,
    TC_INT32,
    TC_VARCHAR,
    Int64,
    Schema,
)

KIND_VALUES = "values"
KIND_VALIDITY = "validity"
KIND_OFFSETS = "offsets"

VID_COLUMN = "__vid"


def value_width(ftype) -> int:
    """Byte width of one value slot in a result buffer (varchar excluded)."""
    return 4 if ftype.code == TC_INT32 else 8


class ColumnSpec(NamedTuple):
    name: str
    ftype: object
    nullable: bool


def result_specs(schema: Schema, projection) -> tuple:
    """Column specs for a projection, with the implicit row-identity column."""
    specs = [ColumnSpec(VID_COLUMN, Int64(), False)]
    for name in projection:
        attr = schema.attribute(name)
        specs.append(ColumnSpec(attr.name, attr.ftype, attr.nullable))
    return tuple(specs)


@dataclass
class ColumnSet:
    """One logical result: aligned arrays keyed by attribute name."""

    specs: tuple                  # ColumnSpec per column, __vid first
    vids: np.ndarray              # u8, row identity
    data: dict                    # name -> np.ndarray | list[str]
    validity: dict                # name -> np.ndarray(bool) | None
    n_rows: int

    def column_names(self):
        return [s.name for s in self.specs if s.name != VID_COLUMN]

    def mask(self, keep: np.ndarray) -> "ColumnSet":
        data = {}
        for name, arr in self.data.items():
            if isinstance(arr, list):
                data[name] = [arr[i] for i in np.flatnonzero(keep).tolist()]
            else:
                data[name] = arr[keep]
        validity = {n: (v[keep] if v is not None else None) for n, v in self.validity.items()}
        return ColumnSet(self.specs, self.vids[keep], data, validity, int(keep.sum()))

    def sorted_by_vid(self) -> "ColumnSet":
        order = np.argsort(self.vids, kind="stable")
        data = {}
        for name, arr in self.data.items():
            if isinstance(arr, list):
                data[name] = [arr[i] for i in order.tolist()]
            else:
                data[name] = arr[order]
        validity = {n: (v[order] if v is not None else None) for n, v in self.validity.items()}
        return ColumnSet(self.specs, self.vids[order], data, validity, self.n_rows)

    def logical_value(self, name: str, row: int):
        """Decoded value at a row: None when invalid, Decimal for decimals."""
        v = self.validity.get(name)
        if v is not None and not v[row]:
            return None
        spec = next(s for s in self.specs if s.name == name)
        raw = self.data[name][row]
        if isinstance(raw, str):
            return raw
        raw = int(raw)
        if spec.ftype.code == TC_DECIMAL:
            return PyDecimal(raw).scaleb(-spec.ftype.scale)
        return raw


def column_buffers(column_set: ColumnSet) -> dict:
    """Encode a column set into device buffers, {(name, kind): bytes}.

    The inverse of ``decode_segment``: values, then offsets (varchar, only
    when there are rows), then validity (nullable) per column, after the
    identity column.
    """
    out = {(VID_COLUMN, KIND_VALUES): column_set.vids.astype("<u8").tobytes()}
    for spec in column_set.specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        col = column_set.data[name]
        if spec.ftype.code == TC_VARCHAR:
            encoded = [s.encode("utf-8") for s in col]
            out[(name, KIND_VALUES)] = b"".join(encoded)
            if column_set.n_rows:
                ends = np.cumsum([0] + [len(e) for e in encoded])
                out[(name, KIND_OFFSETS)] = ends.astype("<u4").tobytes()
        else:
            out[(name, KIND_VALUES)] = col.astype(f"<i{value_width(spec.ftype)}").tobytes()
        if spec.nullable:
            bits = column_set.validity[name].astype(np.uint8)
            out[(name, KIND_VALIDITY)] = np.packbits(bits, bitorder="little").tobytes()
    return out


def _byte_offsets(payload: bytes, offsets: np.ndarray, what: str) -> np.ndarray:
    ends = offsets.astype(np.int64)
    if ends[0] != 0 or ends[-1] != len(payload) or (ends[1:] < ends[:-1]).any():
        raise CorruptDescriptor(f"{what}: offsets from {ends[0]} to {ends[-1]} not monotone "
                                f"over a payload of {len(payload)}")
    return ends


def _utf8(payload: bytes, what: str) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptDescriptor(f"{what}: value is not UTF-8 ({exc})") from None


def _char_offsets(payload: bytes, text: str, ends: np.ndarray, what: str) -> np.ndarray:
    """Byte offsets ``ends`` into ``payload`` as offsets into its decoded
    ``text``; each must fall on a character boundary."""
    if len(text) == len(payload):                   # ASCII: one byte per character
        return ends
    lead = np.frombuffer(payload, dtype=np.uint8) & 0xC0 != 0x80
    if not lead[ends[ends < len(payload)]].all():
        raise CorruptDescriptor(f"{what}: an offset splits a multibyte character")
    chars = np.zeros(len(payload) + 1, dtype=np.int64)
    np.cumsum(lead, out=chars[1:])
    return chars[ends]


def decode_varchar(payload: bytes, offsets: np.ndarray, what: str, keep=None) -> list:
    """The values of one varchar column: u4 ``offsets`` (rows+1 of them) over
    a UTF-8 ``payload``; only the rows ``keep`` marks, when it is given.

    The whole column is checked, dropped rows included: the offsets start
    at 0, never decrease, end at the payload's length and fall on character
    boundaries, and the payload is UTF-8; else ``CorruptDescriptor``.  The
    payload is decoded once, and each value is one slice of that text.
    """
    ends = _byte_offsets(payload, offsets, what)
    text = _utf8(payload, what)
    chars = _char_offsets(payload, text, ends, what)
    starts, stops = chars[:-1], chars[1:]
    if keep is not None:
        starts, stops = starts[keep], stops[keep]
    return [text[a:b] for a, b in zip(starts.tolist(), stops.tolist())]


def _check_varchar(payload: bytes, offsets: np.ndarray, what: str) -> np.ndarray:
    """Check one varchar column as ``decode_varchar`` does and return its
    offsets as int64; an ASCII payload is checked without building a str."""
    ends = _byte_offsets(payload, offsets, what)
    if not payload.isascii():
        _char_offsets(payload, _utf8(payload, what), ends, what)
    return ends


def _split_segment(specs, buffers: dict, rows: int):
    """Check the buffer sizes of one device output segment (raw buffers for
    a run of rows) and view its columns as arrays, decoding no value.

    Returns ``(vids, data, validity)``; ``data`` maps a fixed-width column
    to its values array and a varchar column to ``(payload, offsets)``,
    whose content ``decode_varchar`` or ``_check_varchar`` checks.
    """
    vid_buf = buffers.get((VID_COLUMN, KIND_VALUES), b"")
    vids = np.frombuffer(vid_buf, dtype="<u8")
    if len(vids) != rows:
        raise CorruptDescriptor(f"identity column has {len(vids)} entries for {rows} rows")
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        values = buffers.get((name, KIND_VALUES), b"")
        if spec.ftype.code == TC_VARCHAR:
            off_buf = buffers.get((name, KIND_OFFSETS), b"")
            offsets = np.frombuffer(off_buf, dtype="<u4")
            if rows == 0:
                if len(offsets) not in (0, 1):
                    raise CorruptDescriptor(f"{name}: offsets present for empty segment")
                data[name] = b"", np.zeros(1, dtype="<u4")
            else:
                if len(offsets) != rows + 1:
                    raise CorruptDescriptor(
                        f"{name}: {len(offsets)} offsets for {rows} rows"
                    )
                data[name] = bytes(values), offsets
        else:
            width = value_width(spec.ftype)
            arr = np.frombuffer(values, dtype=f"<i{width}")
            if len(arr) != rows:
                raise CorruptDescriptor(f"{name}: {len(arr)} values for {rows} rows")
            data[name] = arr
        if spec.nullable:
            bits_buf = buffers.get((name, KIND_VALIDITY), b"")
            if len(bits_buf) != (rows + 7) // 8:
                raise CorruptDescriptor(f"{name}: validity bitmap length {len(bits_buf)}")
            bits = np.unpackbits(np.frombuffer(bits_buf, dtype=np.uint8), bitorder="little")
            validity[name] = bits[:rows].astype(bool)
        else:
            validity[name] = None
    return vids, data, validity


def _split_segments(specs, segments, keep):
    """``_split_segment`` of each of ``segments`` (none reads as one empty
    segment), the positions each starts and ends at, and the index that
    selects the kept positions from their concatenation."""
    segments = segments or [(0, {})]
    bounds = np.cumsum([0] + [rows for rows, _ in segments]).tolist()
    if keep is not None and len(keep) != bounds[-1]:
        raise ValueError(f"keep mask has {len(keep)} entries for {bounds[-1]} positions")
    parts = [_split_segment(specs, bufs, rows) for rows, bufs in segments]
    return parts, bounds, slice(None) if keep is None else keep


def assemble(specs, segments, keep=None) -> ColumnSet:
    """Concatenate decoded segments (list of (rows, buffers)) in order,
    keeping the positions ``keep`` marks (all when None).

    Every position is checked; strings are built for kept positions only.
    """
    parts, bounds, take = _split_segments(specs, segments, keep)
    vids = np.concatenate([p[0] for p in parts])[take]
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            data[name] = []
            for p, lo, hi in zip(parts, bounds, bounds[1:]):
                data[name] += decode_varchar(*p[1][name], name,
                                             None if keep is None else keep[lo:hi])
        else:
            data[name] = np.concatenate([p[1][name] for p in parts])[take]
        if spec.nullable:
            validity[name] = np.concatenate([p[2][name] for p in parts])[take]
        else:
            validity[name] = None
    return ColumnSet(specs, vids, data, validity, len(vids))


def decode_segment(specs, buffers: dict, rows: int):
    """Decode one device output segment (raw buffers for a run of rows)."""
    column_set = assemble(specs, [(rows, buffers)])
    return column_set.vids, column_set.data, column_set.validity


def gather_buffers(specs, segments, keep=None) -> dict:
    """``column_buffers(assemble(specs, segments, keep))``, moved byte for
    byte out of the segment buffers: the kept values, offsets, payload bytes
    and validity bits are gathered with numpy and no string is built.

    Every position is checked as ``assemble`` checks it.
    """
    parts, _, take = _split_segments(specs, segments, keep)
    vids = np.concatenate([p[0] for p in parts])[take]
    out = {(VID_COLUMN, KIND_VALUES): vids.astype("<u8").tobytes()}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            cols = [p[1][name] for p in parts]
            lengths = np.concatenate([np.diff(_check_varchar(payload, offsets, name))
                                      for payload, offsets in cols])
            payload = b"".join(payload for payload, _ in cols)
            if keep is not None:
                payload = np.frombuffer(payload, dtype=np.uint8)[np.repeat(keep, lengths)]
                lengths = lengths[keep]
            out[(name, KIND_VALUES)] = bytes(payload)
            if len(vids):
                ends = np.concatenate([[0], np.cumsum(lengths)])
                out[(name, KIND_OFFSETS)] = ends.astype("<u4").tobytes()
        else:
            values = np.concatenate([p[1][name] for p in parts])[take]
            out[(name, KIND_VALUES)] = values.astype(f"<i{value_width(spec.ftype)}").tobytes()
        if spec.nullable:
            bits = np.concatenate([p[2][name] for p in parts])[take].astype(np.uint8)
            out[(name, KIND_VALIDITY)] = np.packbits(bits, bitorder="little").tobytes()
    return out


@dataclass(frozen=True)
class CompareResult:
    equal: bool
    reason: str = ""
    vid: Optional[int] = None
    attr: Optional[str] = None
    left: object = None
    right: object = None

    def __bool__(self):
        return self.equal


def _specs_compatible(a: ColumnSet, b: ColumnSet):
    if len(a.specs) != len(b.specs):
        raise SchemaMismatch(f"{len(a.specs)} vs {len(b.specs)} columns")
    for sa, sb in zip(a.specs, b.specs):
        if sa.name != sb.name or sa.nullable != sb.nullable:
            raise SchemaMismatch(f"column {sa.name!r} vs {sb.name!r}")
        if sa.ftype != sb.ftype:
            raise SchemaMismatch(f"column {sa.name!r}: {sa.ftype} vs {sb.ftype}")


def canonical_compare(a: ColumnSet, b: ColumnSet) -> CompareResult:
    """Order-insensitive exact comparison: rows sorted by identity, then
    compared field by field; reports the first divergence."""
    _specs_compatible(a, b)
    if a.n_rows != b.n_rows:
        return CompareResult(False, f"row count {a.n_rows} vs {b.n_rows}")
    sa, sb = a.sorted_by_vid(), b.sorted_by_vid()
    if a.n_rows and not np.array_equal(sa.vids, sb.vids):
        idx = int(np.flatnonzero(sa.vids != sb.vids)[0])
        return CompareResult(False, "row identity sets differ",
                             vid=int(sa.vids[idx]), attr=VID_COLUMN,
                             left=int(sa.vids[idx]), right=int(sb.vids[idx]))
    for name in sa.column_names():
        va, vb = sa.validity.get(name), sb.validity.get(name)
        if va is not None and not np.array_equal(va, vb):
            idx = int(np.flatnonzero(va != vb)[0])
            return CompareResult(False, "validity differs", vid=int(sa.vids[idx]), attr=name,
                                 left=bool(va[idx]), right=bool(vb[idx]))
        ca, cb = sa.data[name], sb.data[name]
        if isinstance(ca, list):
            if ca == cb:
                continue
            for i, (xa, xb) in enumerate(zip(ca, cb)):     # locate the first difference
                if va is not None and not va[i]:
                    continue
                if xa != xb:
                    return CompareResult(False, "value differs", vid=int(sa.vids[i]),
                                         attr=name, left=xa, right=xb)
        else:
            neq = ca != cb
            if va is not None:
                neq &= va
            if neq.any():
                idx = int(np.flatnonzero(neq)[0])
                return CompareResult(False, "value differs", vid=int(sa.vids[idx]), attr=name,
                                     left=sa.logical_value(name, idx),
                                     right=sb.logical_value(name, idx))
    return CompareResult(True)
