"""Logical columnar results, and the one codec of their column buffers.

A ColumnSet is the in-memory form of a transformation result: one numpy
array (or string list) per projected attribute, optional validity arrays
for nullable attributes, and the per-row tuple identity vector that makes
order-insensitive comparison possible.  Its buffers ({(name, kind):
bytes}) are laid out as the device writes them and as NDTC files store
them, and every encoder of that layout is here:

* Int32 -> little-endian i4; Int64 / Decimal (scaled) / converted
  timestamps (seconds since the UNIX epoch) -> little-endian i8
* varchar -> UTF-8 payload plus u4 offsets, rows+1 of them
  (``varchar_offsets``); none for a column of no rows
* validity -> LSB-first bitmap, 1 = value present (``pack_bits``)
* visibility -> LSB-first bits padded to whole u64 words
  (``visibility_words``)

One reader, ``assemble``, serves device segments and NDTC files: it is
``decode_segment`` of each segment, then ``join_segments``.  It checks
every buffer's length before viewing it and every row of every segment,
but decodes only what the consumer keeps: fixed-width columns are numpy
views gathered by its keep mask, and each varchar column is checked as a
whole (offsets from 0, never decreasing, ending at the payload's length,
on character boundaries; the payload UTF-8) and decoded whole, with one
UTF-8 decode of the payload with a NUL between values and one split at
the NULs, before the kept values are picked (``decode_varchar``).
``delta.masked_view`` calls the same two pieces and hands
``decode_segment`` the strings it kept from byte-equal buffers.
``gather_buffers`` moves kept values, offsets, payload bytes and validity
bits between buffer sets without building a string, for compaction and
export.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal as PyDecimal
from itertools import chain, compress
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .errors import CorruptDescriptor, LengthMismatch, SchemaMismatch
from .layout import TC_DECIMAL, TC_VARCHAR, Int64, Schema

KIND_VALUES = "values"
KIND_VALIDITY = "validity"
KIND_OFFSETS = "offsets"

VID_COLUMN = "__vid"

# Element types of the buffers every column set shares: the identity column,
# varchar offsets and validity bytes.
VID_DTYPE = np.dtype("<u8")
OFFSETS_DTYPE = np.dtype("<u4")
VALIDITY_DTYPE = np.dtype("u1")


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

    def take(self, rows: np.ndarray) -> "ColumnSet":
        """The rows at positions ``rows``, in that order."""
        index = rows.tolist()
        data = {name: list(map(arr.__getitem__, index)) if isinstance(arr, list)
                else arr[rows] for name, arr in self.data.items()}
        validity = {n: (v[rows] if v is not None else None) for n, v in self.validity.items()}
        return ColumnSet(self.specs, self.vids[rows], data, validity, len(index))

    def mask(self, keep: np.ndarray) -> "ColumnSet":
        return self.take(np.flatnonzero(keep))

    def sorted_by_vid(self) -> "ColumnSet":
        """The rows in ascending vid order, stably: the set itself when its
        vids already strictly increase (as the oracle's, in map order, do)."""
        vids = self.vids
        if (vids[1:] > vids[:-1]).all():
            return self
        return self.take(np.argsort(vids, kind="stable"))

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


def pack_bits(flags: np.ndarray) -> np.ndarray:
    """LSB-first u1 bitmap of a boolean array (a validity buffer)."""
    return np.packbits(flags, bitorder="little")


def unpack_bits(bits: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of ``pack_bits``: the first ``rows`` bits, as booleans."""
    return np.unpackbits(bits, count=rows, bitorder="little").astype(bool)


def varchar_offsets(lengths) -> np.ndarray:
    """The u4 offsets of values with these byte lengths: rows+1 entries from 0."""
    return np.concatenate(([0], np.cumsum(lengths))).astype(OFFSETS_DTYPE)


def visibility_words(current: np.ndarray) -> bytes:
    """A visibility bitmap as stored: LSB-first bits zero-padded to whole u64 words."""
    bits = pack_bits(current).tobytes()
    return bits + bytes(-len(bits) % 8)


def visibility_bits(raw, rows: int) -> np.ndarray:
    """Inverse of ``visibility_words``; a wrong length raises ``CorruptDescriptor``."""
    return unpack_bits(_array(raw, "<u8", -(-rows // 64), "visibility bitmap").view(np.uint8),
                       rows)


def _encode(specs, vids: np.ndarray, column) -> dict:
    """One buffer set: values, then offsets (varchar, only when there are
    rows), then validity (nullable) per column, after the identity column.

    ``column(spec)`` gives one column's ``(values, present)``, a column at a
    time; varchar values are ``(payload bytes, byte lengths)``, and
    ``present`` is unused for a column that is not nullable.
    """
    out = {(VID_COLUMN, KIND_VALUES): vids.astype(VID_DTYPE).tobytes()}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        values, present = column(spec)
        if spec.ftype.code == TC_VARCHAR:
            payload, lengths = values
            out[(name, KIND_VALUES)] = bytes(payload)
            if len(vids):
                out[(name, KIND_OFFSETS)] = varchar_offsets(lengths).tobytes()
        else:
            out[(name, KIND_VALUES)] = values.astype(f"<i{spec.ftype.width}").tobytes()
        if spec.nullable:
            out[(name, KIND_VALIDITY)] = pack_bits(present).tobytes()
    return out


def column_buffers(column_set: ColumnSet) -> dict:
    """Encode a column set into device buffers, {(name, kind): bytes}; the
    inverse of ``assemble`` over one segment."""
    def column(spec):
        col = column_set.data[spec.name]
        if spec.ftype.code == TC_VARCHAR:
            encoded = [s.encode("utf-8") for s in col]
            col = b"".join(encoded), [len(e) for e in encoded]
        return col, column_set.validity[spec.name]

    return _encode(column_set.specs, column_set.vids, column)


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


def _sliced_values(payload: bytes, ends: np.ndarray, what: str) -> list:
    """Every value of a varchar column, each one slice of the decoded
    payload.  ``decode_varchar`` takes this path for a payload that holds a
    NUL byte, which its split would take for a separator, and for a column
    that fails its one decode, whose fault the checks here name."""
    text = _utf8(payload, what)
    chars = _char_offsets(payload, text, ends, what).tolist()
    return [text[a:b] for a, b in zip(chars[:-1], chars[1:])]


def decode_varchar(payload: bytes, offsets: np.ndarray, what: str, keep=None) -> list:
    """The values of one varchar column: u4 ``offsets`` (rows+1 of them) over
    a UTF-8 ``payload``; only the rows ``keep`` marks, when it is given.

    The whole column is checked, dropped rows included: the offsets start
    at 0, never decrease, end at the payload's length and fall on character
    boundaries, and the payload is UTF-8; else ``CorruptDescriptor``.  Every
    row is decoded at once: the payload is copied with a NUL byte between
    values, decoded as strict UTF-8 and split at the NULs.  Each value is
    valid UTF-8 on its own exactly when the payload is and no offset splits
    a character, so a column that fails that decode is checked again value
    by value, which names the fault; one whose payload holds a NUL is
    sliced value by value (``_sliced_values``).
    """
    ends = _byte_offsets(payload, offsets, what)
    rows = len(ends) - 1
    if not rows:
        return []
    if b"\x00" in payload:
        values = _sliced_values(payload, ends, what)
    else:
        separated = np.zeros(len(payload) + rows - 1, dtype=np.uint8)
        value_byte = np.ones(len(separated), dtype=bool)
        value_byte[ends[1:-1] + np.arange(rows - 1)] = False      # the NULs
        separated[value_byte] = np.frombuffer(payload, dtype=np.uint8)
        try:
            values = str(separated, "utf-8").split("\x00")
        except UnicodeDecodeError:
            values = _sliced_values(payload, ends, what)
    if keep is None or keep.all():
        return values
    return list(compress(values, keep.tolist()))


def _check_varchar(payload: bytes, offsets: np.ndarray, what: str) -> np.ndarray:
    """Check one varchar column as ``decode_varchar`` does and return its
    offsets as int64; an ASCII payload is checked without building a str."""
    ends = _byte_offsets(payload, offsets, what)
    if not payload.isascii():
        _char_offsets(payload, _utf8(payload, what), ends, what)
    return ends


def _array(raw, dtype, count: int, what: str) -> np.ndarray:
    """``raw`` viewed as ``count`` values of ``dtype``; any other byte length
    raises ``CorruptDescriptor``."""
    width = np.dtype(dtype).itemsize
    if len(raw) != count * width:
        raise CorruptDescriptor(f"{what}: {len(raw)} bytes for {count} entries of {width}")
    return np.frombuffer(raw, dtype=dtype)


def _split_segment(specs, buffers: dict, rows: int):
    """Check the buffer sizes of one segment (raw buffers for a run of rows)
    and view its columns as arrays, decoding no value.

    Returns ``(vids, data, validity)``; ``data`` maps a fixed-width column
    to its values array and a varchar column to ``(payload, offsets)``,
    whose content ``decode_varchar`` or ``_check_varchar`` checks.
    """
    def buffer(name, kind, dtype, count):
        return _array(buffers.get((name, kind), b""), dtype, count, f"{name} {kind}")

    vids = buffer(VID_COLUMN, KIND_VALUES, VID_DTYPE, rows)
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            offsets = buffer(name, KIND_OFFSETS, OFFSETS_DTYPE, rows + 1 if rows else 0)
            data[name] = (bytes(buffers.get((name, KIND_VALUES), b"")),
                          offsets if rows else varchar_offsets([]))    # none stored for no rows
        else:
            data[name] = buffer(name, KIND_VALUES, f"<i{spec.ftype.width}", rows)
        validity[name] = (unpack_bits(buffer(name, KIND_VALIDITY, VALIDITY_DTYPE,
                                             (rows + 7) // 8), rows)
                          if spec.nullable else None)
    return vids, data, validity


def segment_masks(segments, keep) -> list:
    """Each segment's slice of the keep mask (None throughout when ``keep``
    is None); a mask of another length than the positions is a
    ``LengthMismatch``."""
    bounds = np.cumsum([0] + [rows for rows, _ in segments]).tolist()
    if keep is None:
        return [None] * len(segments)
    if len(keep) != bounds[-1]:
        raise LengthMismatch(f"keep mask has {len(keep)} entries for {bounds[-1]} positions")
    return [keep[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _joined(arrays) -> np.ndarray:
    """One array per segment, concatenated; a lone array is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class DecodedSegment(NamedTuple):
    """One segment as ``decode_segment`` leaves it for ``join_segments``:
    the fixed-width, identity and validity columns viewed whole, the
    strings of the kept rows, and the keep mask (None: every row)."""

    vids: np.ndarray
    data: dict                    # name -> values array, or [str] of the kept rows
    validity: dict                # name -> bool array | None
    keep: Optional[np.ndarray]


def decode_segment(specs, rows: int, buffers: dict, keep=None, strings=None) -> DecodedSegment:
    """Check one segment's buffers and decode the strings of the rows
    ``keep`` marks (all when None).

    Every buffer length and every position is checked, and strings are built
    for kept rows only.  ``strings`` maps a varchar column to its kept
    values when the caller holds them already, decoded from byte-equal
    buffers under the same checks; such a column is not decoded again.
    """
    strings = strings or {}
    vids, data, validity = _split_segment(specs, buffers, rows)
    for spec in specs:
        name = spec.name
        if spec.ftype.code == TC_VARCHAR:
            data[name] = (strings[name] if name in strings
                          else decode_varchar(*data[name], name, keep))
    return DecodedSegment(vids, data, validity, keep)


def join_segments(specs, parts) -> ColumnSet:
    """The kept rows of decoded segments, concatenated in order (none reads
    as one empty segment); either every segment has a mask or none has.
    Without masks a lone segment's arrays are not copied; every string list
    is a new one."""
    parts = parts or [decode_segment(specs, 0, {})]
    vids, data, validity, keeps = zip(*parts)
    take = slice(None) if keeps[0] is None else _joined(keeps)
    columns: dict = {}
    valid: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        column = tuple(map(itemgetter(name), data))
        columns[name] = (list(chain.from_iterable(column)) if spec.ftype.code == TC_VARCHAR
                         else _joined(column)[take])
        valid[name] = (_joined(tuple(map(itemgetter(name), validity)))[take]
                       if spec.nullable else None)
    vids = _joined(vids)[take]
    return ColumnSet(specs, vids, columns, valid, len(vids))


def assemble(specs, segments, keep=None) -> ColumnSet:
    """Concatenate decoded segments (list of (rows, buffers)) in order,
    keeping the positions ``keep`` marks (all when None): ``decode_segment``
    of each, then ``join_segments``.

    Every position is checked; strings are built for kept positions only.
    """
    masks = segment_masks(segments, keep)
    return join_segments(specs, [decode_segment(specs, rows, buffers, mask)
                                 for (rows, buffers), mask in zip(segments, masks)])


def gather_buffers(specs, segments, keep=None) -> dict:
    """``column_buffers(assemble(specs, segments, keep))``, moved byte for
    byte out of the segment buffers: the kept values, offsets, payload bytes
    and validity bits are gathered with numpy and no string is built.

    Every position is checked as ``assemble`` checks it.
    """
    segment_masks(segments, keep)                # checks the mask's length
    parts = [_split_segment(specs, buffers, rows) for rows, buffers in segments or [(0, {})]]
    take = slice(None) if keep is None else keep

    def joined(arrays):
        return _joined(arrays)[take]

    def column(spec):
        name = spec.name
        if spec.ftype.code == TC_VARCHAR:
            cols = [p[1][name] for p in parts]
            lengths = np.concatenate([np.diff(_check_varchar(payload, offsets, name))
                                      for payload, offsets in cols])
            payload = b"".join(payload for payload, _ in cols)
            if keep is not None:
                payload = np.frombuffer(payload, dtype=np.uint8)[np.repeat(keep, lengths)]
                lengths = lengths[keep]
            values = payload, lengths
        else:
            values = joined([p[1][name] for p in parts])
        return values, joined([p[2][name] for p in parts]) if spec.nullable else None

    return _encode(specs, joined([p[0] for p in parts]), column)


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
