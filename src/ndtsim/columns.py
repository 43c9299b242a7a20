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

One reader, ``read_joined``, serves device segments, streams and NDTC
files.  It takes segments with each (column, kind) of all of them joined
into one buffer (``JoinedSegments``) and works a column at a time: one
length check per buffer kind over every segment, each fixed-width column
one view and one take of the keep mask, each validity bitmap unpacked
once, and each varchar column's offsets checked (from 0, never
decreasing, ending at the payload's length) and rebased over the joined
payload at once.  Its strings are decoded in one ``decode_varchar``, one
UTF-8 decode of the payload with a NUL between values and one split at
the NULs, which also checks the payload and the character boundaries;
strings a caller holds for leading positions are not decoded again.
When a check over the joined buffers fails, each segment is checked alone
(``_check_segment``) and the first faulty one raises, so the error is
the one a segment-by-segment reader names.  ``assemble`` is that reader
over a list of ``(rows, buffers)``, and ``gather_buffers`` moves kept
values, offsets, payload bytes and validity bits between buffer sets
without building a string, for compaction and export, under the same
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal as PyDecimal
from itertools import chain, compress
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


def buffer_keys(specs) -> list:
    """The (name, kind) of every buffer a column set of ``specs`` has, in
    the order ``_encode`` writes them."""
    keys = [(VID_COLUMN, KIND_VALUES)]
    for spec in specs:
        if spec.name == VID_COLUMN:
            continue
        keys.append((spec.name, KIND_VALUES))
        if spec.ftype.code == TC_VARCHAR:
            keys.append((spec.name, KIND_OFFSETS))
        if spec.nullable:
            keys.append((spec.name, KIND_VALIDITY))
    return keys


class JoinedSegments(NamedTuple):
    """Consecutive segments' buffers with each (column, kind) of all of them
    joined into one buffer, as ``read_joined`` and ``gather_buffers`` take
    them.  A segment without a buffer holds none of its bytes."""

    rows: np.ndarray              # int64, the rows of each segment
    buffers: dict                 # (name, kind) -> bytes-like, every segment's buffer in order
    sizes: dict                   # (name, kind) -> int64 array, each segment's bytes in it

    @classmethod
    def of(cls, segments) -> "JoinedSegments":
        """``segments``, each ``(rows, buffers)``, joined; a lone segment's
        buffers are not copied."""
        rows = np.array([rows for rows, _ in segments], dtype=np.int64)
        keys = dict.fromkeys(chain.from_iterable(buffers for _, buffers in segments))
        parts = {key: [buffers.get(key, b"") for _, buffers in segments] for key in keys}
        return cls(rows, {key: part[0] if len(part) == 1 else b"".join(part)
                          for key, part in parts.items()},
                   {key: np.array(list(map(len, part)), dtype=np.int64)
                    for key, part in parts.items()})

    def segment(self, s: int) -> dict:
        """Segment ``s``'s own buffers, sliced out of the joined ones."""
        out = {}
        for key, raw in self.buffers.items():
            sizes = self.sizes[key]
            lo = int(sizes[:s].sum())
            out[key] = bytes(raw[lo:lo + int(sizes[s])])
        return out


def _buffer_counts(specs, rows) -> list:
    """The key, element type and entry count of each buffer whose length the
    reader checks, in its order, for ``rows``: one segment's (an int) or
    each segment's (an array).  A varchar column stores no offsets for no
    rows, and its payload's length is checked by its offsets."""
    counts = [((VID_COLUMN, KIND_VALUES), VID_DTYPE, rows)]
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            counts.append(((name, KIND_OFFSETS), OFFSETS_DTYPE, (rows + 1) * (rows != 0)))
        else:
            counts.append(((name, KIND_VALUES), np.dtype(f"<i{spec.ftype.width}"), rows))
        if spec.nullable:
            counts.append(((name, KIND_VALIDITY), VALIDITY_DTYPE, (rows + 7) // 8))
    return counts


def _check_segment(specs, rows: int, buffers: dict):
    """Check one segment's buffers alone, in the reader's order: every
    buffer's length, then each varchar column's offsets and UTF-8."""
    for (name, kind), dtype, count in _buffer_counts(specs, rows):
        _array(buffers.get((name, kind), b""), dtype, count, f"{name} {kind}")
    for spec in specs:
        if spec.ftype.code == TC_VARCHAR:
            offsets = buffers.get((spec.name, KIND_OFFSETS), b"")
            _check_varchar(bytes(buffers.get((spec.name, KIND_VALUES), b"")),
                           np.frombuffer(offsets, dtype=OFFSETS_DTYPE) if rows
                           else varchar_offsets([]), spec.name)


def _name_fault(specs, segs: JoinedSegments):
    """Raise the fault of the first faulty segment, each checked alone
    (``_check_segment``), once a check over the joined buffers failed."""
    for s, rows in enumerate(segs.rows.tolist()):
        _check_segment(specs, rows, segs.segment(s))
    raise CorruptDescriptor("the joined segments fail a check that no segment fails alone")


def _sizes_fit(specs, segs: JoinedSegments) -> bool:
    """Whether every segment's buffers have the lengths its rows need;
    ``_check_segment`` names the first that does not."""
    missing = np.zeros(len(segs.rows), dtype=np.int64)
    for key, dtype, count in _buffer_counts(specs, segs.rows):
        if not np.array_equal(segs.sizes.get(key, missing), count * dtype.itemsize):
            return False
    return True


def _bounds(segs: JoinedSegments, name: str):
    """Varchar column ``name``'s value bounds in its joined payload (rows+1,
    int64), each segment's u4 offsets rebased by the payload bytes of the
    segments before it; None when a segment's offsets do not start at 0,
    end at its payload's length and never decrease."""
    rows = segs.rows
    sizes = segs.sizes.get((name, KIND_VALUES), np.zeros(len(rows), dtype=np.int64))
    ends = np.frombuffer(segs.buffers.get((name, KIND_OFFSETS), b""),
                         dtype=OFFSETS_DTYPE).astype(np.int64)
    held = rows > 0
    counts = np.where(held, rows + 1, 0)
    last = np.cumsum(counts)[held] - 1             # each segment's closing offset
    first = last - rows[held]
    steps = np.diff(ends)
    steps[last[:-1]] = 0                           # from one segment's end to the next's start
    if sizes[~held].any() or ends[first].any() or (ends[last] != sizes[held]).any() \
            or (steps < 0).any():
        return None
    ends += np.repeat((np.cumsum(sizes) - sizes)[held], rows[held] + 1)
    opening = np.ones(len(ends), dtype=bool)
    opening[last] = False
    return np.append(ends[opening], sizes.sum())


def _validity(segs: JoinedSegments, name: str, take) -> np.ndarray:
    """Column ``name``'s validity at the positions ``take`` (a slice or a
    mask): the bits of every segment's bitmap, unpacked at once, less the
    padding that ends each one on a whole byte."""
    key = (name, KIND_VALIDITY)
    bits = np.unpackbits(np.frombuffer(segs.buffers.get(key, b""), dtype=VALIDITY_DTYPE),
                         bitorder="little").view(bool)
    rows = segs.rows
    if len(rows) == 1:
        return bits[:rows[0]][take]
    ends = 8 * np.cumsum(segs.sizes.get(key, np.zeros(len(rows), dtype=np.int64)))
    pad = np.diff(ends, prepend=0) - rows
    real = np.ones(len(bits), dtype=bool)
    real[np.repeat(ends - np.cumsum(pad), pad) + np.arange(int(pad.sum()))] = False
    return bits[real][take]


def _view(specs, segs: JoinedSegments, take):
    """Check every segment's buffer lengths and varchar offsets, and view
    the positions ``take`` (a slice or a mask) of each column,
    decoding no value; a fault raises as ``_name_fault`` names it.

    Returns ``(vids, data, validity)``; ``data`` maps a fixed-width column
    to its values and a varchar column to its joined payload and every
    position's value bounds (``_bounds``), whose UTF-8 is left unchecked.
    """
    if not _sizes_fit(specs, segs):
        _name_fault(specs, segs)
    vids = np.frombuffer(segs.buffers.get((VID_COLUMN, KIND_VALUES), b""), dtype=VID_DTYPE)
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            bounds = _bounds(segs, name)
            if bounds is None:
                _name_fault(specs, segs)
            data[name] = (segs.buffers.get((name, KIND_VALUES), b""), bounds)
        else:
            data[name] = np.frombuffer(segs.buffers.get((name, KIND_VALUES), b""),
                                       dtype=f"<i{spec.ftype.width}")[take]
        validity[name] = _validity(segs, name, take) if spec.nullable else None
    return vids[take], data, validity


def _checked_keep(segs: JoinedSegments, keep):
    """``keep``, or a slice of every position when it is None; a mask of
    another length than the positions is a ``LengthMismatch``."""
    if keep is None:
        return slice(None)
    total = int(segs.rows.sum())
    if len(keep) != total:
        raise LengthMismatch(f"keep mask has {len(keep)} entries for {total} positions")
    return keep


def _strings(specs, segs: JoinedSegments, name: str, payload, bounds, keep, done: int,
             pieces) -> list:
    """The strings of varchar column ``name`` at the positions ``keep``
    marks (all when None): those ``pieces`` hold, the strings of the first
    ``done`` positions in order, then the rest decoded in one
    ``decode_varchar``, which checks their UTF-8."""
    values = []
    if done < len(bounds) - 1:
        lo = int(bounds[done])
        try:
            values = decode_varchar(bytes(payload[lo:]), bounds[done:] - lo, name,
                                    None if keep is None else keep[done:])
        except CorruptDescriptor:
            _name_fault(specs, segs)
            raise
        if not done:
            return values
    strings = []
    for piece in pieces:
        strings.extend(piece)
    strings.extend(values)
    return strings


def read_joined(specs, segs: JoinedSegments, keep=None, known=None) -> ColumnSet:
    """The positions ``keep`` marks (all when None) of joined segments, as a
    column set.

    Every buffer's length and every varchar offset of every segment is
    checked; a fault raises as the first faulty segment alone raises it.
    Each fixed-width column is one view of its joined buffer and one take
    of the kept positions, and each validity bitmap is unpacked once.
    ``known`` is ``(count, {name: pieces})``: the strings of the kept rows
    among the first ``count`` positions, in pieces whose strings follow
    one another, decoded earlier from byte-equal buffers under the same
    checks; the other rows' strings are decoded in one ``decode_varchar``
    per column, which checks their UTF-8.
    """
    vids, data, validity = _view(specs, segs, _checked_keep(segs, keep))
    done, strings = known or (0, {})
    for spec in specs:
        if spec.ftype.code == TC_VARCHAR:
            data[spec.name] = _strings(specs, segs, spec.name, *data[spec.name], keep, done,
                                       strings.get(spec.name, ()))
    return ColumnSet(specs, vids, data, validity, len(vids))


def assemble(specs, segments, keep=None) -> ColumnSet:
    """The segments (a list of ``(rows, buffers)``) in order, keeping the
    positions ``keep`` marks (all when None): ``read_joined`` of them joined.

    Every position is checked; strings are built for kept positions only.
    """
    return read_joined(specs, JoinedSegments.of(segments), keep)


def gather_buffers(specs, segs: JoinedSegments, keep=None) -> dict:
    """``column_buffers(read_joined(specs, segs, keep))``, moved byte for byte
    out of the joined buffers: the kept values, offsets, payload bytes and
    validity bits are gathered with numpy and no string is built.

    Every position is checked as ``read_joined`` checks it.
    """
    vids, data, validity = _view(specs, segs, _checked_keep(segs, keep))

    def column(spec):
        name = spec.name
        if spec.ftype.code == TC_VARCHAR:
            payload, bounds = data[name]
            payload = bytes(payload)
            try:
                _check_varchar(payload, bounds, name)
            except CorruptDescriptor:
                _name_fault(specs, segs)
                raise
            lengths = np.diff(bounds)
            if keep is not None:
                payload = np.frombuffer(payload, dtype=np.uint8)[np.repeat(keep, lengths)]
                lengths = lengths[keep]
            return (payload, lengths), validity[name]
        return data[name], validity[name]

    return _encode(specs, vids, column)


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
