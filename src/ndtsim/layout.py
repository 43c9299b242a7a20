"""Row-store (NSM) binary layout: field types, record codec, slotted pages.

Everything the device has to parse in-situ is defined here, byte for byte,
so host and device sides share one source of truth.

Record wire format (little-endian throughout):

    header:
        0   vid        u64
        8   create_ts  u64
        16  pred       u64   packed RecordID of the predecessor, NONE if absent
        24  flags      u8    bit 0 = tombstone
        25  null bitmap       ceil(n_attrs/8) bytes, LSB-first, 1 = NULL
    fixed-width fields, schema order, NULL fields omitted,
        each aligned (relative to record start) to its natural alignment
    variable-length fields, schema order, NULL fields omitted,
        each a u16 byte length followed by the raw payload

Tombstone records are header-only.  ``encode_records`` serializes a batch
of records, and ``encode_record`` is its one-record case.

``record_field_slices`` locates the fields of one record.  Its batch form,
``locate_fields``, locates them for many records packed into one buffer:
fixed-field offsets depend only on the null mask, so they are computed
once per distinct mask and taken by each record's mask; varlen positions
follow from the u16 length prefixes, one varlen attribute after another.
Both make the same bounds checks and raise the same ``CorruptRecord``.

``gather_words`` is the one strided gather of the device path: it reads
one little-endian word (an integer, or a void word of a given size) at
each of many byte positions of a buffer.  The device's batch accessors,
the batch locator and the transform read every header word, record
window and field word through it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from decimal import Decimal as PyDecimal
from itertools import repeat
from operator import attrgetter
from types import NoneType
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    ArityMismatch,
    CorruptRecord,
    NullNotAllowed,
    PageFull,
    RecordTooLarge,
    SlotOutOfRange,
    TypeMismatch,
    VarCharTooLong,
)

PAGE_SIZE = 8192
PAGE_HEADER_SIZE = 12          # page_lid u64, slot_count u16, free_offset u16
SLOT_COUNT_OFFSET = 8          # slot_count, then free_offset, in the page header
SLOT_ENTRY_SIZE = 4            # offset u16, length u16
CREATE_TS_OFFSET = 8           # record header fields after the vid
PRED_OFFSET = 16
FLAGS_OFFSET = 24
RECORD_HEADER_FIXED = FLAGS_OFFSET + 1     # vid + create_ts + pred + flags
MAX_RECORD_SIZE = PAGE_SIZE - PAGE_HEADER_SIZE - SLOT_ENTRY_SIZE

# Seconds from 1970-01-01T00:00:00Z to 2000-01-01T00:00:00Z.
POSTGRES_EPOCH_OFFSET_SECONDS = 946_684_800

MICROS_PER_SECOND = 1_000_000

# Type codes; also used as on-disk type tags by the columnar file format.
TC_INT32 = 0
TC_INT64 = 1
TC_DECIMAL = 2
TC_TIMESTAMP = 3
TC_VARCHAR = 4


class FieldType:
    """Base for declared attribute types."""

    code: int
    width: Optional[int]       # fixed byte width, None for varlen
    alignment: int

    @property
    def is_varlen(self) -> bool:
        return self.width is None


@dataclass(frozen=True)
class Int32(FieldType):
    code: int = field(default=TC_INT32, init=False)
    width: int = field(default=4, init=False)
    alignment: int = field(default=4, init=False)


@dataclass(frozen=True)
class Int64(FieldType):
    code: int = field(default=TC_INT64, init=False)
    width: int = field(default=8, init=False)
    alignment: int = field(default=8, init=False)


@dataclass(frozen=True)
class Decimal(FieldType):
    """Exact decimal stored as a 64-bit integer scaled by 10**scale."""

    precision: int
    scale: int
    code: int = field(default=TC_DECIMAL, init=False)
    width: int = field(default=8, init=False)
    alignment: int = field(default=8, init=False)

    def __post_init__(self):
        if not (1 <= self.precision <= 18):
            raise ValueError(f"decimal precision must be in [1,18], got {self.precision}")
        if not (0 <= self.scale <= self.precision):
            raise ValueError(f"decimal scale must be in [0,precision], got {self.scale}")


@dataclass(frozen=True)
class TimestampPg(FieldType):
    """Microseconds since 2000-01-01T00:00:00Z, signed."""

    code: int = field(default=TC_TIMESTAMP, init=False)
    width: int = field(default=8, init=False)
    alignment: int = field(default=8, init=False)


@dataclass(frozen=True)
class VarChar(FieldType):
    max_len: int
    code: int = field(default=TC_VARCHAR, init=False)
    width: Optional[int] = field(default=None, init=False)
    alignment: int = field(default=1, init=False)

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError(f"varchar max_len must be >= 1, got {self.max_len}")


class Attribute(NamedTuple):
    name: str
    ftype: FieldType
    nullable: bool


class Schema:
    """Ordered attribute list plus the precomputed record layout plan."""

    def __init__(self, table_name: str, attributes: Sequence[tuple]):
        if not attributes:
            raise ValueError("schema needs at least one attribute")
        attrs = tuple(Attribute(*a) for a in attributes)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema {table_name!r}")
        self.table_name = table_name
        self.attributes = attrs
        self.n_attrs = len(attrs)
        self.null_bitmap_bytes = (self.n_attrs + 7) // 8
        self.header_size = RECORD_HEADER_FIXED + self.null_bitmap_bytes
        self.index_of = {a.name: i for i, a in enumerate(attrs)}
        # (attr_index, width, alignment, type_code) for fixed-width attrs
        self.fixed_plan = tuple(
            (i, a.ftype.width, a.ftype.alignment, a.ftype.code)
            for i, a in enumerate(attrs)
            if not a.ftype.is_varlen
        )
        self.varlen_plan = tuple(i for i, a in enumerate(attrs) if a.ftype.is_varlen)
        # no record of the schema is longer, whatever its NULLs and padding
        self.max_record_bytes = self.header_size + sum(
            a.ftype.width + a.ftype.alignment - 1 if a.ftype.width else 2 + a.ftype.max_len
            for a in attrs)
        self.record_packers: dict = {}     # row value types -> packer, see encode_records

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index_of[name]]

    def fixed_offsets(self, null_mask: int):
        """Offsets (from the record start) of the fixed fields present under
        ``null_mask``, as ((attr index, offset), ...), and where they end."""
        offsets, pos = [], self.header_size
        for i, width, alignment, _code in self.fixed_plan:
            if not null_mask >> i & 1:
                pos = _align_up(pos, alignment)
                offsets.append((i, pos))
                pos += width
        return offsets, pos

    def __repr__(self):
        return f"Schema({self.table_name!r}, {self.n_attrs} attrs)"


class RecordID(NamedTuple):
    page_lid: int
    slot: int


RID_NONE = 0xFFFF_FFFF_FFFF_FFFF


def pack_rid(rid: Optional[RecordID]) -> int:
    if rid is None:
        return RID_NONE
    return (rid.page_lid << 16) | rid.slot


def unpack_rid(packed: int) -> Optional[RecordID]:
    if packed == RID_NONE:
        return None
    return RecordID(packed >> 16, packed & 0xFFFF)


@dataclass
class RecordHeader:
    vid: int
    create_ts: int
    pred: Optional[RecordID] = None
    tombstone: bool = False

    @property
    def flags(self) -> int:
        return 1 if self.tombstone else 0


Value = Union[int, str, PyDecimal, None]

_HDR = struct.Struct("<QQQB")
_U16 = struct.Struct("<H")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_SLOT = struct.Struct("<HH")


def _align_up(off: int, alignment: int) -> int:
    return (off + alignment - 1) & ~(alignment - 1)


def decimal_to_scaled(value, ftype: Decimal) -> int:
    """Convert a decimal value to its scaled-integer representation, exactly."""
    if isinstance(value, PyDecimal):
        if not value.is_finite():
            raise TypeMismatch(f"{value} is not a finite number")
        scaled = value.scaleb(ftype.scale)
    elif isinstance(value, int) and not isinstance(value, bool):
        scaled = value * 10 ** ftype.scale
    else:
        raise TypeMismatch(f"expected Decimal or int, got {type(value).__name__}")
    n = int(scaled)
    if n != scaled:
        raise TypeMismatch(f"{value} has more than {ftype.scale} fraction digits")
    if abs(n) >= 10 ** ftype.precision:
        raise TypeMismatch(f"{value} exceeds precision {ftype.precision}")
    return n


def scaled_to_decimal(scaled: int, ftype: Decimal) -> PyDecimal:
    return PyDecimal(scaled).scaleb(-ftype.scale)


def _null_mask(schema: Schema, signature: tuple) -> int:
    """The null mask of a live record whose values have the types ``signature``.

    Raises ``ArityMismatch`` for a signature of the wrong length,
    ``NullNotAllowed`` for a NULL in a non-nullable attribute and
    ``TypeMismatch`` for a value of a type its attribute cannot hold.
    """
    if len(signature) != schema.n_attrs:
        raise ArityMismatch(f"schema has {schema.n_attrs} attributes, got {len(signature)} values")
    mask = 0
    for i, (attr, kind) in enumerate(zip(schema.attributes, signature)):
        if kind is NoneType:
            if not attr.nullable:
                raise NullNotAllowed(f"attribute {attr.name!r} is not nullable")
            mask |= 1 << i
        elif attr.ftype.code == TC_VARCHAR:
            if not issubclass(kind, str):
                raise TypeMismatch(f"attribute {attr.name!r} expects str")
        elif issubclass(kind, bool) or not (issubclass(kind, int) or (
                attr.ftype.code == TC_DECIMAL and issubclass(kind, PyDecimal))):
            raise TypeMismatch(f"attribute {attr.name!r} cannot hold a {kind.__name__}")
    return mask


def _framed_varchars(values, attr: Attribute) -> list:
    """Each value's UTF-8 bytes after their u16 length."""
    try:
        framed = [_U16.pack(len(payload)) + payload for payload in map(str.encode, values)]
    except UnicodeEncodeError as exc:
        raise TypeMismatch(f"attribute {attr.name!r}: {exc.reason}") from None
    except struct.error:             # a length the u16 cannot hold
        error = VarCharTooLong if attr.ftype.max_len <= 0xFFFF else RecordTooLarge
        raise error(f"{attr.name!r}: a value of more than 0xFFFF bytes") from None
    longest = max(map(len, framed)) - 2
    if longest > attr.ftype.max_len:
        raise VarCharTooLong(f"{attr.name!r}: {longest} bytes > max_len {attr.ftype.max_len}")
    return framed


_TOMBSTONE = attrgetter("tombstone")
_HEADER_WORDS = attrgetter("vid", "create_ts", "pred")


def encode_records(schema: Schema, headers: Sequence[RecordHeader], rows: Sequence) -> list:
    """Serialize one version record per header; returns their bytes, in order.

    ``rows[k]`` holds record k's values, None for a tombstone, which is
    its header alone.  The live rows are grouped by signature, the types
    of their values, so every row of a group has the same null mask.  A
    signature is checked once (arity, NULLs, types) and gets one
    ``struct.Struct`` that packs the header and the fixed fields with their
    alignment padding.  Each group is then checked a column at a time
    (decimal digits, varchar lengths; int ranges by the packing itself),
    packed, and its varlen fields appended.
    """
    if len(headers) != len(rows):
        raise ArityMismatch(f"{len(headers)} record headers for {len(rows)} rows")
    records = [None] * len(headers)
    live = range(len(headers))
    if any(map(_TOMBSTONE, headers)):
        live = []
        for k, (header, values) in enumerate(zip(headers, rows)):
            if not header.tombstone:
                live.append(k)
            elif values:
                raise TypeMismatch("tombstone records carry no field payload")
            else:
                records[k] = _HDR.pack(header.vid, header.create_ts, pack_rid(header.pred),
                                       header.flags) + bytes(schema.null_bitmap_bytes)
        if not live:
            return records
        headers, rows = list(map(headers.__getitem__, live)), list(map(rows.__getitem__, live))
    try:
        signatures = [tuple(map(type, row)) for row in rows]
    except TypeError:
        raise ArityMismatch(f"schema has {schema.n_attrs} attributes, a row has none") from None

    groups = dict.fromkeys(signatures)
    if len(groups) > 1:
        for signature in groups:
            groups[signature] = []
        for at, signature in enumerate(signatures):
            groups[signature].append(at)

    for signature, at in groups.items():
        packer = schema.record_packers.get(signature)
        if packer is None:
            mask = _null_mask(schema, signature)
            # vid, create_ts, pred, flags 0 and the null bitmap, then the fixed fields
            fmt, pos = f"<QQQx{schema.null_bitmap_bytes}s", schema.header_size
            offsets, _end = schema.fixed_offsets(mask)
            for i, offset in offsets:
                ftype = schema.attributes[i].ftype
                fmt += "x" * (offset - pos) + ("i" if ftype.code == TC_INT32 else "q")
                pos = offset + ftype.width
            packer = schema.record_packers[signature] = (
                struct.Struct(fmt).pack, mask.to_bytes(schema.null_bitmap_bytes, "little"),
                [i for i, _offset in offsets],
                [(i, schema.attributes[i].ftype) for i, _offset in offsets
                 if schema.attributes[i].ftype.code == TC_DECIMAL],
                [i for i in schema.varlen_plan if not mask >> i & 1])
        pack, bitmap, fixed, decimals, varlens = packer
        if at is None:                                  # one group: every live row
            at, group, group_headers = range(len(rows)), rows, headers
        else:
            group = list(map(rows.__getitem__, at))
            group_headers = list(map(headers.__getitem__, at))
        columns = list(zip(*group))
        for i, ftype in decimals:
            columns[i] = list(map(decimal_to_scaled, columns[i], repeat(ftype)))
        for i in varlens:
            columns[i] = _framed_varchars(columns[i], schema.attributes[i])
        vids, create_ts, preds = zip(*map(_HEADER_WORDS, group_headers))
        try:
            packed = list(map(pack, vids, create_ts, map(pack_rid, preds), repeat(bitmap),
                              *[columns[i] for i in fixed]))
        except struct.error as exc:
            raise TypeMismatch(f"a value out of its field's range ({exc})") from None
        for i in varlens:
            packed = list(map(bytes.__add__, packed, columns[i]))
        if len(packed) == len(records):
            records = packed
        else:
            for k, record in zip(map(live.__getitem__, at), packed):
                records[k] = record
    if schema.max_record_bytes > MAX_RECORD_SIZE:
        longest = max(map(len, records))
        if longest > MAX_RECORD_SIZE:
            raise RecordTooLarge(f"record of {longest} bytes exceeds {MAX_RECORD_SIZE}")
    return records


def encode_record(schema: Schema, header: RecordHeader, values: Optional[Sequence[Value]]) -> bytes:
    """Serialize one version record: the one-record case of ``encode_records``."""
    return encode_records(schema, [header], [values])[0]


def decode_header(buf, offset: int = 0) -> RecordHeader:
    """Parse the fixed header prefix at ``offset`` (no bitmap length check)."""
    vid, create_ts, pred, flags = _HDR.unpack_from(buf, offset)
    return RecordHeader(vid, create_ts, unpack_rid(pred), bool(flags & 1))


def _null_mask_at(schema: Schema, buf, offset: int) -> int:
    end = offset + schema.header_size
    if end > len(buf):
        raise CorruptRecord("record shorter than its header")
    return int.from_bytes(buf[offset + RECORD_HEADER_FIXED:end], "little")


def record_field_slices(schema: Schema, buf, offset: int = 0):
    """One-pass field locator: per attribute, (start, length) into ``buf``, or None.

    This is the format-parser walk the device performs: NULL fields are
    omitted from the payload, so locating attribute k requires skipping
    every present field before it.  Varlen entries point past the length
    prefix, at the payload itself.
    """
    header = decode_header(buf, offset)
    if header.tombstone:
        return [None] * schema.n_attrs, header
    null_mask = _null_mask_at(schema, buf, offset)
    slices = [None] * schema.n_attrs
    pos = offset + schema.header_size
    limit = len(buf)
    for i, width, alignment, _code in schema.fixed_plan:
        if null_mask >> i & 1:
            continue
        pos = offset + _align_up(pos - offset, alignment)
        if pos + width > limit:
            raise CorruptRecord(f"fixed field {i} runs past record end")
        slices[i] = (pos, width)
        pos += width
    for i in schema.varlen_plan:
        if null_mask >> i & 1:
            continue
        if pos + 2 > limit:
            raise CorruptRecord(f"varlen field {i} length prefix past record end")
        (length,) = _U16.unpack_from(buf, pos)
        pos += 2
        if pos + length > limit:
            raise CorruptRecord(f"varlen field {i} payload past record end")
        slices[i] = (pos, length)
        pos += length
    return slices, header


class FieldLocations(NamedTuple):
    """Batch form of ``record_field_slices``: one row per record, one column
    per attribute; NULL fields are absent with start and length 0."""

    present: np.ndarray         # bool
    start: np.ndarray           # int64 offset into the buffer (varlen: the payload)
    length: np.ndarray          # int64 byte length


def gather_words(buf, dtype, positions: np.ndarray) -> np.ndarray:
    """The little-endian ``dtype`` words that start at byte ``positions`` of ``buf``.

    One typed strided gather: ``buf`` is viewed as one ``dtype`` word at
    every byte, and the words at ``positions`` are copied out.  ``dtype``
    may be a void type, ``np.dtype((np.void, size))``: each word is then
    the ``size`` bytes at its position, and the result's ``view(np.uint8)``
    holds them back to back.  The positions are checked by the caller;
    each must leave the word's size in bytes before the end of ``buf``.
    The strided view of ``buf`` is dropped on return, so no export of
    ``buf`` outlives the gather.
    """
    size = np.dtype(dtype).itemsize
    words = np.ndarray((max(len(buf) - size + 1, 0),), dtype=dtype, buffer=buf, strides=(1,))
    return words[positions]


def range_indexes(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indexes of the ranges [starts[k], starts[k] + lengths[k]), concatenated.

    Built as the running sum of steps (+1 inside a range, a jump between
    ranges) in one array, so a gather needs no larger temporaries.
    """
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    steps = np.ones(int(lengths.sum()), dtype=np.int64)
    if len(steps):
        steps[0] = starts[0]
        steps[np.cumsum(lengths[:-1])] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
        np.cumsum(steps, out=steps)
    return steps


def _mask_groups(bitmaps: np.ndarray):
    """The distinct rows of the ``(n, bytes)`` u8 matrix ``bitmaps``, and the
    index of each row's distinct row.

    The rows are ordered by a stable argsort on one byte at a time, the
    last byte first, so a bitmap of any width is keyed on all its bytes; a
    byte that is the same in every row orders nothing and is skipped.  A
    row starts a new group where any byte differs from the row before.
    """
    varying = [column for column in bitmaps.T if column.min() != column.max()]
    order = np.arange(len(bitmaps))
    for column in reversed(varying):
        order = order[np.argsort(column[order], kind="stable")]
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for column in varying:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return bitmaps[order[first]], group


def locate_fields(schema: Schema, buf: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> FieldLocations:
    """Batch field locator: record k is ``buf[starts[k]:starts[k] + lengths[k]]``.

    Each live record's null bitmap is read as one word and each varlen
    length prefix as one ``<u2`` word, by ``gather_words``.  Records are
    grouped by null mask; a fixed field's offset depends only on the mask,
    so presence, offsets and widths are tabled once per distinct mask and
    taken for every record by its group.  The varlen fields then follow,
    one attribute at a time.  Makes every check ``record_field_slices``
    makes and raises the same ``CorruptRecord``; tombstones carry no
    fields.
    """
    n, n_attrs = len(starts), schema.n_attrs
    if n == 0:
        return FieldLocations(np.zeros((0, n_attrs), dtype=bool),
                              np.zeros((0, n_attrs), dtype=np.int64),
                              np.zeros((0, n_attrs), dtype=np.int64))
    if (lengths < RECORD_HEADER_FIXED).any():
        raise CorruptRecord("record shorter than its header")
    live = buf[starts + FLAGS_OFFSET] & 1 == 0    # bit 0: tombstone
    if (live & (lengths < schema.header_size)).any():
        raise CorruptRecord("record shorter than its header")
    # null bitmaps, all-NULL for tombstones
    bitmap_bytes = schema.null_bitmap_bytes
    rows = np.flatnonzero(live)
    bitmaps = gather_words(buf, np.dtype((np.void, bitmap_bytes)),
                           starts[rows] + RECORD_HEADER_FIXED).view(np.uint8).reshape(
        len(rows), bitmap_bytes)
    if len(rows) < n:
        bitmaps, live_bitmaps = np.full((n, bitmap_bytes), 0xFF, dtype=np.uint8), bitmaps
        bitmaps[rows] = live_bitmaps
    masks, group = _mask_groups(bitmaps)

    # per null mask: presence, fixed-field offsets (from the record start) and widths
    mask_present = np.unpackbits(masks, axis=1, bitorder="little")[:, :n_attrs] == 0
    rel = np.zeros((len(masks), n_attrs), dtype=np.int64)
    widths = np.zeros((len(masks), n_attrs), dtype=np.int64)
    fixed_end = np.empty(len(masks), dtype=np.int64)
    for g, mask in enumerate(masks):
        offsets, fixed_end[g] = schema.fixed_offsets(int.from_bytes(mask.tobytes(), "little"))
        for i, offset in offsets:
            rel[g, i] = offset
            widths[g, i] = schema.attributes[i].ftype.width
    present = mask_present.take(group, axis=0)
    pos = fixed_end[group]
    short = np.flatnonzero(live & (lengths < pos))
    if len(short):
        k = short[0]
        i = next(i for i, width, *_ in schema.fixed_plan
                 if present[k, i] and rel[group[k], i] + width > lengths[k])
        raise CorruptRecord(f"fixed field {i} runs past record end")
    length = widths.take(group, axis=0)
    start = rel.take(group, axis=0)
    start += starts[:, None]
    start *= length > 0                             # 0 where no fixed field is present

    for i in schema.varlen_plan:
        rows = np.flatnonzero(present[:, i])
        at, limit = pos[rows], lengths[rows]
        if (at + 2 > limit).any():
            raise CorruptRecord(f"varlen field {i} length prefix past record end")
        prefix = starts[rows] + at
        size = gather_words(buf, "<u2", prefix).astype(np.int64)
        end = at + 2 + size
        if (end > limit).any():
            raise CorruptRecord(f"varlen field {i} payload past record end")
        start[rows, i] = prefix + 2
        length[rows, i] = size
        pos[rows] = end
    return FieldLocations(present, start, length)


def _decode_at(schema: Schema, buf, attr_index: int, slc) -> Value:
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


def decode_field(schema: Schema, record_bytes, attr_index: int) -> Value:
    """Extract one attribute; None when the null bitmap marks it NULL."""
    slices, _ = record_field_slices(schema, record_bytes)
    return _decode_at(schema, record_bytes, attr_index, slices[attr_index])


def decode_values(schema: Schema, record_bytes) -> list:
    """Decode every attribute of a record in one walk."""
    slices, _ = record_field_slices(schema, record_bytes)
    return [_decode_at(schema, record_bytes, i, s) for i, s in enumerate(slices)]


def pg_timestamp_to_unix_epoch(ts: int) -> int:
    """Microseconds-since-2000 to whole seconds-since-1970 (floor)."""
    return ts // MICROS_PER_SECOND + POSTGRES_EPOCH_OFFSET_SECONDS


class NsmPage:
    """Slotted page: records grow from the front, slot entries from the back."""

    def __init__(self, page_lid: int):
        self.page_lid = page_lid
        self.buf = bytearray(PAGE_SIZE)
        struct.pack_into("<Q", self.buf, 0, page_lid)
        self.slot_count = 0
        self.free_offset = PAGE_HEADER_SIZE
        self._sync_header()

    def _sync_header(self):
        _SLOT.pack_into(self.buf, SLOT_COUNT_OFFSET, self.slot_count, self.free_offset)  # u16 pair

    @property
    def free_space(self) -> int:
        return PAGE_SIZE - self.free_offset - SLOT_ENTRY_SIZE * self.slot_count

    def extend(self, records) -> int:
        """Append records in order, returning the first one's slot index;
        the others take the slots after it."""
        sizes = list(map(len, records))
        total = sum(sizes)
        if max(sizes) > MAX_RECORD_SIZE:
            raise RecordTooLarge(f"record of {max(sizes)} bytes exceeds {MAX_RECORD_SIZE}")
        if total + SLOT_ENTRY_SIZE * len(sizes) > self.free_space:
            raise PageFull(f"page {self.page_lid}: {len(sizes)} records of {total} bytes do not "
                           f"fit in {self.free_space}")
        first, off = self.slot_count, self.free_offset
        buf = self.buf
        buf[off:off + total] = b"".join(records)
        entry = PAGE_SIZE - SLOT_ENTRY_SIZE * first       # slot entries grow downwards
        for size in sizes:
            entry -= SLOT_ENTRY_SIZE
            _SLOT.pack_into(buf, entry, off, size)
            off += size
        self.slot_count = first + len(sizes)
        self.free_offset = off
        self._sync_header()
        return first

    def slot_bytes(self, slot: int) -> bytes:
        off, length = page_slot_entry_at(self.buf, 0, slot)
        return bytes(self.buf[off:off + length])

    def to_bytes(self) -> bytes:
        return bytes(self.buf)


def page_slot_count_at(buf, page_base: int) -> int:
    return _U16.unpack_from(buf, page_base + SLOT_COUNT_OFFSET)[0]


def page_slot_entry_at(buf, page_base: int, slot: int):
    """(offset, length) of record ``slot`` of the page at ``page_base`` of ``buf``.

    Raises ``SlotOutOfRange`` for a slot outside the page's slot count and
    ``CorruptRecord`` for a record outside the page's record area.
    """
    count = page_slot_count_at(buf, page_base)
    if not 0 <= slot < count:
        raise SlotOutOfRange(f"slot {slot} not in [0,{count})")
    area_end = PAGE_SIZE - SLOT_ENTRY_SIZE * count          # the slot array starts here
    if area_end < PAGE_HEADER_SIZE:
        raise CorruptRecord(f"{count} slots overrun the page")
    offset, length = _SLOT.unpack_from(buf, page_base + PAGE_SIZE - SLOT_ENTRY_SIZE * (slot + 1))
    if offset < PAGE_HEADER_SIZE or offset + length > area_end:
        raise CorruptRecord(f"slot {slot} points outside the record area: "
                            f"[{offset}, {offset + length})")
    return offset, length
