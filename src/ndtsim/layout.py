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

Tombstone records are header-only.  ``encode_versions`` serializes a batch
of records from their header words as columns (the packed pred rid, as
``pack_rid`` packs it); ``encode_records`` is its form over
``RecordHeader``s, and ``encode_record`` their one-record case.

``record_field_slices`` locates the fields of one record.  Its batch form,
``extract_fields``, extracts projected fields from many records read where
they lie in region buffers: fixed-field offsets depend only on the null
mask, so the records are grouped by (region, null mask), and each group's
fixed parts come out in one gather viewed as a structured dtype whose
fields are the projected fixed attributes.  Varlen positions follow from
the u16 length prefixes, one varlen attribute after another.  Both make
the same bounds checks and raise the same ``CorruptRecord``.

``gather_words`` is the one strided gather of the device path: it reads
one little-endian word (an integer, or a void word of a given size) at
each of many byte positions of a buffer.  The device's batch accessors
and the extractor read every header word, null bitmap, fixed part, length
prefix and payload byte through it.
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
# The header words a visibility probe reads, over the fixed header's bytes.
HEADER_WORDS = np.dtype({"names": ["create_ts", "pred", "flags"], "formats": ["<u8", "<u8", "u1"],
                         "offsets": [CREATE_TS_OFFSET, PRED_OFFSET, FLAGS_OFFSET],
                         "itemsize": RECORD_HEADER_FIXED})
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
        self.field_plans: dict = {}        # (null bitmap, projection) -> see _field_plan

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


Value = Union[int, str, PyDecimal, None]

_HDR = struct.Struct("<QQQB")
_U16 = struct.Struct("<H")
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


def _scaled_column(values: list, kind: type, ftype: Decimal) -> list:
    """``decimal_to_scaled`` of each of ``values``, all of type ``kind``.

    A column of ints or of ``decimal.Decimal`` is converted and checked as a
    column (finite, no fraction digit beyond the scale, below
    ``10**precision``).  A column that fails, or of another type, is
    converted value by value, which raises the first value's error.
    """
    scale, limit = ftype.scale, 10 ** ftype.precision
    try:
        if kind is int:
            scaled = list(map((10 ** scale).__mul__, values))
            if max(map(abs, scaled)) < limit:
                return scaled
        elif kind is PyDecimal and all(map(PyDecimal.is_finite, values)):
            shifted = list(map(PyDecimal.scaleb, values, repeat(scale)))
            scaled = list(map(int, shifted))
            if scaled == shifted and max(map(abs, scaled)) < limit:
                return scaled
    except ArithmeticError:          # a scaleb out of the context's range
        pass
    return list(map(decimal_to_scaled, values, repeat(ftype)))


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


_HEADER_FIELDS = attrgetter("vid", "create_ts", "pred", "tombstone")


def encode_records(schema: Schema, headers: Sequence[RecordHeader], rows: Sequence) -> list:
    """Serialize one version record per header; returns their bytes, in order.

    ``rows[k]`` holds record k's values, None for a tombstone.  The headers
    go to ``encode_versions`` as columns.
    """
    if len(headers) != len(rows):
        raise ArityMismatch(f"{len(headers)} record headers for {len(rows)} rows")
    if not headers:
        return []
    vids, create_ts, preds, tombstones = zip(*map(_HEADER_FIELDS, headers))
    return encode_versions(schema, vids, create_ts, list(map(pack_rid, preds)), tombstones, rows)


def encode_versions(schema: Schema, vids: Sequence[int], create_ts: Sequence[int],
                    preds: Sequence[int], tombstones: Sequence[bool], rows: Sequence) -> list:
    """Serialize version record k from the header columns ``vids[k]``,
    ``create_ts[k]``, ``preds[k]`` (a packed rid, ``RID_NONE`` for none) and
    ``tombstones[k]``, and the values ``rows[k]``; returns their bytes, in order.

    The columns have one entry per row.  A tombstone's row is None (or
    empty), and its record is its header alone.  The live rows are grouped
    by signature, the types of their values, so every row of a group has
    the same null mask.  A signature is checked once (arity, NULLs, types)
    and gets one ``struct.Struct`` that packs the header and the fixed
    fields with their alignment padding.  Each group is then checked a
    column at a time (decimal digits, varchar lengths; int ranges by the
    packing itself), packed, and its varlen fields appended.
    """
    records = [None] * len(rows)
    live = range(len(rows))
    if any(tombstones):
        live = []
        for k, (tombstone, values) in enumerate(zip(tombstones, rows)):
            if not tombstone:
                live.append(k)
            elif values:
                raise TypeMismatch("tombstone records carry no field payload")
            else:
                records[k] = _HDR.pack(vids[k], create_ts[k], preds[k], 1) + bytes(
                    schema.null_bitmap_bytes)
        if not live:
            return records
        vids, create_ts, preds, rows = (list(map(column.__getitem__, live))
                                        for column in (vids, create_ts, preds, rows))
    try:
        signatures = list(map(tuple, map(map, repeat(type), rows)))
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
                [(i, signature[i], schema.attributes[i].ftype) for i, _offset in offsets
                 if schema.attributes[i].ftype.code == TC_DECIMAL],
                [i for i in schema.varlen_plan if not mask >> i & 1])
        pack, bitmap, fixed, decimals, varlens = packer
        if at is None:                                  # one group: every live row
            at, group, words = range(len(rows)), rows, (vids, create_ts, preds)
        else:
            group = list(map(rows.__getitem__, at))
            words = [list(map(column.__getitem__, at)) for column in (vids, create_ts, preds)]
        columns = list(zip(*group))
        for i, kind, ftype in decimals:
            columns[i] = _scaled_column(columns[i], kind, ftype)
        for i in varlens:
            columns[i] = _framed_varchars(columns[i], schema.attributes[i])
        try:
            packed = list(map(pack, *words, repeat(bitmap), *[columns[i] for i in fixed]))
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


class Extracted(NamedTuple):
    """One projected attribute of a batch of records, as ``extract_fields``
    gives it."""

    present: np.ndarray         # bool per record
    data: np.ndarray            # fixed: the field's word per record, 0 where NULL;
                                # varchar: the payloads, back to back
    sizes: np.ndarray           # varchar: int64 payload bytes per record; fixed: None
    ends: np.ndarray            # varchar: payload k ends at ends[k + 1]; fixed: None


def _groups(columns) -> list:
    """The rows of a batch grouped by their values in ``columns``, integer arrays
    of one value per row: one ascending array of row indexes per distinct
    combination of values.

    The rows are ordered by a stable argsort on one column at a time, the
    last column first, so the groups are keyed on every column; a column
    that is the same in every row orders nothing and is skipped.  A group
    starts where any column differs from the row before.
    """
    varying = [column for column in columns if len(column) and column.min() != column.max()]
    order = np.arange(len(columns[0]))
    for column in reversed(varying):
        order = order[np.argsort(column[order], kind="stable")]
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for column in varying:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    bounds = np.flatnonzero(first).tolist() + [len(order)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _field_plan(schema: Schema, bitmap: bytes, attrs: tuple) -> tuple:
    """What ``extract_fields`` reads from a record of null bitmap ``bitmap``
    for the projected attribute indexes ``attrs``, cached on the schema:

    - where the fixed part ends, from the record start;
    - the fixed part as a structured dtype: the projected fixed fields at
      their offsets;
    - (projection slot, field name) of each of its fields;
    - an (attr index, end) row for every present fixed field;
    - (attr index, projection slot or None) of every present varlen.
    """
    plan = schema.field_plans.get((bitmap, attrs))
    if plan is None:
        mask = int.from_bytes(bitmap, "little")
        offsets, end = schema.fixed_offsets(mask)
        at = dict(offsets)
        fixed = [(slot, i) for slot, i in enumerate(attrs) if i in at]
        words = np.dtype({
            "names": [schema.attributes[i].name for _slot, i in fixed],
            "formats": [f"<i{schema.attributes[i].ftype.width}" for _slot, i in fixed],
            "offsets": [at[i] for _slot, i in fixed],
            "itemsize": end})
        slots = {i: slot for slot, i in enumerate(attrs)}
        plan = schema.field_plans[bitmap, attrs] = (
            end, words, tuple((slot, schema.attributes[i].name) for slot, i in fixed),
            np.array([(i, offset + schema.attributes[i].ftype.width) for i, offset in offsets],
                     dtype=np.int64).reshape(-1, 2),
            tuple((i, slots.get(i)) for i in schema.varlen_plan if not mask >> i & 1))
    return plan


def extract_fields(schema: Schema, buffers, regions: np.ndarray, offsets: np.ndarray,
                   lengths: np.ndarray, attrs: tuple) -> list:
    """The attributes ``attrs`` (schema indexes) of a batch of records, read
    where they lie: one ``Extracted`` per projected attribute, in order.

    Record k is bytes [offsets[k], offsets[k] + lengths[k]) of
    ``buffers[regions[k]]``; each range must lie inside its buffer.  The
    records are checked in this order, and the first failure raises
    ``CorruptRecord``:

    1. every record holds the fixed header, and every live one (flags bit
       0 clear) its null bitmap too: "record shorter than its header";
    2. every live record holds its present fixed fields, at the offsets and
       alignment its null mask gives: the first record in batch order that
       does not names the first of them, "fixed field {i} runs past record
       end";
    3. every present varlen field, one attribute after another in schema
       order: its u16 length prefix ("varlen field {i} length prefix past
       record end"), then its payload ("... payload past record end").

    No byte is read before the check that bounds it.  A tombstone has no
    fields: its attributes are all NULL, and a NULL word is 0.

    A group's fixed part, bytes [0, fixed end) of each record, is one void
    ``gather_words`` viewed as the plan's structured dtype, and each fixed
    column takes a field copy per group.  Payloads are gathered through
    ``range_indexes``, region by region.  No array viewing a buffer
    outlives the call, so a buffer may grow after it.
    """
    n = len(offsets)
    if (lengths < RECORD_HEADER_FIXED).any():
        raise CorruptRecord("record shorter than its header")
    by_region = _groups([regions])
    # each record's null bitmap, all-NULL for a tombstone, and the same bytes as one word
    bitmaps = np.full((n, schema.null_bitmap_bytes), 0xFF, dtype=np.uint8)
    bitmap_words = bitmaps.view(np.dtype((np.void, schema.null_bitmap_bytes)))[:, 0]
    for rows in by_region:
        buf, at = buffers[regions[rows[0]]], offsets[rows]
        live = gather_words(buf, "u1", at + FLAGS_OFFSET) & 1 == 0
        rows, at = rows[live], at[live]
        if (lengths[rows] < schema.header_size).any():
            raise CorruptRecord("record shorter than its header")
        bitmap_words[rows] = gather_words(buf, bitmap_words.dtype, at + RECORD_HEADER_FIXED)
    present = np.unpackbits(bitmaps, axis=1, count=schema.n_attrs, bitorder="little")[
        :, list(attrs)] == 0

    values, starts, sizes = {}, {}, {}      # by projection slot: fixed words; payload ranges
    for slot, i in enumerate(attrs):
        width = schema.attributes[i].ftype.width
        if width is None:
            starts[slot], sizes[slot] = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        else:
            values[slot] = np.zeros(n, dtype=f"<i{width}")
    failures = []               # (check, record or attribute, prefix 0 / payload 1, message)
    for rows in _groups([regions, *bitmaps.T]):
        fixed_end, fields, fixed, fits, varlens = _field_plan(
            schema, bitmaps[rows[0]].tobytes(), attrs)
        buf, at, limit = buffers[regions[rows[0]]], offsets[rows], lengths[rows]
        short = np.flatnonzero(limit < fixed_end) if len(fits) else ()
        if len(short):
            k = rows[short[0]]
            i = fits[fits[:, 1] > lengths[k], 0][0]
            failures.append((2, k, 0, f"fixed field {i} runs past record end"))
            continue
        if fixed:
            words = gather_words(buf, np.dtype((np.void, fixed_end)), at).view(fields)
            for slot, name in fixed:
                values[slot][rows] = words[name]
        pos = fixed_end
        for i, slot in varlens:
            if (pos + 2 > limit).any():
                failures.append((3, i, 0, f"varlen field {i} length prefix past record end"))
                break
            size = gather_words(buf, "<u2", at + pos).astype(np.int64)
            end = pos + 2 + size
            if (end > limit).any():
                failures.append((3, i, 1, f"varlen field {i} payload past record end"))
                break
            if slot is not None:
                starts[slot][rows] = at + pos + 2
                sizes[slot][rows] = size
            pos = end
    if failures:
        raise CorruptRecord(min(failures)[-1])

    columns = []
    for slot in range(len(attrs)):
        if slot in values:
            columns.append(Extracted(present[:, slot], values[slot], None, None))
            continue
        ends = np.concatenate(([0], np.cumsum(sizes[slot])))
        payload = np.empty(ends[-1], dtype=np.uint8)
        owners = np.repeat(regions, sizes[slot]) if len(by_region) > 1 else None  # per byte
        for rows in by_region:
            code = regions[rows[0]]
            payload[slice(None) if owners is None else owners == code] = gather_words(
                buffers[code], "u1", range_indexes(starts[slot][rows], sizes[slot][rows]))
        columns.append(Extracted(present[:, slot], payload, sizes[slot], ends))
    return columns


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
