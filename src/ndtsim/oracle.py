"""Host reference reader: the visible rows of a table, decoded a page at a time.

The differential tests compare every device path with what this module
builds from host state alone.  Visibility comes from the host's MVCC
chains (``oracle_visible_version`` over the vid map), record bytes from
the pages wherever they live (read without a ledger charge), and values
from a decoder of its own.

Reading groups the records by page and fetches each page once, from the
host's delta buffer or through ``Device.peek``.  The slot entries of all
records are parsed together and bounded as the device bounds them: a slot
below its page's slot count, a record inside the page's record area.

Decoding works a column at a time, as PAX does.  Every word is read
through one strided view of the page bytes per word kind (``_words``: a
word of that kind at every byte), so a column of n words is one gather
of n positions; null bitmaps are read as n void words of the bitmap's
width.  Fixed-field offsets depend only on the null mask, so they are
computed once per distinct mask: the bitmaps are sorted by their bytes
(``np.lexsort``, for any bitmap width), each run of equal ones becomes a
group with an integer number, and every record gathers its group's
offsets.  Varlen positions follow from the u16 length prefixes, one
varlen attribute after another, and varchars are decoded one value at a
time.  NULL values decode to 0 (or ""), with their presence cleared; a
non-nullable attribute is never NULL, so its words are kept as read.
Corrupt bytes raise ``CorruptRecord``, as do a tombstone flag and a NULL
non-nullable attribute: the chains call every record read here live.

A snapshot's visible versions are the part that ``HostSystem`` keeps
between calls: it holds the ``visible_records`` of the last snapshot it
read, keyed by the snapshot and ``MvccStore.map_version``, and passes them
to ``read_columns``, which reads the pages and decodes them afresh on every
call.  Keeping them is sound because the versions a snapshot sees cannot
change once it is taken (snapshot reads, Berenson et al., SIGMOD 1995):
the chains only gain versions the snapshot does not see, and an abort
removes only versions of a transaction the snapshot does not see either.
The map version covers a descriptor not taken from the store.

Independence rule: nothing here comes from the device path (``engine``,
``delta``, ``device``, or the batch field locator in ``layout``), so a bug
there cannot sit on both sides of a differential test.
``tests/test_imports.py`` enforces it.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import is_not

import numpy as np

from .errors import CorruptRecord, SlotOutOfRange
from .layout import (
    FLAGS_OFFSET,
    MICROS_PER_SECOND,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    POSTGRES_EPOCH_OFFSET_SECONDS,
    RECORD_HEADER_FIXED,
    SLOT_COUNT_OFFSET,
    SLOT_ENTRY_SIZE,
    TC_TIMESTAMP,
    Schema,
)
from .mvcc import SnapshotDescriptor, oracle_visible_version


def _words(buf: np.ndarray, dtype, positions: np.ndarray) -> np.ndarray:
    """The little-endian ``dtype`` words that start at byte ``positions`` of ``buf``.

    ``buf`` is viewed as one word at every byte, and the words at
    ``positions`` are copied out; each must end inside ``buf``.
    """
    size = np.dtype(dtype).itemsize
    return np.ndarray((max(len(buf) - size + 1, 0),), dtype, buf, strides=(1,))[positions]


def visible_records(vid_map: dict, snap: SnapshotDescriptor):
    """(vids, page lids, slots) of the version each tuple shows ``snap``, in map order."""
    rids = list(map(oracle_visible_version, vid_map.values(), repeat(snap)))
    keep = np.fromiter(map(is_not, rids, repeat(None)), dtype=bool, count=len(rids))
    vids = np.fromiter(vid_map, dtype="<u8", count=len(rids))[keep]
    found = np.fromiter(filter(partial(is_not, None), rids), dtype=np.int64, count=len(vids))
    return vids, found >> 16, found & 0xFFFF           # packed rids: page_lid << 16 | slot


def read_records(shared, page_lids, slots):
    """Fetch records by (page lid, slot) from ``shared``, reading each page once.

    Returns ``(raw, starts, lengths)``: record k is
    ``raw[starts[k]:starts[k] + lengths[k]]``, and ``raw`` holds the pages
    read, one after another.  Raises ``DanglingReference`` for an unmapped
    page, ``SlotOutOfRange`` for a slot outside its page's slot count and
    ``CorruptRecord`` for a record outside its page's record area.
    """
    page_lids = np.asarray(page_lids, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    lids, page_of = np.unique(page_lids, return_inverse=True)
    raw = b"".join([shared.page_image(lid) for lid in lids.tolist()])
    buf = np.frombuffer(raw, dtype=np.uint8)
    bases = page_of * PAGE_SIZE
    counts = _words(buf, "<u2", bases + SLOT_COUNT_OFFSET).astype(np.int64)
    bad = (slots < 0) | (slots >= counts)
    if bad.any():
        k = bad.argmax()
        raise SlotOutOfRange(f"slot {slots[k]} of page {page_lids[k]} not in [0,{counts[k]})")
    area_end = PAGE_SIZE - SLOT_ENTRY_SIZE * counts         # the slot array starts here
    bad = area_end < PAGE_HEADER_SIZE
    if bad.any():
        k = bad.argmax()
        raise CorruptRecord(f"page {page_lids[k]}: {counts[k]} slots overrun the page")
    entries = _words(buf, "<u4", bases + PAGE_SIZE - SLOT_ENTRY_SIZE * (slots + 1))
    offsets, lengths = (entries & 0xFFFF).astype(np.int64), (entries >> 16).astype(np.int64)
    bad = (offsets < PAGE_HEADER_SIZE) | (offsets + lengths > area_end)
    if bad.any():
        k = bad.argmax()
        raise CorruptRecord(f"slot {slots[k]} of page {page_lids[k]} points outside the "
                            f"record area: [{offsets[k]}, {offsets[k] + lengths[k]})")
    return raw, bases + offsets, lengths


def _aligned(pos: int, alignment: int) -> int:
    return -(-pos // alignment) * alignment


def decode_columns(schema: Schema, names, raw: bytes, starts: np.ndarray,
                   lengths: np.ndarray):
    """Decode attributes ``names`` of the records ``raw[starts[k]:starts[k] + lengths[k]]``.

    Returns ``(values, present)``, both keyed by name.  Values are ``<i4``
    (Int32) or ``<i8`` arrays, timestamps in seconds since the UNIX epoch
    (floor), decimals scaled; varchars are lists of str.  A NULL value is 0
    or "" and not present.  The records must be live versions: a tombstone
    flag, or a NULL bit on a non-nullable attribute, raises ``CorruptRecord``.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    n = len(starts)
    if (lengths < RECORD_HEADER_FIXED).any():
        raise CorruptRecord("record shorter than its header")
    if (buf[starts + FLAGS_OFFSET] & 1).any():      # bit 0: tombstone
        raise CorruptRecord("a version the chains call live is a tombstone")
    if (lengths < schema.header_size).any():
        raise CorruptRecord("record shorter than its header")

    # null bitmaps, grouped by distinct mask: sorted by their bytes, one group per run
    width = schema.null_bitmap_bytes
    bitmaps = _words(buf, np.dtype((np.void, width)),
                     starts + RECORD_HEADER_FIXED).view(np.uint8).reshape(n, width)
    order = np.lexsort(bitmaps.T)
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for byte in bitmaps.T:
        ranked = byte[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    heads = np.flatnonzero(first)
    group = np.empty(n, dtype=np.int64)
    group[order] = np.repeat(np.arange(len(heads)), np.diff(heads, append=n))
    null = np.unpackbits(bitmaps[order[heads]], axis=1, count=schema.n_attrs,
                         bitorder="little").astype(bool)
    rel = np.zeros((len(heads), schema.n_attrs), dtype=np.int64)   # fixed-field offsets
    fixed_end = np.zeros(len(heads), dtype=np.int64)
    for g, nulls in enumerate(null.tolist()):
        pos = schema.header_size
        for i, field_width, alignment, _code in schema.fixed_plan:
            if not nulls[i]:
                rel[g, i] = pos = _aligned(pos, alignment)
                pos += field_width
        fixed_end[g] = pos
    required = ~np.array([attr.nullable for attr in schema.attributes], dtype=bool)
    if (null[:, required]).any():
        raise CorruptRecord("a non-nullable attribute is NULL")
    present = (~null).take(group, axis=0)
    end = fixed_end[group]
    if (end > lengths).any():
        raise CorruptRecord("fixed fields run past record end")

    varlen_at = {}                   # attribute -> (payload starts, payload lengths)
    for i in schema.varlen_plan:
        on = np.flatnonzero(present[:, i])
        prefix = starts[on] + end[on]
        if (end[on] + 2 > lengths[on]).any():
            raise CorruptRecord(f"varlen field {i} length prefix past record end")
        size = _words(buf, "<u2", prefix).astype(np.int64)
        end[on] += 2 + size
        if (end[on] > lengths[on]).any():
            raise CorruptRecord(f"varlen field {i} payload past record end")
        at, sizes = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        at[on], sizes[on] = prefix + 2, size
        varlen_at[i] = at, sizes

    values, present_of = {}, {}
    for name in names:
        i = schema.index_of[name]
        ftype = schema.attributes[i].ftype
        present_of[name] = present[:, i]
        if ftype.is_varlen:
            at, sizes = varlen_at[i]
            try:
                values[name] = [raw[a:a + s].decode("utf-8")
                                for a, s in zip(at.tolist(), sizes.tolist())]
            except UnicodeDecodeError as exc:
                raise CorruptRecord(f"varlen field {i} is not UTF-8 ({exc})") from None
            continue
        word = _words(buf, f"<i{ftype.width}", starts + rel[group, i])
        if ftype.code == TC_TIMESTAMP:
            word = word // MICROS_PER_SECOND + POSTGRES_EPOCH_OFFSET_SECONDS
        if schema.attributes[i].nullable:
            word = np.where(present[:, i], word, 0)
        values[name] = word.astype(f"<i{ftype.width}", copy=False)
    return values, present_of


def read_columns(shared, schema: Schema, records, names):
    """The attributes ``names`` of ``records``, a ``visible_records`` result.

    Returns ``(vids, values, present)`` as ``decode_columns`` does.
    """
    vids, page_lids, slots = records
    raw, starts, lengths = read_records(shared, page_lids, slots)
    values, present = decode_columns(schema, names, raw, starts, lengths)
    return vids, values, present
