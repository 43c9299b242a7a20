"""Record codec, timestamp conversion, and slotted-page behavior."""

import random
import struct
from datetime import datetime, timezone
from decimal import Decimal as D

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndtsim.errors import (
    ArityMismatch,
    CorruptRecord,
    NullNotAllowed,
    PageFull,
    SlotOutOfRange,
    TypeMismatch,
    VarCharTooLong,
)
from ndtsim.layout import (
    MAX_RECORD_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    POSTGRES_EPOCH_OFFSET_SECONDS,
    RECORD_HEADER_FIXED,
    SLOT_ENTRY_SIZE,
    Decimal,
    Int32,
    Int64,
    NsmPage,
    RecordHeader,
    RecordID,
    Schema,
    TimestampPg,
    VarChar,
    decode_header,
    encode_record,
    extract_fields,
    pack_rid,
    page_slot_entry_at,
    pg_timestamp_to_unix_epoch,
    record_field_slices,
    unpack_rid,
)
from conftest import random_orderline
from reference import decode_field, decode_values
from reference_flushes import extracted_rows
from ndtsim.host import orderline_schema


# -- type and schema invariants -------------------------------------------------

def test_decimal_parameter_bounds():
    Decimal(18, 18)
    with pytest.raises(ValueError):
        Decimal(19, 2)
    with pytest.raises(ValueError):
        Decimal(10, 11)
    with pytest.raises(ValueError):
        VarChar(0)


def test_schema_invariants():
    with pytest.raises(ValueError):
        Schema("t", [])
    with pytest.raises(ValueError):
        Schema("t", [("a", Int32(), False), ("a", Int64(), False)])


# -- record encode/decode --------------------------------------------------------

def test_zero_int32_roundtrip():
    schema = Schema("t", [("a", Int32(), False)])
    rec = encode_record(schema, RecordHeader(1, 1), [0])
    # header is 26 bytes (25 fixed + 1 bitmap byte), field aligned to 4 -> offset 28
    assert len(rec) == 28 + 4
    assert rec[28:32] == b"\x00\x00\x00\x00"
    assert decode_field(schema, rec, 0) == 0


def test_orderline_roundtrip_randomized():
    schema = orderline_schema()
    rng = random.Random(42)
    for i in range(300):
        row = random_orderline(rng, order_id=i, null_delivery=(i % 7 == 0))
        rec = encode_record(schema, RecordHeader(i, i + 1), list(row))
        assert decode_values(schema, rec) == list(row)


def test_null_field_has_no_payload():
    schema = Schema("t", [("a", Int64(), True)])
    rec_null = encode_record(schema, RecordHeader(1, 1), [None])
    rec_val = encode_record(schema, RecordHeader(1, 1), [7])
    assert len(rec_val) - len(rec_null) == 8 + 6  # value plus alignment padding
    assert rec_null[25] & 1 == 1                  # bitmap bit set
    assert decode_field(schema, rec_null, 0) is None


def test_empty_varchar_distinct_from_null():
    schema = Schema("t", [("s", VarChar(10), True)])
    rec = encode_record(schema, RecordHeader(1, 1), [""])
    assert decode_field(schema, rec, 0) == ""
    assert struct.unpack_from("<H", rec, schema.header_size)[0] == 0
    rec_null = encode_record(schema, RecordHeader(1, 1), [None])
    assert decode_field(schema, rec_null, 0) is None


def test_alignment_of_fixed_fields():
    # mixed widths force padding; every present offset must be aligned
    schema = Schema("t", [
        ("a", Int32(), False), ("b", Int64(), False),
        ("c", Int32(), True), ("d", TimestampPg(), False),
    ])
    rng = random.Random(5)
    for _ in range(50):
        values = [rng.randint(0, 99), rng.randint(0, 99),
                  None if rng.random() < 0.5 else 3, rng.randint(-10**6, 10**6)]
        rec = encode_record(schema, RecordHeader(1, 1), values)
        slices, _ = record_field_slices(schema, rec)
        for idx, (_, width, alignment, _c) in zip(range(4), schema.fixed_plan):
            if slices[idx] is not None:
                assert slices[idx][0] % alignment == 0
        assert decode_values(schema, rec) == values


def test_encode_errors():
    schema = Schema("t", [("a", Int32(), False), ("s", VarChar(4), False)])
    hdr = RecordHeader(1, 1)
    with pytest.raises(ArityMismatch):
        encode_record(schema, hdr, [1])
    with pytest.raises(TypeMismatch):
        encode_record(schema, hdr, ["x", "y"])
    with pytest.raises(NullNotAllowed):
        encode_record(schema, hdr, [None, "y"])
    with pytest.raises(VarCharTooLong):
        encode_record(schema, hdr, [1, "toolong"])
    with pytest.raises(TypeMismatch):
        encode_record(Schema("d", [("m", Decimal(4, 2), False)]), hdr, [D("123.45")])
    with pytest.raises(TypeMismatch):
        encode_record(Schema("d", [("m", Decimal(6, 2), False)]), hdr, [D("1.234")])


def test_decode_corrupt_record():
    schema = Schema("t", [("a", Int64(), False), ("s", VarChar(20), False)])
    rec = encode_record(schema, RecordHeader(1, 1), [5, "hello"])
    with pytest.raises(CorruptRecord):
        decode_field(schema, rec[:30], 0)
    # varlen length prefix pointing past the end
    slices, _ = record_field_slices(schema, rec)
    prefix_at = slices[1][0] - 2
    broken = bytearray(rec)
    struct.pack_into("<H", broken, prefix_at, 9999)
    with pytest.raises(CorruptRecord):
        decode_field(schema, bytes(broken), 1)


def test_tombstone_is_header_only():
    schema = orderline_schema()
    rec = encode_record(schema, RecordHeader(9, 3, tombstone=True), None)
    assert len(rec) == schema.header_size
    hdr = decode_header(rec)
    assert hdr.tombstone and hdr.vid == 9 and hdr.create_ts == 3


# -- batch field extractor ----------------------------------------------------------

_TWO_VARLEN = Schema("t", [
    ("a", Int32(), True), ("s", VarChar(20), True), ("b", Int64(), True),
    ("u", VarChar(8), False), ("c", TimestampPg(), False),
])


def _two_varlen_record(rng, vid):
    if rng.random() < 0.1:
        return encode_record(_TWO_VARLEN, RecordHeader(vid, 1, tombstone=True), None)
    values = [rng.randint(-2**31, 2**31 - 1), "é" * rng.randint(0, 10),
              rng.randint(-2**63, 2**63 - 1), "x" * rng.randint(0, 8),
              rng.randint(-2**63, 2**63 - 1)]
    for i in (0, 1, 2):                                 # the nullable attributes
        if rng.random() < 0.3:
            values[i] = None
    return encode_record(_TWO_VARLEN, RecordHeader(vid, 1), values)


def _packed(records, rng):
    """Records in one buffer with random gaps, as ``extract_fields`` takes
    them: (buffers, region codes, offsets, lengths)."""
    chunks, starts, pos = [], [], 0
    for rec in records:
        gap = bytes(rng.randrange(256) for _ in range(rng.randrange(4)))
        chunks += [gap, rec]
        starts.append(pos + len(gap))
        pos += len(gap) + len(rec)
    return ((b"".join(chunks),), np.zeros(len(records), dtype=np.uint8),
            np.array(starts, dtype=np.int64), np.array([len(r) for r in records], dtype=np.int64))


@pytest.mark.parametrize("schema, make", [
    (orderline_schema(), lambda rng, vid: encode_record(
        orderline_schema(), RecordHeader(vid, 1),
        random_orderline(rng, vid, null_delivery=rng.random() < 0.3))),
    (_TWO_VARLEN, _two_varlen_record),
])
def test_locate_fields_matches_record_field_slices(schema, make):
    """The fields ``extract_fields`` locates in a packed batch are the
    slices ``record_field_slices`` finds in each record: a fixed field's
    word is its bytes, a varchar's payload is its bytes."""
    rng = random.Random(12)
    records = [make(rng, vid) for vid in range(300)]
    columns = extract_fields(schema, *_packed(records, rng), tuple(range(schema.n_attrs)))
    for k, rec in enumerate(records):
        slices, _ = record_field_slices(schema, rec)
        for column, s in zip(columns, slices):
            present, data, sizes = extracted_rows(column, k, k + 1)
            assert bool(present[0]) == (s is not None)
            if s is None:
                continue
            field = bytes(rec[s[0]:s[0] + s[1]])
            if sizes is None:
                assert int(column.data[k]) == int.from_bytes(field, "little", signed=True)
            else:
                assert data.tobytes() == field and int(sizes[0]) == len(field)


def test_extract_fields_raises_where_record_field_slices_does():
    every = tuple(range(_TWO_VARLEN.n_attrs))
    rng = random.Random(14)
    for vid in range(60):
        rec = _two_varlen_record(rng, vid)
        broken = bytearray(rec)
        slices, _ = record_field_slices(_TWO_VARLEN, rec)
        if slices[3] is not None and rng.random() < 0.5:     # enlarge the length prefix
            struct.pack_into("<H", broken, slices[3][0] - 2, slices[3][1] + rng.randint(1, 9))
        for length in range(RECORD_HEADER_FIXED, len(broken) + 1):
            piece = bytes(broken[:length])
            try:
                record_field_slices(_TWO_VARLEN, piece)
                expected = None
            except CorruptRecord:
                expected = CorruptRecord
            batch = _packed([rec, piece], rng)
            if expected is None:
                extract_fields(_TWO_VARLEN, *batch, every)
            else:
                with pytest.raises(CorruptRecord):
                    extract_fields(_TWO_VARLEN, *batch, every)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**47 - 1), st.integers(min_value=0, max_value=2**16 - 1))
def test_record_id_packing_roundtrip(page_lid, slot):
    rid = RecordID(page_lid, slot)
    assert unpack_rid(pack_rid(rid)) == rid
    assert unpack_rid(pack_rid(None)) is None


# -- timestamp conversion ----------------------------------------------------------

def _epoch_offset_oracle() -> int:
    # independent calendar arithmetic via the standard library
    pg = datetime(2000, 1, 1, tzinfo=timezone.utc)
    unix = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return int((pg - unix).total_seconds())


def test_epoch_offset_against_calendar_oracle():
    assert POSTGRES_EPOCH_OFFSET_SECONDS == _epoch_offset_oracle()


def test_pg_timestamp_conversion():
    offset = _epoch_offset_oracle()
    assert pg_timestamp_to_unix_epoch(0) == offset
    assert pg_timestamp_to_unix_epoch(86_400_000_000) == offset + 86_400
    assert pg_timestamp_to_unix_epoch(-86_400_000_000) == offset - 86_400


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-2**62, max_value=2**62))
@example(999_999_999_999_999_939)      # float division rounds this one up
def test_pg_timestamp_matches_floor_division(ts):
    assert pg_timestamp_to_unix_epoch(ts) == ts // 1_000_000 + _epoch_offset_oracle()


# -- slotted pages --------------------------------------------------------------------

def test_first_insert_gets_slot_zero():
    page = NsmPage(3)
    assert page.extend([b"hello"]) == 0
    assert page.slot_bytes(0) == b"hello"


def test_insert_until_full_matches_arithmetic():
    page = NsmPage(1)
    record = b"x" * 96
    # capacity: page minus 12-byte header, each record costs 96 + 4-byte slot
    expected = (PAGE_SIZE - 12) // (96 + 4)
    count = 0
    while True:
        try:
            page.extend([record])
            count += 1
        except PageFull:
            break
    assert count == expected


def test_slot_lookup_shadow_map():
    rng = random.Random(11)
    page = NsmPage(2)
    shadow = []
    while True:
        data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 200)))
        if len(data) + SLOT_ENTRY_SIZE > page.free_space:
            break
        slot = page.extend([data])
        shadow.append((slot, data))
    assert len(shadow) > 10
    for slot, data in shadow:
        assert page.slot_bytes(slot) == data


def test_slot_out_of_range():
    page = NsmPage(1)
    page.extend([b"a"])
    with pytest.raises(SlotOutOfRange):
        page.slot_bytes(1)


def test_page_safety_no_overlap():
    rng = random.Random(13)
    page = NsmPage(1)
    inserted = 0
    while 64 + SLOT_ENTRY_SIZE <= page.free_space:
        page.extend([bytes([inserted % 256]) * rng.randint(1, 64)])
        inserted += 1
    spans = [page_slot_entry_at(page.buf, 0, s) for s in range(page.slot_count)]
    spans.sort()
    for (o1, l1), (o2, _l2) in zip(spans, spans[1:]):
        assert o1 + l1 <= o2
    used = 12 + sum(l for _, l in spans) + 4 * page.slot_count
    assert used <= PAGE_SIZE
    assert max(o + l for o, l in spans) <= PAGE_SIZE - 4 * page.slot_count


def test_record_too_large_rejected():
    from ndtsim.errors import RecordTooLarge
    page = NsmPage(1)
    with pytest.raises(RecordTooLarge):
        page.extend([b"y" * (MAX_RECORD_SIZE + 1)])


def test_extend_equals_one_insert_at_a_time():
    rng = random.Random(17)
    records = [bytes(rng.randrange(256) for _ in range(rng.randint(1, 300))) for _ in range(60)]
    one, many = NsmPage(4), NsmPage(4)
    k = 0
    while k < len(records):
        chunk = records[k:k + rng.randint(1, 7)]
        if sum(map(len, chunk)) + SLOT_ENTRY_SIZE * len(chunk) > many.free_space:
            with pytest.raises(PageFull):
                many.extend(chunk)
            break
        assert many.extend(chunk) == one.slot_count
        for record in chunk:
            one.extend([record])
        k += len(chunk)
    assert k > 10
    assert many.to_bytes() == one.to_bytes()
    assert [many.slot_bytes(s) for s in range(many.slot_count)] == records[:k]


def test_slot_entry_reader_bounds():
    page = NsmPage(5)
    page.extend([b"abc"])
    page.extend([b"defg"])
    assert page_slot_entry_at(b"\0" * 8 + page.to_bytes(), 8, 1) == (PAGE_HEADER_SIZE + 3, 4)
    for slot in (2, -1):
        with pytest.raises(SlotOutOfRange):
            page_slot_entry_at(page.buf, 0, slot)
    for at, value in [(PAGE_SIZE - 4, 2), (PAGE_SIZE - 2, PAGE_SIZE), (8, 0x1000)]:
        broken = bytearray(page.buf)
        broken[at:at + 2] = value.to_bytes(2, "little")
        with pytest.raises(CorruptRecord):
            page_slot_entry_at(broken, 0, 0)
