"""The batch record encoder: round trips over random schemas, error parity.

Records are decoded by the tests' reference decoder (``decode_header``,
``decode_values``) and by the batch field extractor, never compared with
``encode_record``, which is the one-row case of the same code.
"""

import random
from decimal import Decimal as D
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndtsim.errors import (
    ArityMismatch,
    NdtError,
    NullNotAllowed,
    RecordTooLarge,
    TypeMismatch,
    VarCharTooLong,
)
from ndtsim import layout
from ndtsim.layout import (
    TC_DECIMAL,
    TC_INT32,
    TC_VARCHAR,
    Decimal,
    Int32,
    Int64,
    RecordHeader,
    RecordID,
    Schema,
    TimestampPg,
    VarChar,
    decimal_to_scaled,
    decode_header,
    encode_records,
    extract_fields,
)
from reference import decode_values

INT32 = (-2**31, 2**31 - 1)
INT64 = (-2**63, 2**63 - 1)

field_types = st.one_of(
    st.just(Int32()),
    st.just(Int64()),
    st.just(TimestampPg()),
    st.integers(1, 18).flatmap(lambda p: st.builds(Decimal, st.just(p), st.integers(0, p))),
    st.integers(1, 40).map(VarChar),
)

# Wide schemas test null bitmaps, not value coverage, so their attributes
# take a few fixed types and ``batches`` gives each non-nullable one a
# single value: the draws stay cheap.
WIDE_TYPES = (Int32(), Int64(), TimestampPg(), Decimal(18, 4), VarChar(8))


@st.composite
def _wide_attrs(draw):
    """13 to 16 or 65 to 72 attributes: null bitmaps of 2 or 9 bytes.  Few
    are nullable, the last always, so rows share null masks but for a NULL
    past the 64th."""
    n = draw(st.one_of(st.integers(13, 16), st.integers(65, 72)))
    ftypes = draw(st.lists(st.sampled_from(WIDE_TYPES), min_size=n, max_size=n))
    nulls = draw(st.sets(st.integers(0, len(ftypes) - 1), max_size=3)) | {len(ftypes) - 1}
    return [(ftype, i in nulls) for i, ftype in enumerate(ftypes)]


schemas = st.one_of(
    st.lists(st.tuples(field_types, st.booleans()), min_size=1, max_size=12), _wide_attrs(),
).map(lambda attrs: Schema("t", [(f"a{i}", ftype, nullable)
                                 for i, (ftype, nullable) in enumerate(attrs)]))


def _bounded(lo, hi):
    return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))


def _utf8_prefix(text: str, max_bytes: int) -> str:
    """The longest prefix of ``text`` that fits ``max_bytes`` bytes of UTF-8."""
    while len(text.encode()) > max_bytes:
        text = text[:-1]
    return text


def _full_varchar(max_len: int) -> st.SearchStrategy:
    """Multi-byte strings of exactly ``max_len`` bytes."""
    return st.sampled_from(["é", "€", "𝄞"]).map(
        lambda char: char * (max_len // len(char.encode())) + "x" * (max_len % len(char.encode())))


def values_of(ftype) -> st.SearchStrategy:
    if ftype.code == TC_INT32:
        return _bounded(*INT32)
    if ftype.code == TC_DECIMAL:
        limit = 10 ** ftype.precision - 1
        return _bounded(-limit, limit).map(lambda n: D(n).scaleb(-ftype.scale))
    if ftype.code == TC_VARCHAR:
        return st.one_of(_full_varchar(ftype.max_len),
                         st.text(max_size=ftype.max_len).map(
                             lambda text: _utf8_prefix(text, ftype.max_len)))
    return _bounded(*INT64)


@st.composite
def batches(draw):
    schema = draw(schemas)
    columns = []
    for attr in schema.attributes:
        values = values_of(attr.ftype)
        if attr.nullable:
            values = st.one_of(st.none(), values)
        elif schema.n_attrs > 12:           # wide: one value per column, in every row
            values = st.just(draw(values))
        columns.append(values)
    row = st.tuples(*columns)
    pred = st.one_of(st.none(), st.builds(RecordID, st.integers(0, 2**47 - 1),
                                          st.integers(0, 2**16 - 1)))
    n = draw(st.integers(1, 12))
    headers = [RecordHeader(draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)),
                            draw(pred), draw(st.booleans()) and draw(st.booleans()))
               for _ in range(n)]
    rows = [None if h.tombstone else draw(row) for h in headers]
    return schema, headers, rows


def _field_value(ftype, column, k: int):
    """Record k's extracted value: ints (decimals scaled) or str."""
    if ftype.code == TC_VARCHAR:
        return column.data[column.ends[k]:column.ends[k + 1]].tobytes().decode()
    return int(column.data[k])


def _expected_field(ftype, value):
    if ftype.code == TC_DECIMAL:
        return int(value.scaleb(ftype.scale))
    return value


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_encode_records_round_trip(batch):
    schema, headers, rows = batch
    records = encode_records(schema, headers, rows)
    assert len(records) == len(headers)
    for record, header, values in zip(records, headers, rows):
        assert decode_header(record) == header
        if header.tombstone:
            assert len(record) == schema.header_size
            assert record[schema.header_size - schema.null_bitmap_bytes:] == \
                bytes(schema.null_bitmap_bytes)
        else:
            assert decode_values(schema, record) == list(values)

    buf = b"".join(records)
    lengths = np.array([len(r) for r in records], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    columns = extract_fields(schema, (buf,), np.zeros(len(records), dtype=np.uint8), starts,
                             lengths, tuple(range(schema.n_attrs)))
    for k, values in enumerate(rows):
        for i, (attr, column) in enumerate(zip(schema.attributes, columns)):
            value = None if values is None else values[i]
            assert column.present[k] == (value is not None)
            if value is not None:
                assert _field_value(attr.ftype, column, k) == _expected_field(attr.ftype, value)


# -- error parity: a bad value raises the same error from a batch as alone ---------------

PARITY_SCHEMA = Schema("p", [
    ("i", Int32(), False), ("l", Int64(), True), ("m", Decimal(6, 2), False),
    ("t", TimestampPg(), True), ("s", VarChar(6), True),
])


def _good_row(rng):
    return (rng.randint(*INT32), rng.choice([None, rng.randint(*INT64)]),
            D(rng.randint(-999_999, 999_999)).scaleb(-2), rng.choice([None, rng.randint(0, 9)]),
            rng.choice([None, "", "ab", "é€"]))


BAD_ROWS = [
    ("bool for an int", TypeMismatch, lambda row: (True,) + row[1:]),
    ("bool for a decimal", TypeMismatch, lambda row: row[:2] + (False,) + row[3:]),
    ("int32 overflow", TypeMismatch, lambda row: (2**31,) + row[1:]),
    ("int32 underflow", TypeMismatch, lambda row: (-2**31 - 1,) + row[1:]),
    ("int64 overflow", TypeMismatch, lambda row: row[:1] + (2**63,) + row[2:]),
    ("timestamp underflow", TypeMismatch, lambda row: row[:3] + (-2**63 - 1,) + row[4:]),
    ("extra fraction digit", TypeMismatch, lambda row: row[:2] + (D("1.234"),) + row[3:]),
    ("decimal precision", TypeMismatch, lambda row: row[:2] + (D("10000.00"),) + row[3:]),
    ("decimal NaN", TypeMismatch, lambda row: row[:2] + (D("NaN"),) + row[3:]),
    ("decimal infinity", TypeMismatch, lambda row: row[:2] + (D("-Infinity"),) + row[3:]),
    ("str for an int", TypeMismatch, lambda row: ("1",) + row[1:]),
    ("int for a varchar", TypeMismatch, lambda row: row[:4] + (7,)),
    ("over-long varchar", VarCharTooLong, lambda row: row[:4] + ("é" * 4,)),
    ("NULL in non-nullable", NullNotAllowed, lambda row: row[:2] + (None,) + row[3:]),
    ("missing value", ArityMismatch, lambda row: row[:4]),
    ("extra value", ArityMismatch, lambda row: row + (1,)),
    ("no values", ArityMismatch, lambda row: None),
]


@pytest.mark.parametrize("error, make_bad", [(e, m) for _n, e, m in BAD_ROWS],
                         ids=[name for name, *_ in BAD_ROWS])
def test_bad_value_raises_the_same_error_in_a_batch(error, make_bad):
    rng = random.Random(7)
    bad = make_bad(_good_row(rng))
    with pytest.raises(error):
        encode_records(PARITY_SCHEMA, [RecordHeader(1, 1)], [bad])
    for size in (2, 9, 40):
        rows = [_good_row(rng) for _ in range(size)]
        rows[rng.randrange(size)] = bad
        headers = [RecordHeader(vid, 1, tombstone=rng.random() < 0.2 and row is not bad)
                   for vid, row in enumerate(rows)]
        rows = [None if h.tombstone else row for h, row in zip(headers, rows)]
        with pytest.raises(error):
            encode_records(PARITY_SCHEMA, headers, rows)


def test_tombstone_with_values_raises_in_a_batch():
    rng = random.Random(8)
    rows = [_good_row(rng) for _ in range(5)]
    headers = [RecordHeader(vid, 1) for vid in range(5)]
    headers[3].tombstone = True
    with pytest.raises(TypeMismatch):
        encode_records(PARITY_SCHEMA, headers[3:4], rows[3:4])
    with pytest.raises(TypeMismatch):
        encode_records(PARITY_SCHEMA, headers, rows)


def test_only_typed_errors_escape():
    schema = Schema("u", [("s", VarChar(10), False), ("m", Decimal(4, 1), False)])
    for bad in [(chr(0xD800), D(1)), ("x", D("sNaN")), ("x", 1.5), (b"x", D(1)), ("x", [1])]:
        with pytest.raises(NdtError):
            encode_records(schema, [RecordHeader(1, 1)], [bad])


@pytest.mark.parametrize("max_len, size, error, message", [
    (0xFFFF, 0x10000, VarCharTooLong, "a value of more than 0xFFFF bytes"),
    (70000, 0x10000, RecordTooLarge, "a value of more than 0xFFFF bytes"),
    (9000, 8500, RecordTooLarge, "record of 8528 bytes exceeds 8176"),
], ids=["past_u16_in_varchar_65535", "past_u16_in_varchar_70000", "past_the_page"])
def test_a_value_too_long_for_its_record_raises_its_named_error(max_len, size, error, message):
    schema = Schema("v", [("s", VarChar(max_len), False)])
    with pytest.raises(error, match=message):
        encode_records(schema, [RecordHeader(1, 1)], [("x" * size,)])


def test_headers_and_rows_must_pair():
    with pytest.raises(ArityMismatch):
        encode_records(PARITY_SCHEMA, [RecordHeader(1, 1)], [])


# -- decimal columns: checked a column at a time, failing like value by value ------------

def _per_value(values, _kind, ftype):
    return list(map(decimal_to_scaled, values, repeat(ftype)))


def _outcome(schema, headers, rows):
    """The records, or the class and message of what was raised."""
    try:
        return encode_records(schema, headers, rows)
    except Exception as exc:            # any class: the two sides must raise the same
        return type(exc), str(exc)


def decimal_values(ftype: Decimal, kinds) -> st.SearchStrategy:
    """Values for ``ftype``: in range and at its limits, with a fraction digit
    too many, not finite, of a wide exponent, or ints; ``kinds`` picks which."""
    whole = 10 ** (ftype.precision - ftype.scale)           # the first int out of range
    limit = 10 ** ftype.precision                           # the first scaled value out
    ints = st.one_of(st.sampled_from([whole, -whole, whole - 1, 1 - whole, 0]),
                     st.integers(-whole, whole))
    decimals = st.one_of(
        st.sampled_from([D(limit).scaleb(-ftype.scale), D(1 - limit).scaleb(-ftype.scale),
                         D(limit - 1).scaleb(-ftype.scale), D(-limit).scaleb(-ftype.scale),
                         D("NaN"), D("-NaN"), D("sNaN"), D("Infinity"), D("-Infinity"),
                         D("1E+40"), D("-0E-50"), D("0.000"), D("5E-1")]),
        st.builds(lambda n, digits: D(n).scaleb(-digits), st.integers(-limit, limit),
                  st.integers(0, ftype.scale + 2)))
    return {"int": ints, "decimal": decimals, "mixed": st.one_of(ints, decimals)}[kinds]


@st.composite
def decimal_batches(draw):
    precision = draw(st.integers(1, 18))
    ftype = Decimal(precision, draw(st.integers(0, precision)))
    schema = Schema("d", [("i", Int32(), False), ("a", ftype, False),
                          ("b", Decimal(18, 4), True), ("s", VarChar(4), False)])
    kinds = draw(st.sampled_from(["decimal", "int", "mixed"]))
    row = st.tuples(st.integers(0, 9), decimal_values(ftype, kinds),
                    st.one_of(st.none(), decimal_values(Decimal(18, 4), kinds)),
                    st.sampled_from(["", "ab", "abcd", "abcde"]))
    rows = draw(st.lists(row, min_size=1, max_size=16))
    return schema, [RecordHeader(vid, 1) for vid in range(len(rows))], rows


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(decimal_batches())
def test_decimal_columns_encode_like_per_value_conversion(batch):
    schema, headers, rows = batch
    got = _outcome(schema, headers, rows)
    with mock.patch.object(layout, "_scaled_column", _per_value):
        assert got == _outcome(schema, headers, rows)


@pytest.mark.parametrize("bad", [D("sNaN"), D("-sNaN"), D("sNaN123")])
def test_a_signalling_nan_is_a_type_mismatch_in_any_column(bad):
    schema = Schema("n", [("m", Decimal(6, 2), False)])
    for at in (0, 5, 9):
        rows = [(D("1.25"),)] * 10
        rows[at] = (bad,)
        with pytest.raises(TypeMismatch, match="is not a finite number"):
            encode_records(schema, [RecordHeader(vid, 1) for vid in range(10)], rows)


def test_a_valid_decimal_column_is_not_converted_value_by_value():
    schema = Schema("v", [("m", Decimal(6, 2), False), ("n", Decimal(4, 0), False)])
    rows = [(D(k).scaleb(-2), k % 10_000) for k in range(-500, 500)]
    headers = [RecordHeader(vid, 1) for vid in range(len(rows))]
    with mock.patch.object(layout, "decimal_to_scaled", side_effect=decimal_to_scaled) as spy:
        encode_records(schema, headers, rows)
        assert spy.call_count == 0
        rows[700] = (D("0.125"), 0)
        with pytest.raises(TypeMismatch, match="more than 2 fraction digits"):
            encode_records(schema, headers, rows)
        assert spy.call_count == 701       # the failing column, value by value up to its fault
