"""Record loads read in place, and the batch field extractor over them.

``Device.pe_read_records`` checks a batch's ranges, charges each record and
hands back the region buffers, in which the records are read where they
lie.  It is compared here with one ``Device.read`` per record: the bytes at
each record's range, and the ledger charges they add up to.  The regions
hold other bytes around each record, so ``extract_fields`` is fuzzed over
corrupted records among random bytes in two regions: only typed errors may
escape, the bytes around the records do not change the outcome, and what it
extracts, or the error it raises, follows from ``record_field_slices`` over
each record's own bytes.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ndtsim.device import REGION_DDR, REGION_NVM, REGIONS, Device, DeviceConfig
from ndtsim.errors import CorruptRecord, NdtError, OutOfRange
from ndtsim.host import orderline_schema
from ndtsim.layout import (
    FLAGS_OFFSET,
    PAGE_SIZE,
    RECORD_HEADER_FIXED,
    Decimal,
    Int32,
    RecordHeader,
    Schema,
    TimestampPg,
    VarChar,
    encode_records,
    extract_fields,
    record_field_slices,
)
from conftest import random_value

PE = 3
MAX_PAGES = 3


def _record(draw, size: int):
    """(offset, length) of one record in a region of ``size`` bytes."""
    kind = draw(st.sampled_from(["short", "any", "long", "at_end"]))
    if kind == "short":
        length = draw(st.integers(0, 64))
    elif kind == "long":
        length = draw(st.integers(size // 2, size))
    else:
        length = draw(st.integers(0, size))
    if kind == "at_end":                        # ends on the region's last byte
        return size - length, length
    return draw(st.integers(0, size - length)), length


@st.composite
def batches(draw):
    """Region sizes in pages, (region code, offset, length) records, a fill
    seed, and the index at which a bad range is inserted (or None)."""
    pages = (draw(st.integers(1, MAX_PAGES)), draw(st.integers(1, MAX_PAGES)))
    records = []
    for _ in range(draw(st.integers(0, 30))):
        code = draw(st.integers(0, 1))
        records.append((code, *_record(draw, pages[code] * PAGE_SIZE)))
    bad = draw(st.one_of(st.none(), st.integers(0, len(records))))
    return pages, records, draw(st.integers(0, 2**32)), bad


def _filled_device(pages, seed: int):
    dev = Device(DeviceConfig(ddr_capacity_pages=2 * MAX_PAGES,
                              nvm_capacity_pages=2 * MAX_PAGES))
    rng = random.Random(seed)
    for region, count in zip(REGIONS, pages):
        dev.allocate_pages(region, count, "data")
        dev.write(region, 0, rng.randbytes(count * PAGE_SIZE), 0)
    return dev


def _columns(records):
    return (np.array([code for code, _, _ in records], dtype=np.uint8),
            np.array([offset for _, offset, _ in records], dtype=np.int64),
            np.array([length for _, _, length in records], dtype=np.int64))


def _regions_can_grow(dev):
    for region in (REGION_DDR, REGION_NVM):
        dev.allocate_pages(region, 1, "grow")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
@example(((1, 1), [], 0, None))                                          # an empty batch
@example(((1, 3), [(0, 8000, 30), (1, 100, 20000), (0, 0, 8192)], 1, None))  # short DDR
@example(((2, 1), [(1, 8192 - 40, 40), (0, 2 * 8192 - 1, 1), (1, 0, 8)] + [(0, 64, 5)] * 9,
          2, None))                                                      # ends on the last byte
@example(((1, 1), [(0, 0, 30)], 3, 0))                                   # a bad range
def test_a_batch_load_charges_what_per_record_reads_charge(batch):
    pages, records, seed, bad = batch
    dev = _filled_device(pages, seed)
    if bad is not None:
        size = pages[1] * PAGE_SIZE
        records = records[:bad] + [(1, size - 7, 8)] + records[bad:]
        with pytest.raises(OutOfRange):
            dev.pe_read_records(PE, *_columns(records))
        _regions_can_grow(dev)
        return
    regions, offsets, lengths = _columns(records)
    before = dev.ledger.snapshot()
    buffers = dev.pe_read_records(PE, regions, offsets, lengths)
    charged = dev.ledger.delta_since(before)
    assert len(buffers) == len(REGIONS)

    mid = dev.ledger.snapshot()
    for code, offset, length in records:
        assert bytes(buffers[code][offset:offset + length]) == dev.read(
            REGIONS[code], offset, length, PE)
    expected = dev.ledger.delta_since(mid)    # one read per record...
    if records:                               # ...plus one record load per record
        expected["records_processed"] += len(records)
        expected["pe_ops"][PE]["record_load"] = len(records)
    assert charged == expected
    _regions_can_grow(dev)


# -- extract_fields over records in place ------------------------------------------

WIDE = Schema("wide", [
    ("a", Int32(), True),
    ("s", VarChar(20), True),
    ("m", Decimal(10, 2), True),
    ("t", VarChar(40), False),
    ("ts", TimestampPg(), True),
])
FIXED = Schema("fixed", [("a", Int32(), True), ("m", Decimal(18, 4), False),
                         ("ts", TimestampPg(), True)])
SCHEMAS = (orderline_schema(), WIDE, FIXED)


CORRUPTIONS = ("flags", "bitmap", "prefix")


@st.composite
def placed_batches(draw):
    """A schema, its encoded records (some corrupted or cut short), each
    record's region code and the gap before it, a projection, and two seeds
    for the bytes around the records."""
    schema = draw(st.sampled_from(SCHEMAS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 12))
    headers = [RecordHeader(k, 1, None, rng.random() < 0.1) for k in range(n)]
    encoded = encode_records(schema, headers, [
        None if h.tombstone else [random_value(rng, a) for a in schema.attributes] for h in headers])
    records = list(map(bytearray, encoded))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, n - 1))
        record, kind = records[k], draw(st.sampled_from(CORRUPTIONS))
        if kind == "flags":
            record[FLAGS_OFFSET] = draw(st.integers(0, 255))
        elif kind == "bitmap":
            at = draw(st.integers(RECORD_HEADER_FIXED, schema.header_size - 1))
            record[at] = draw(st.integers(0, 255))
        elif kind == "prefix":
            slices, _ = record_field_slices(schema, encoded[k])
            varlens = [s for i, s in enumerate(slices) if s and i in schema.varlen_plan]
            if varlens:
                start = draw(st.sampled_from(varlens))[0] - 2
                record[start:start + 2] = draw(st.integers(0, 0xFFFF)).to_bytes(2, "little")
    for record in records:                      # and some records lose their tails
        if draw(st.integers(0, 7)) == 0:
            del record[draw(st.integers(0, len(record))):]
    codes = [draw(st.integers(0, 1)) for _ in records]
    gaps = [draw(st.integers(0, 16)) for _ in records]
    attrs = tuple(draw(st.permutations(range(schema.n_attrs))))[:draw(
        st.integers(1, schema.n_attrs))]
    return (schema, records, codes, gaps, attrs, draw(st.integers(0, 2**32)),
            draw(st.integers(0, 2**32)))


def _placed(records, codes, gaps, seed: int):
    """The records in two region buffers, each after its gap of random bytes;
    the last record of a region ends on its last byte.  Returns (buffers,
    region codes, offsets, lengths)."""
    rng = random.Random(seed)
    buffers, offsets = (bytearray(), bytearray()), []
    for record, code, gap in zip(records, codes, gaps):
        buffers[code].extend(rng.randbytes(gap))
        offsets.append(len(buffers[code]))
        buffers[code].extend(record)
    return (buffers, np.array(codes, dtype=np.uint8), np.array(offsets, dtype=np.int64),
            np.array(list(map(len, records)), dtype=np.int64))


def _extracted(schema, placed, attrs):
    """``extract_fields``'s result as lists, or its typed error as (type, message)."""
    try:
        columns = extract_fields(schema, *placed, attrs)
    except NdtError as exc:
        return type(exc), str(exc)
    return [(c.present.tolist(), c.data.tobytes(), None if c.sizes is None else c.sizes.tolist())
            for c in columns]


def _first_error(schema, records) -> str:
    """The error a batch of ``records`` raises, from each record's own
    (``record_field_slices``): a short header first, then the first record
    whose fixed fields overrun it, then varlen faults by attribute, a length
    prefix before a payload."""
    faults = []
    for k, record in enumerate(map(bytes, records)):
        try:
            if len(record) < RECORD_HEADER_FIXED:
                raise CorruptRecord("record shorter than its header")
            record_field_slices(schema, record)
        except CorruptRecord as exc:
            words = str(exc).split()
            if words[0] == "record":
                faults.append((0, 0, "", str(exc)))
            elif words[0] == "fixed":
                faults.append((1, k, "", str(exc)))
            else:
                faults.append((2, int(words[2]), words[3] != "length", str(exc)))
    return min(faults)[-1]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(placed_batches())
def test_extraction_reads_no_byte_past_a_record(batch):
    schema, records, codes, gaps, attrs, seed_a, seed_b = batch
    placed_a = _placed(records, codes, gaps, seed_a)
    placed_b = _placed(records, codes, gaps, seed_b)
    extracted = _extracted(schema, placed_a, attrs)
    # the bytes around the records differ, the outcome does not
    assert _extracted(schema, placed_b, attrs) == extracted
    for buf in placed_a[0]:                     # and no view of a buffer outlives the call
        buf.extend(b"\0")
    if isinstance(extracted[0], type):
        assert extracted == (CorruptRecord, _first_error(schema, records))
        return
    for slot, i in enumerate(attrs):
        present, data, sizes = extracted[slot]
        width = schema.attributes[i].ftype.width
        payload = []
        for k, record in enumerate(map(bytes, records)):
            located = record_field_slices(schema, record)[0][i]
            assert present[k] == (located is not None)
            if width is not None:
                word = record[located[0]:located[0] + width] if located else bytes(width)
                assert data[k * width:(k + 1) * width] == word
            elif located:
                start, length = located
                assert sizes[k] == length
                payload.append(record[start:start + length])
            else:
                assert sizes[k] == 0
        if width is None:
            assert data == b"".join(payload)
