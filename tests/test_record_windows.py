"""Record loads in fixed-width windows, and the batch field locator over them.

``Device.pe_read_records`` returns each record in a window as wide as the
batch's longest record.  It is compared here with one ``Device.read`` per
record: the bytes, and the ledger charges they add up to.  The windows hold
other bytes after each record, so ``locate_fields`` is fuzzed over windowed
buffers of corrupted records: only typed errors may escape, and no field it
locates may reach past its record's end.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ndtsim.device import REGION_DDR, REGION_NVM, REGIONS, Device, DeviceConfig
from ndtsim.errors import NdtError, OutOfRange
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
    locate_fields,
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
def test_windows_hold_what_per_record_reads_return(batch):
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
    buf, starts = dev.pe_read_records(PE, regions, offsets, lengths)
    charged = dev.ledger.delta_since(before)
    n, width = len(records), int(lengths.max(initial=0))
    assert buf.dtype == np.uint8 and len(starts) == n + 1
    assert starts[n] == len(buf) == n * width

    mid = dev.ledger.snapshot()
    for k, (code, offset, length) in enumerate(records):
        assert k * width <= starts[k] and starts[k] + length <= (k + 1) * width
        assert buf[starts[k]:starts[k] + length].tobytes() == dev.read(
            REGIONS[code], offset, length, PE)
    expected = dev.ledger.delta_since(mid)    # one read per record...
    if n:                                     # ...plus one record load per record
        expected["records_processed"] += n
        expected["pe_ops"][PE]["record_load"] = n
    assert charged == expected
    _regions_can_grow(dev)


# -- locate_fields over windowed buffers ------------------------------------------

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
def windowed_batches(draw):
    """A schema, its encoded records (some corrupted or cut short), the
    window width, each record's shift in its window, and two seeds for the
    bytes around the records."""
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
    slack = draw(st.integers(0, 16))
    width = max(map(len, records)) + slack
    shifts = [draw(st.integers(0, width - len(record))) for record in records]
    return schema, records, width, shifts, draw(st.integers(0, 2**32)), draw(st.integers(0, 2**32))


def _windowed(records, width: int, shifts, seed: int):
    """The records in windows of ``width`` bytes among random bytes."""
    buf = np.frombuffer(random.Random(seed).randbytes(len(records) * width), np.uint8).copy()
    starts = np.arange(len(records), dtype=np.int64) * width + np.array(shifts, dtype=np.int64)
    for start, record in zip(starts.tolist(), records):
        buf[start:start + len(record)] = np.frombuffer(bytes(record), np.uint8)
    return buf, starts


def _located(schema, buf, starts, lengths):
    """``locate_fields``'s result as lists, or its typed error as (type, message)."""
    try:
        loc = locate_fields(schema, buf, starts, lengths)
    except NdtError as exc:
        return type(exc), str(exc)
    return loc.present.tolist(), loc.start.tolist(), loc.length.tolist()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(windowed_batches())
def test_locate_fields_reads_no_window_byte_past_a_record(batch):
    schema, records, width, shifts, seed_a, seed_b = batch
    lengths = np.array(list(map(len, records)), dtype=np.int64)
    buf_a, starts = _windowed(records, width, shifts, seed_a)
    buf_b, _ = _windowed(records, width, shifts, seed_b)
    located = _located(schema, buf_a, starts, lengths)
    # the bytes around the records differ, the outcome does not
    assert _located(schema, buf_b, starts, lengths) == located
    if isinstance(located[0], type):
        return
    present, start, length = map(np.array, located)
    ends = (starts + lengths)[:, None]
    assert ((start >= starts[:, None]) & (start + length <= ends))[present].all()
    assert not length[~present].any()
