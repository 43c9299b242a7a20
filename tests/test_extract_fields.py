"""The batch field extractor against the per-record reference decoder.

``layout.extract_fields`` groups a batch's records by (region, null mask)
and reads each group's fixed parts with one structured gather.  Over random
schemas with null bitmaps of one to three bytes, rows with no NULL, some or
all NULL, tombstones, batches whose records lie in both regions and a
record that ends on its region's last byte, every projected value it
extracts must be what ``decode_values`` decodes from the record alone.

The records are read where they lie, so no array viewing a region may
outlive the extraction: a space grant after it may grow the region.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndtsim import layout
from ndtsim.columns import canonical_compare
from ndtsim.delta import masked_view
from ndtsim.device import REGIONS, Device, DeviceConfig, op_total
from ndtsim.host import HostSystem
from ndtsim.layout import (
    PAGE_SIZE,
    TC_DECIMAL,
    TC_VARCHAR,
    RecordHeader,
    Schema,
    decimal_to_scaled,
    encode_records,
    extract_fields,
)
from conftest import undersized
from reference import decode_values
from test_encode_records import field_types, values_of

PAGES = 2                       # per region; every batch below fits in one


@st.composite
def schemas(draw):
    """1 to 24 attributes (a null bitmap of 1 to 3 bytes); sometimes every
    one nullable, so a live row can be all NULL."""
    size = draw(st.integers(1, 3))
    n = draw(st.integers(8 * (size - 1) + 1, 8 * size))
    every_nullable = draw(st.booleans())
    return Schema("t", [(f"a{i}", draw(field_types), every_nullable or draw(st.booleans()))
                        for i in range(n)])


@st.composite
def batches(draw):
    """A schema, a projection of it, its records and each record's region."""
    schema = draw(schemas())
    n = draw(st.integers(1, 10))
    headers = [RecordHeader(k, 1, None, draw(st.integers(0, 5)) == 0) for k in range(n)]
    rows = []
    for header in headers:
        if header.tombstone:
            rows.append(None)
            continue
        nulls = draw(st.sampled_from(["none", "some", "all"]))
        row = []
        for attr in schema.attributes:
            null = attr.nullable and (nulls == "all" or nulls == "some" and draw(st.booleans()))
            row.append(None if null else draw(values_of(attr.ftype)))
        rows.append(tuple(row))
    codes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):           # both regions in the batch
        codes[0], codes[-1] = 0, 1
    attrs = tuple(draw(st.permutations(range(schema.n_attrs))))[:draw(
        st.integers(1, schema.n_attrs))]
    return schema, attrs, encode_records(schema, headers, rows), codes


def _loaded(records, codes):
    """A device holding the records, each region's last record ending on the
    region's last byte, and their (region codes, offsets, lengths)."""
    device = Device(DeviceConfig(ddr_capacity_pages=2 * PAGES, nvm_capacity_pages=2 * PAGES))
    ends = []
    for region in REGIONS:
        device.allocate_pages(region, PAGES, "data")
        ends.append(0)
    offsets = [0] * len(records)
    last = {code: k for k, code in enumerate(codes)}
    for k, (record, code) in enumerate(zip(records, codes)):
        offsets[k] = PAGES * PAGE_SIZE - len(record) if last[code] == k else ends[code]
        device.write(REGIONS[code], offsets[k], record, 0)
        ends[code] = offsets[k] + len(record) + 3
    return device, (np.array(codes, dtype=np.uint8), np.array(offsets, dtype=np.int64),
                    np.array(list(map(len, records)), dtype=np.int64))


def _word(ftype, value) -> int:
    return decimal_to_scaled(value, ftype) if ftype.code == TC_DECIMAL else value


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_extract_fields_matches_decode_values(batch):
    schema, attrs, records, codes = batch
    device, placed = _loaded(records, codes)
    columns = extract_fields(schema, device.pe_read_records(0, *placed), *placed, attrs)
    assert len(columns) == len(attrs)
    expected = [decode_values(schema, record) for record in records]
    for column, i in zip(columns, attrs):
        ftype = schema.attributes[i].ftype
        values = [row[i] for row in expected]
        assert column.present.tolist() == [value is not None for value in values]
        if ftype.code == TC_VARCHAR:
            assert column.sizes.tolist() == [len((value or "").encode()) for value in values]
            assert column.data.tobytes() == "".join(value or "" for value in values).encode()
        else:
            assert column.data.tolist() == [0 if value is None else _word(ftype, value)
                                            for value in values]
    for region in REGIONS:                      # no view of a region outlives the extraction
        device.allocate_pages(region, 1, "grow")


def _granted_materialization(system):
    """A full materialization of ``system``'s cold table whose flush replay,
    which follows the extraction of every batch, runs out of result pages
    and is granted more.  No NVM page has been freed, so each grant grows
    the region."""
    before = op_total(system.device.ledger, "space_request")
    with undersized(0.3):
        inv, handle = system.transform_snapshot()
    assert op_total(system.device.ledger, "space_request") > before
    return inv, handle


def _cold_system() -> HostSystem:
    system = HostSystem(DeviceConfig())
    system.load_orderlines(1500, seed=23)
    system.merge_to_cold()
    return system


def test_a_grant_that_grows_nvm_after_the_extraction_succeeds():
    system = _cold_system()
    inv, handle = _granted_materialization(system)
    assert canonical_compare(masked_view(handle), system.oracle_column_set(inv.descriptor)).equal


def test_a_region_view_left_by_the_extraction_would_fail_the_grant():
    """The same materialization, with an extraction that keeps a view of
    every buffer it reads: the grant cannot grow NVM."""
    system = _cold_system()
    views = []
    gather = layout.gather_words

    def leaky(buf, dtype, positions):
        views.append(np.frombuffer(buf, dtype=np.uint8))
        return gather(buf, dtype, positions)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layout, "gather_words", leaky)
        with pytest.raises(BufferError):
            _granted_materialization(system)
    assert views
