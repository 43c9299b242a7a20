"""Pooled extraction against the per-PE transform it replaced.

``engine.run_jobs`` extracts the changed rows of consecutive PEs in one
batch (``transform_batches``, at most ``TRANSFORM_BATCH_ROWS`` rows unless
one PE holds more) and then plans each PE's flushes on its slice.  The
reference below is the per-PE transform: each PE loads and extracts its
own rows.  Over random schemas, PE counts, per-PE row counts
(zeros included), bounds just under and just over a batch's rows, records
in both regions and the refresh re-deal, the two must give equal flush
lists and charge every PE the same.  A corrupt record or an out-of-range
load must raise the error the per-PE order meets first.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndtsim import engine
from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    OFFSETS_DTYPE,
    VALIDITY_DTYPE,
    VID_COLUMN,
    VID_DTYPE,
    pack_bits,
    varchar_offsets,
)
from ndtsim.device import REGION_DDR, REGION_NVM, REGIONS, Device, DeviceConfig
from ndtsim.engine import (
    ChangedRows,
    IdentityIndex,
    schedule,
    transform_batches,
    transform_record,
    walk,
)
from ndtsim.errors import CorruptRecord, OutOfRange
from ndtsim.layout import (
    PAGE_SIZE,
    TC_TIMESTAMP,
    TC_VARCHAR,
    Int32,
    Schema,
    VarChar,
    extract_fields,
    pg_timestamp_to_unix_epoch,
)
from conftest import Harness, page_of
from test_batch_path import _tables


def per_pe_flushes(job, inv, device) -> list:
    """One PE's flushes, its rows loaded and extracted on their own."""
    rows = job.changed
    n = len(rows.vids)
    if n == 0:
        return []
    buffers = device.pe_read_records(job.pe, rows.regions, rows.offsets, rows.lengths)
    columns = extract_fields(inv.schema, buffers, rows.regions, rows.offsets, rows.lengths,
                             tuple(attr_idx for attr_idx, *_ in inv.proj_plan))
    flushes, tails = [], []
    for slot, (attr_idx, name, ftype, code, nullable) in enumerate(inv.proj_plan):
        present, data, sizes = columns[slot].present, columns[slot].data, columns[slot].sizes
        planned = {}
        if code == TC_VARCHAR:
            planned[KIND_VALUES] = engine._payload_flushes(data, sizes,
                                                           job.caps[name, KIND_VALUES])
        else:
            width, dtype = ftype.width, f"<i{ftype.width}"
            values = pg_timestamp_to_unix_epoch(data) if code == TC_TIMESTAMP else data
            values = np.where(present, values, 0).astype(dtype, copy=False)
            planned[KIND_VALUES] = engine._element_flushes(
                values.view(np.uint8), width, job.caps[name, KIND_VALUES], n, lambda e: e,
                engine._FLUSH_VALUES)
        if nullable:
            bits = pack_bits(present)
            planned[KIND_VALIDITY] = engine._element_flushes(
                bits, VALIDITY_DTYPE.itemsize, job.caps[name, KIND_VALIDITY], len(bits),
                lambda e: 8 * e, engine._FLUSH_VALIDITY)
        if code == TC_VARCHAR:
            offsets = varchar_offsets(sizes).view(np.uint8)
            planned[KIND_OFFSETS] = engine._element_flushes(
                offsets, OFFSETS_DTYPE.itemsize, job.caps[name, KIND_OFFSETS], n + 1,
                lambda e: e - 1, engine._FLUSH_OFFSETS)
        for kind, (mid, tail) in planned.items():
            flushes.extend((row, job.pe, engine._FLUSHES_PER_ATTR * slot + position,
                            (name, kind), data.tobytes()) for row, position, data in mid)
            tails.append(((name, kind), tail))
    tails.append(((VID_COLUMN, KIND_VALUES), rows.vids.astype(VID_DTYPE).view(np.uint8)))
    flushes.extend((n, job.pe, position, key, data.tobytes())
                   for position, (key, data) in enumerate(tails) if len(data))
    return flushes


def _walked_jobs(schema, rows, pe_count: int, cold: int):
    """A harness whose first ``cold`` rows were merged to NVM and the rest
    left in the DDR delta mirror, and the walked jobs of a full invocation."""
    h = Harness(schema)
    if cold:
        h.install_rows({vid: row for vid, row in enumerate(rows[:cold], start=1)})
        h.shared.propagate()
        h.shared.merge_delta_pages()
    if len(rows) > cold:
        h.install_rows({vid: row for vid, row in enumerate(rows[cold:], start=cold + 1)})
    inv = h.prepare(pe_count=pe_count, pages=4)
    jobs = schedule(inv, h.device)
    walk(jobs, inv, h.device, IdentityIndex.empty(), probe=False)
    return h, inv, jobs


def _deal(jobs, how: str, cuts):
    """Give the jobs their rows: as walked, re-dealt round-robin as a refresh
    does, or as contiguous runs of the walked rows cut at ``cuts``."""
    if how == "walked":
        return
    changed = ChangedRows.concat([job.changed for job in jobs])
    bounds = [0, *sorted(cut % (len(changed.vids) + 1) for cut in cuts), len(changed.vids)]
    for job in jobs:
        if how == "redeal":
            job.changed = changed.take(slice(job.pe, None, len(jobs)))
        else:
            job.changed = changed.take(slice(bounds[job.pe], bounds[job.pe + 1]))


def _charged(device, run) -> tuple:
    """What ``run()`` returns and the ledger delta it charges."""
    before = device.ledger.snapshot()
    out = run()
    return out, device.ledger.delta_since(before)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables(), pe_count=st.integers(1, 8), cold_share=st.floats(0, 1),
       how=st.sampled_from(["walked", "redeal", "cut"]),
       cuts=st.lists(st.integers(0, 1000), min_size=7, max_size=7),
       split=st.integers(0, 7), slack=st.sampled_from([-1, 0, 1, None]))
def test_pooled_extraction_matches_the_per_pe_transform(table, pe_count, cold_share, how,
                                                       cuts, split, slack):
    schema, rows = table
    h, inv, jobs = _walked_jobs(schema, rows, pe_count, int(cold_share * len(rows)))
    _deal(jobs, how, cuts[:pe_count - 1])
    # a bound just under, at or just over the rows of the first jobs, or the default
    bound = engine.TRANSFORM_BATCH_ROWS if slack is None else max(
        0, sum(job.rows for job in jobs[:split % pe_count + 1]) + slack)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "TRANSFORM_BATCH_ROWS", bound)
        batches = transform_batches(jobs)
        pooled, pooled_charge = _charged(h.device, lambda: [
            f for batch in batches for f in transform_record(batch, inv, h.device)])
    reference, reference_charge = _charged(h.device, lambda: [
        f for job in jobs for f in per_pe_flushes(job, inv, h.device)])

    assert [job for batch in batches for job in batch.jobs] == jobs
    for batch, after in zip(batches, batches[1:] + [None]):
        total = sum(job.rows for job in batch.jobs)
        assert len(batch.jobs) == 1 or total <= bound
        if after is not None:
            assert total + after.jobs[0].rows > bound     # the next job did not fit
        assert np.broadcast_to(batch.pes, total).tolist() == [
            job.pe for job in batch.jobs for _ in range(job.rows)]
    assert pooled == reference
    assert pooled_charge == reference_charge


def _slot_entry(h, inv, vid: int):
    """The page of ``vid``'s record (an uncharged view), the position of its
    slot entry in the page and the record's offset."""
    head = dict(inv.vid_view.tolist())[vid]
    region, idx = page_of(inv.l2p_view, head >> 16)
    page = h.device.peek(region, idx * PAGE_SIZE, PAGE_SIZE)
    entry = PAGE_SIZE - 4 * ((head & 0xFFFF) + 1)
    return page, entry, int.from_bytes(page[entry:entry + 2], "little")


def test_a_corrupt_batch_raises_the_error_of_the_first_pe():
    """PE 0's record has a varchar payload past its end, PE 1's a slot
    length shorter than a record header.  The pooled extraction meets PE 1's
    fault first (it checks every header before any field), the per-PE
    order PE 0's."""
    schema = Schema("t", [("a", Int32(), False), ("s", VarChar(16), False)])
    h = Harness(schema)
    h.install_rows({vid: (vid, "x" * vid) for vid in range(1, 9)})
    inv = h.prepare(pe_count=2, pages=4)
    page, _, off = _slot_entry(h, inv, 5)                         # vid 5: PE 0
    page[off + 32:off + 34] = (0xFF).to_bytes(2, "little")        # the varchar's length prefix
    page, entry, _ = _slot_entry(h, inv, 4)                       # vid 4: PE 1
    page[entry + 2:entry + 4] = (10).to_bytes(2, "little")        # the record's length
    del page
    jobs = schedule(inv, h.device)
    walk(jobs, inv, h.device, IdentityIndex.empty(), probe=False)
    [batch] = transform_batches(jobs)
    assert len(batch.jobs) == 2
    with pytest.raises(CorruptRecord) as pooled:
        transform_record(batch, inv, h.device)
    with pytest.raises(CorruptRecord) as first_pe:
        per_pe_flushes(jobs[0], inv, h.device)
    assert str(pooled.value) == str(first_pe.value) == "varlen field 1 payload past record end"
    with pytest.raises(CorruptRecord, match="shorter than its header"):
        per_pe_flushes(jobs[1], inv, h.device)


@pytest.mark.parametrize("records, first", [
    # PE 0 fails in NVM, PE 1 in DDR: region by region over the batch would name PE 1's
    ([(0, REGION_DDR, 0), (0, REGION_NVM, PAGE_SIZE - 4), (1, REGION_DDR, PAGE_SIZE - 2),
      (1, REGION_NVM, 0)], (REGION_NVM, PAGE_SIZE - 4)),
    # PE 0 fails in NVM, then in DDR: record by record would name its NVM one
    ([(0, REGION_NVM, PAGE_SIZE - 6), (0, REGION_DDR, PAGE_SIZE - 4), (1, REGION_DDR, 0)],
     (REGION_DDR, PAGE_SIZE - 4)),
])
def test_an_out_of_range_batch_names_the_record_the_per_pe_loads_meet_first(records, first):
    """Each record is (PE, region, offset) and 8 bytes long, in regions of
    one page each.  Loaded PE by PE, each PE's DDR records are checked
    before its NVM ones, so ``first`` fails first."""
    device = Device(DeviceConfig())
    for region in (REGION_DDR, REGION_NVM):
        device.allocate_pages(region, 1, "x")
    pes = np.array([pe for pe, _, _ in records])
    regions = np.array([REGIONS.index(region) for _, region, _ in records])
    offsets = np.array([offset for _, _, offset in records])
    with pytest.raises(OutOfRange) as failure:
        device.pe_read_records(pes, regions, offsets, np.full(len(records), 8))
    region, offset = first
    assert str(failure.value) == f"{region}[{offset}:{offset + 8}] outside {PAGE_SIZE} bytes"
    assert device.ledger.records_processed == 0


def test_a_pooled_load_charges_each_pe_its_own_records():
    device = Device(DeviceConfig())
    device.allocate_pages(REGION_NVM, 1, "x")
    nvm = REGIONS.index(REGION_NVM)
    device.pe_read_records(np.array([2, 2, 5]), np.full(3, nvm), np.array([0, 16, 40]),
                           np.array([10, 20, 30]))
    assert device.ledger.pe_ops == {2: {"read": 2, "record_load": 2},
                                    5: {"read": 1, "record_load": 1}}
    assert (device.ledger.device_internal_bytes_read, device.ledger.nvm_reads,
            device.ledger.records_processed) == (60, 3, 3)
