"""One-pass extraction against the per-PE transform it replaced.

``engine.transform_record`` loads an invocation's whole changed-rows table
in one ``pe_read_records`` call, extracts it with one
``layout.extract_fields`` call, and then plans each PE's flushes on its
slice.  The reference is the per-PE transform
(``reference_flushes.pe_flushes``): each PE loads and extracts its own
rows, and plans its flushes one partition at a time.  Over random schemas,
PE counts, per-PE row counts (zeros included), records in both regions and
the refresh re-deal, the two must give equal flushes and charge every PE
the same.  A corrupt
record raises the first fault in ``extract_fields``' documented check
order, and an out-of-range load its first bad record in batch order,
whichever PE holds it, also through a whole invocation.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndtsim import engine
from ndtsim.device import REGION_DDR, REGION_NVM, REGIONS, Device, DeviceConfig
from ndtsim.engine import (
    MODE_STREAM,
    ChangedRows,
    IdentityIndex,
    run_invocation,
    schedule,
    transform_record,
    walk,
)
from ndtsim.errors import CorruptRecord, OutOfRange
from ndtsim.host import HostSystem
from ndtsim.layout import PAGE_SIZE, Int32, Schema, VarChar
from conftest import Harness, page_of
from reference_flushes import as_tuples, pe_flushes
from test_batch_path import _tables


def _walked(schema, rows, pe_count: int, cold: int):
    """A harness whose first ``cold`` rows were merged to NVM and the rest
    left in the DDR delta mirror, a full invocation, its scratchpad plan and
    the changed rows its walk found."""
    h = Harness(schema)
    if cold:
        h.install_rows({vid: row for vid, row in enumerate(rows[:cold], start=1)})
        h.shared.propagate()
        h.shared.merge_delta_pages()
    if len(rows) > cold:
        h.install_rows({vid: row for vid, row in enumerate(rows[cold:], start=cold + 1)})
    inv = h.prepare(pe_count=pe_count, pages=4)
    caps, rows = schedule(inv, h.device)
    changed, _removed, _hidden = walk(rows, inv, h.device, IdentityIndex.empty(), probe=False)
    return h, inv, caps, changed


def _deal(changed: ChangedRows, pe_count: int, how: str, cuts) -> ChangedRows:
    """The walked rows as walked, re-dealt round-robin as a refresh does (PE
    k takes every ``pe_count``-th row from row k), or as contiguous runs cut
    at ``cuts``."""
    n = len(changed.vids)
    if how == "walked":
        return changed
    if how == "redeal":
        parts = [changed.take(slice(pe, None, pe_count)) for pe in range(pe_count)]
        return ChangedRows(*map(np.concatenate, zip(*(
            part._replace(pes=np.full(len(part.vids), pe)) for pe, part in enumerate(parts)))))
    bounds = [0, *sorted(cut % (n + 1) for cut in cuts), n]
    return changed._replace(pes=np.repeat(np.arange(pe_count), np.diff(bounds)))


def _charged(device, run) -> tuple:
    """What ``run()`` returns and the ledger delta it charges."""
    before = device.ledger.snapshot()
    out = run()
    return out, device.ledger.delta_since(before)


@contextmanager
def counted_calls(device):
    """Counts the record loads and field extractions made within the block."""
    calls = Counter()

    def counting(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device, "pe_read_records", counting("loads", device.pe_read_records))
        patch.setattr(engine, "extract_fields", counting("extractions", engine.extract_fields))
        yield calls


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables(), pe_count=st.integers(1, 8), cold_share=st.floats(0, 1),
       how=st.sampled_from(["walked", "redeal", "cut"]),
       cuts=st.lists(st.integers(0, 1000), min_size=7, max_size=7))
def test_pooled_extraction_matches_the_per_pe_transform(table, pe_count, cold_share, how,
                                                       cuts):
    schema, rows = table
    h, inv, caps, walked = _walked(schema, rows, pe_count, int(cold_share * len(rows)))
    changed = _deal(walked, pe_count, how, cuts[:pe_count - 1])
    assert np.all(np.diff(changed.pes) >= 0)
    with counted_calls(h.device) as calls:
        pooled, pooled_charge = _charged(
            h.device, lambda: as_tuples(transform_record(caps, changed, inv, h.device), pe_count))
    reference, reference_charge = _charged(h.device, lambda: sorted(
        (f for pe in range(pe_count) for f in pe_flushes(caps, pe, changed.take(changed.pes == pe),
                                                         inv, h.device)),
        key=lambda flush: flush[:3]))

    assert (calls["loads"], calls["extractions"]) == ((1, 1) if len(changed.vids) else (0, 0))
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


def _corrupt(h, inv, payload_vid: int, length_vid: int):
    """Give ``payload_vid``'s varchar a payload past its record's end and
    ``length_vid``'s slot a record length shorter than a record header."""
    page, _, off = _slot_entry(h, inv, payload_vid)
    page[off + 32:off + 34] = (0xFF).to_bytes(2, "little")        # the varchar's length prefix
    page, entry, _ = _slot_entry(h, inv, length_vid)
    page[entry + 2:entry + 4] = (10).to_bytes(2, "little")        # the record's length


SMALL = Schema("t", [("a", Int32(), False), ("s", VarChar(16), False)])


def test_a_corrupt_batch_raises_the_first_fault_in_check_order():
    """PE 0's record has a varchar payload past its end, PE 1's a slot
    length shorter than a record header.  The one-pass extraction checks
    every header before any field, so it raises PE 1's fault, though each
    PE's rows on their own raise their own."""
    h = Harness(SMALL)
    h.install_rows({vid: (vid, "x" * vid) for vid in range(1, 9)})
    inv = h.prepare(pe_count=2, pages=4)
    _corrupt(h, inv, payload_vid=5, length_vid=4)                 # vid 5: PE 0, vid 4: PE 1
    caps, rows = schedule(inv, h.device)
    changed, _removed, _hidden = walk(rows, inv, h.device, IdentityIndex.empty(), probe=False)
    assert changed.pes.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    with pytest.raises(CorruptRecord) as pooled:
        transform_record(caps, changed, inv, h.device)
    assert str(pooled.value) == "record shorter than its header"
    with pytest.raises(CorruptRecord, match="varlen field 1 payload past record end"):
        pe_flushes(caps, 0, changed.take(changed.pes == 0), inv, h.device)
    with pytest.raises(CorruptRecord, match="shorter than its header"):
        pe_flushes(caps, 1, changed.take(changed.pes == 1), inv, h.device)


def test_a_corrupt_full_materialization_raises_after_one_extraction():
    """A full materialization over four PEs whose corrupt records lie in
    PEs 1 and 3: PE 3's short record fails the header check, which the
    one-pass extraction makes before it reads PE 1's varchar.  The
    invocation raises PE 3's fault after one load and one extraction, and
    frees every page it took."""
    h = Harness(SMALL)
    h.install_rows({vid: (vid, "x" * (vid % 16)) for vid in range(1, 41)})
    inv = h.prepare(pe_count=4, pages=4)
    _corrupt(h, inv, payload_vid=6, length_vid=8)                 # vid 6: PE 1, vid 8: PE 3
    free = h.device.free_page_count(REGION_NVM)
    with counted_calls(h.device) as calls, pytest.raises(CorruptRecord) as failure:
        run_invocation(inv, h.device, h.grantor)
    assert str(failure.value) == "record shorter than its header"
    assert (calls["loads"], calls["extractions"]) == (1, 1)
    assert h.device.owner_pages(inv.owner) == set()
    assert h.device.free_page_count(REGION_NVM) == free + 4


def test_an_invocation_loads_and_extracts_its_changed_rows_once():
    """A first materialization, a stream and a refresh each load their
    changed rows with one ``pe_read_records`` call and extract them with one
    ``extract_fields`` call, however many rows each PE holds."""
    system = HostSystem()
    shadow = system.load_orderlines(5000, seed=3)
    system.merge_to_cold()
    with counted_calls(system.device) as calls:
        _, handle = system.transform_snapshot(pe_count=2)
    assert (calls["loads"], calls["extractions"], handle.total_positions) == (1, 1, 5000)
    with counted_calls(system.device) as calls:
        system.transform_snapshot(mode=MODE_STREAM, pe_count=8)
    assert (calls["loads"], calls["extractions"]) == (1, 1)
    t = system.store.begin_tx()
    vids = sorted(shadow)[::3]
    system.store.install_versions(t, vids, [shadow[vid] for vid in vids])
    system.store.commit_tx(t)
    with counted_calls(system.device) as calls:
        system.delta_refresh(handle, pe_count=8)
    assert (calls["loads"], calls["extractions"]) == (1, 1)
    assert handle.total_positions == 5000 + len(vids)


@pytest.mark.parametrize("records, first", [
    # an NVM record before a DDR one: region by region would name the DDR one
    ([(0, REGION_DDR, 0), (0, REGION_NVM, PAGE_SIZE - 4), (1, REGION_DDR, PAGE_SIZE - 2),
      (1, REGION_NVM, 0)], (REGION_NVM, PAGE_SIZE - 4)),
    # one PE's NVM record before its DDR one: PE by PE, DDR first, would name the DDR one
    ([(0, REGION_NVM, PAGE_SIZE - 6), (0, REGION_DDR, PAGE_SIZE - 4), (1, REGION_DDR, 0)],
     (REGION_NVM, PAGE_SIZE - 6)),
])
def test_an_out_of_range_batch_names_its_first_bad_record(records, first):
    """Each record is (PE, region, offset) and 8 bytes long, in regions of
    one page each.  The load checks every record against its own region
    in one pass and names the first bad one in batch order, ``first``,
    before it charges anything."""
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
