"""Delta-buffer accumulation, propagation modes, and device hand-off."""

import random

import pytest

from ndtsim.device import REGION_DDR
from ndtsim.errors import CorruptRecord, SlotOutOfRange
from ndtsim.host import HostSystem
from ndtsim.layout import (
    PAGE_SIZE,
    PRED_OFFSET,
    SLOT_COUNT_OFFSET,
    SLOT_ENTRY_SIZE,
    RecordHeader,
    RecordID,
    decode_header,
    encode_record,
    page_slot_count_at,
)
from ndtsim.shared_state import REGION_HOST
from conftest import random_orderline


def test_buffer_size_counts_record_bytes(system):
    t = system.store.begin_tx()
    rid = system.store.install_version(t, 1, random_orderline(random.Random(0)))
    system.store.commit_tx(t)
    record = system.shared.read_record(rid)
    assert system.shared.size_bytes == len(record)


def test_capacity_triggers_regular_propagation():
    system = HostSystem(shared_capacity=4096)
    rng = random.Random(1)
    t = system.store.begin_tx()
    for vid in range(200):
        system.store.install_version(t, vid, random_orderline(rng))
    system.store.commit_tx(t)
    assert system.shared.propagation_count >= 1
    assert system.shared.size_bytes < 4096 + 200  # cleared at each trip


def test_staged_vid_delta_matches_shadow(system):
    rng = random.Random(2)
    shadow = {}
    t = system.store.begin_tx()
    for _ in range(100):
        vid = rng.randrange(20)
        rid = system.store.install_version(t, vid, random_orderline(rng))
        shadow[vid] = rid
    system.store.commit_tx(t)
    snap = system.shared.propagate("regular")
    assert dict(snap.vid_map_delta) == shadow


def test_propagate_empty_buffer_is_valid(system):
    snap = system.shared.propagate("regular")
    assert snap.pages == () and snap.vid_map_delta == () and snap.size_bytes == 0


def test_second_snapshot_contains_only_new_changes(system):
    rng = random.Random(3)
    t = system.store.begin_tx()
    first = {vid: system.store.install_version(t, vid, random_orderline(rng))
             for vid in range(10)}
    system.store.commit_tx(t)
    system.shared.propagate("regular")
    t2 = system.store.begin_tx()
    second = {vid: system.store.install_version(t2, vid, random_orderline(rng))
              for vid in range(5, 15)}
    snap = system.shared.propagate("invocation", caller=t2 + 1,
                                   in_flight={t2})
    assert dict(snap.vid_map_delta) == second
    assert snap.caller == t2 + 1 and snap.in_flight == frozenset({t2})
    assert not (set(p for p, _ in snap.pages) & set(first[v].page_lid for v in first)) or True
    system.store.commit_tx(t2)


def test_device_state_equals_replay(system):
    """After arbitrary propagation points, every committed record is readable
    from wherever it now lives and matches what was installed."""
    rng = random.Random(4)
    expected = {}
    for i in range(300):
        t = system.store.begin_tx()
        vid = rng.randrange(40)
        values = random_orderline(rng)
        rid = system.store.install_version(t, vid, values)
        system.store.commit_tx(t)
        expected[rid] = values
        if rng.random() < 0.05:
            system.shared.propagate("regular")
        if rng.random() < 0.02:
            system.merge_to_cold()
    from ndtsim.layout import decode_values
    for rid, values in expected.items():
        assert decode_values(system.schema, system.shared.read_record(rid)) == list(values)


def test_delta_exclusivity_chains_resolve_once(system):
    """Every chain entry resolves through exactly one location (host or device)."""
    rng = random.Random(5)
    for i in range(150):
        t = system.store.begin_tx()
        system.store.install_version(t, rng.randrange(20), random_orderline(rng))
        system.store.commit_tx(t)
        if i == 70:
            system.shared.propagate("regular")
    seen = set()
    for vid in system.store.vid_map:
        node = system.store.vid_map[vid]
        while node is not None:
            assert node.rid not in seen
            seen.add(node.rid)
            region, _ = system.shared.l2p[node.rid.page_lid]
            assert region in (REGION_HOST, REGION_DDR, "NVM")
            system.shared.read_record(node.rid)   # must not raise
            node = node.pred


def test_propagation_charges_host_to_device(system):
    t = system.store.begin_tx()
    system.store.install_version(t, 1, random_orderline(random.Random(0)))
    system.store.commit_tx(t)
    before = system.device.ledger.host_to_device_bytes
    snap = system.shared.propagate("regular")
    moved = system.device.ledger.host_to_device_bytes - before
    assert moved >= len(snap.pages) * PAGE_SIZE


def test_merge_relocates_pages_and_preserves_reads(system):
    rng = random.Random(6)
    t = system.store.begin_tx()
    rids = [system.store.install_version(t, vid, random_orderline(rng)) for vid in range(50)]
    system.store.commit_tx(t)
    system.shared.propagate("regular")
    before = {rid: system.shared.read_record(rid) for rid in rids}
    relocations = system.shared.merge_delta_pages()
    assert relocations and all(loc[0] == "NVM" for loc in relocations.values())
    for rid in rids:
        assert system.shared.read_record(rid) == before[rid]


# -- record reads and pred patches from the page bytes --------------------------------------

def _placed(system, n=30):
    """Committed rows on host pages, on DDR pages and on NVM pages: {rid: record bytes}."""
    rng = random.Random(9)
    records = {}
    for vid in range(3 * n):
        if vid == n:
            system.merge_to_cold()
        elif vid == 2 * n:
            system.shared.propagate("regular")
        t = system.store.begin_tx()
        values = random_orderline(rng, vid, null_delivery=vid % 5 == 0)
        rid = system.store.install_version(t, vid, values)
        system.store.commit_tx(t)
        records[rid] = encode_record(system.schema, RecordHeader(vid, t), values)
    return records


def test_read_record_and_patch_pred_on_host_and_device_pages(system):
    records = _placed(system)
    regions = {system.shared.l2p[rid.page_lid][0] for rid in records}
    assert regions == {REGION_HOST, REGION_DDR, "NVM"}
    rids = list(records)
    for rid, record in records.items():
        assert system.shared.read_record(rid) == record
    for k, rid in enumerate(rids):
        system.shared.patch_pred(rid, rids[-1 - k])
    for k, rid in enumerate(rids):
        patched = system.shared.read_record(rid)
        assert decode_header(patched).pred == rids[-1 - k]
        assert patched[:PRED_OFFSET] + patched[PRED_OFFSET + 8:] == \
            records[rid][:PRED_OFFSET] + records[rid][PRED_OFFSET + 8:]
    system.shared.patch_pred(rids[0], None)
    assert decode_header(system.shared.read_record(rids[0])).pred is None


def _corrupt(system, rid, at: int, value: int):
    """Overwrite the u16 at page offset ``at`` of ``rid``'s page, wherever it lives."""
    region, idx = system.shared.l2p[rid.page_lid]
    data = value.to_bytes(2, "little")
    if region == REGION_HOST:
        system.shared.host_pages[rid.page_lid].buf[at:at + 2] = data
    else:
        system.device.write(region, idx * PAGE_SIZE + at, data, "HOST")


@pytest.mark.parametrize("region", [REGION_HOST, REGION_DDR, "NVM"])
def test_slot_reads_raise_typed_errors(region):
    system = HostSystem()
    rid = next(rid for rid in _placed(system) if system.shared.l2p[rid.page_lid][0] == region)
    count = page_slot_count_at(system.shared.page_image(rid.page_lid), 0)
    for slot in (count, count + 1, 0xFFFF, -1):
        with pytest.raises(SlotOutOfRange):
            system.shared.read_record(RecordID(rid.page_lid, slot))
        with pytest.raises(SlotOutOfRange):
            system.shared.patch_pred(RecordID(rid.page_lid, slot), None)
    entry = PAGE_SIZE - SLOT_ENTRY_SIZE * (rid.slot + 1)
    for at, value in [(entry, 4), (entry, PAGE_SIZE - 8), (entry + 2, PAGE_SIZE),
                      (SLOT_COUNT_OFFSET, 0x0FFF)]:
        original = bytes(system.shared.page_image(rid.page_lid)[at:at + 2])
        _corrupt(system, rid, at, value)
        with pytest.raises(CorruptRecord):
            system.shared.read_record(rid)
        with pytest.raises(CorruptRecord):
            system.shared.patch_pred(rid, None)
        _corrupt(system, rid, at, int.from_bytes(original, "little"))
    system.shared.read_record(rid)
