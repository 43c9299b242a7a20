"""Delta-buffer accumulation, regular and invocation propagations, and device hand-off."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndtsim.device import (
    PROP_FIXED_BYTES,
    PROP_L2P_ENTRY_BYTES,
    PROP_TX_ENTRY_BYTES,
    PROP_VID_ENTRY_BYTES,
    REGION_DDR,
    REQUESTER_COORD,
)
from ndtsim.errors import CorruptRecord, SlotOutOfRange, StaleWrite
from ndtsim.host import HostSystem
from ndtsim.layout import (
    PAGE_SIZE,
    RID_NONE,
    SLOT_COUNT_OFFSET,
    SLOT_ENTRY_SIZE,
    RecordHeader,
    RecordID,
    encode_record,
    page_slot_count_at,
    unpack_rid,
)
from ndtsim.mvcc import TOMBSTONE
from ndtsim.shared_state import REGION_HOST, SharedStateSnapshot
from conftest import random_orderline


def test_buffer_size_counts_record_bytes(system):
    t = system.store.begin_tx()
    rid = system.store.install_version(t, 1, random_orderline(random.Random(0)))
    system.store.commit_tx(t)
    record = system.shared.read_record(unpack_rid(rid))
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
        shadow[vid] = unpack_rid(rid)
    system.store.commit_tx(t)
    snap = system.shared.propagate()
    assert shipped(snap) == shadow


def shipped(snapshot) -> dict:
    """The vid-map delta a snapshot carries: {vid: RecordID | None}."""
    return dict(zip(snapshot.vids.tolist(), map(unpack_rid, snapshot.heads.tolist())))


def test_propagate_empty_buffer_is_valid(system):
    snap = system.shared.propagate()
    assert snap.pages == () and shipped(snap) == {}


def test_second_snapshot_contains_only_new_changes(system):
    rng = random.Random(3)
    t = system.store.begin_tx()
    first = {vid: unpack_rid(system.store.install_version(t, vid, random_orderline(rng)))
             for vid in range(10)}
    system.store.commit_tx(t)
    system.shared.propagate()
    t2 = system.store.begin_tx()
    second = {vid: unpack_rid(system.store.install_version(t2, vid, random_orderline(rng)))
              for vid in range(5, 15)}
    snap = system.shared.propagate({t2})
    assert shipped(snap) == second and snap.in_flight == frozenset({t2})
    assert not (set(p for p, _ in snap.pages) & set(first[v].page_lid for v in first))
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
        rid = unpack_rid(system.store.install_version(t, vid, values))
        system.store.commit_tx(t)
        expected[rid] = values
        if rng.random() < 0.05:
            system.shared.propagate()
        if rng.random() < 0.02:
            system.merge_to_cold()
    from reference import decode_values
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
            system.shared.propagate()
    seen = set()
    for vid in system.store.vid_map:
        node = system.store.vid_map[vid]
        while node is not None:
            assert node.rid not in seen
            seen.add(node.rid)
            region, _ = system.shared.l2p[unpack_rid(node.rid).page_lid]
            assert region in (REGION_HOST, REGION_DDR, "NVM")
            system.shared.read_record(unpack_rid(node.rid))   # must not raise
            node = node.pred


def test_propagation_charges_host_to_device(system):
    t = system.store.begin_tx()
    system.store.install_version(t, 1, random_orderline(random.Random(0)))
    system.store.commit_tx(t)
    before = system.device.ledger.host_to_device_bytes
    snap = system.shared.propagate()
    moved = system.device.ledger.host_to_device_bytes - before
    assert moved >= len(snap.pages) * PAGE_SIZE


def test_merge_relocates_pages_and_preserves_reads(system):
    rng = random.Random(6)
    t = system.store.begin_tx()
    rids = [unpack_rid(system.store.install_version(t, vid, random_orderline(rng)))
            for vid in range(50)]
    system.store.commit_tx(t)
    system.shared.propagate()
    before = {rid: system.shared.read_record(rid) for rid in rids}
    relocations = system.shared.merge_delta_pages()
    assert relocations and all(loc[0] == "NVM" for loc in relocations.values())
    for rid in rids:
        assert system.shared.read_record(rid) == before[rid]


def test_snapshot_arrays_are_read_only(system):
    t = system.store.begin_tx()
    system.store.install_versions(t, [4, 2], [random_orderline(random.Random(7))] * 2)
    system.store.commit_tx(t)
    built = SharedStateSnapshot(pages=(), vids=np.arange(3, dtype=np.uint64),
                                heads=np.arange(3, dtype=np.uint64), in_flight=None)
    for snap in (system.shared.propagate(), built):
        for array in (snap.vids, snap.heads):
            with pytest.raises(ValueError):
                array[0] = 1


# -- the staged vid-map delta against a dict model ------------------------------------------

# A step installs a batch as one of two writers (a vid may repeat; True
# deletes it), commits or aborts a writer, or propagates (as a regular or an
# invocation propagation).
WRITES = st.lists(st.tuples(st.integers(0, 11), st.booleans()), min_size=1, max_size=6)
STEPS = st.lists(st.tuples(st.just("install"), st.integers(0, 1), WRITES)
                 | st.tuples(st.sampled_from(["commit", "abort"]), st.integers(0, 1))
                 | st.tuples(st.just("propagate"), st.sampled_from(["regular", "invocation"])),
                 max_size=25)


def head_of(store, vid: int) -> int:
    """The packed rid of ``vid``'s chain head; ``RID_NONE`` for none."""
    node = store.vid_map.get(vid)
    return RID_NONE if node is None else node.rid


@settings(max_examples=100, deadline=None)
@given(STEPS)
@example([("install", 0, [(1, False), (2, False), (1, False)]),   # vid 1 twice in a batch
          ("commit", 0),
          ("install", 0, [(1, False), (3, True), (1, True)]),       # again, and tombstones
          ("install", 1, [(4, False)]),
          ("abort", 0),             # 1 back to its predecessor, 3 to none
          ("install", 1, [(3, False), (4, False)]),                 # 3 installed again
          ("propagate", "invocation"),
          ("install", 0, [(4, False)]),         # refused: writer 1's 4 is uncommitted
          ("abort", 1),             # 3 and 4 to none
          ("install", 0, [(5, False)]),
          ("propagate", "regular"),
          ("abort", 0)])            # 5 rolls back in the last window
@example([("install", 0, [(0, False)]), ("install", 1, [(0, False)]),
          ("propagate", "regular"), ("abort", 0)])      # a refused write, then a rollback
def test_staged_delta_matches_a_dict_model(steps):
    """Every propagation ships the last staging of each vid staged since the
    previous one, sorted by vid, is charged for exactly those entries, and
    leaves the device's vid map equal to the model."""
    system = HostSystem()
    store, shared, device = system.store, system.shared, system.device
    rng = random.Random(0)
    writers = [None, None]          # the open transaction of each writer
    written = [set(), set()]        # the vids each writer wrote
    staged = {}                     # model: vid -> packed head staged since the last propagation
    mirror = {}                     # model of the device's vid map: vid -> packed head
    propagations = 0
    for step in [*steps, ("propagate", "regular")]:
        kind, who = step[0], step[1]
        if kind == "install":
            vids = [vid for vid, _ in step[2]]
            if writers[who] is None:
                writers[who] = store.begin_tx()
            try:
                rids = store.install_versions(writers[who], vids, [
                    TOMBSTONE if delete else random_orderline(rng, vid) for vid, delete in step[2]])
            except StaleWrite:      # the other writer holds one of the vids
                continue
            staged.update(zip(vids, rids))
            written[who].update(vids)
        elif kind == "propagate":
            in_flight = set(store.in_flight) if who == "invocation" else None
            before = device.ledger.host_to_device_bytes
            snap = shared.propagate(in_flight)
            propagations += 1
            assert snap.vids.tolist() == sorted(staged)
            assert snap.heads.tolist() == [staged[vid] for vid in sorted(staged)]
            assert device.ledger.host_to_device_bytes - before == (
                PAGE_SIZE * len(snap.pages) + PROP_VID_ENTRY_BYTES * len(staged)
                + PROP_L2P_ENTRY_BYTES * len(snap.pages) + PROP_FIXED_BYTES
                + (PROP_TX_ENTRY_BYTES * (len(in_flight) + 1) if in_flight is not None else 0))
            for vid, head in staged.items():
                if head == RID_NONE:
                    mirror.pop(vid, None)
                else:
                    mirror[vid] = head
            staged.clear()
            assert device.vid_map.tolist() == sorted(mirror.items())
        elif writers[who] is not None:
            t, writers[who] = writers[who], None
            if kind == "commit":
                store.commit_tx(t)
            else:                   # a rollback stages each head it moves
                heads = {vid: head_of(store, vid) for vid in written[who]}
                store.abort_tx(t)
                staged.update((vid, head_of(store, vid)) for vid in heads
                              if head_of(store, vid) != heads[vid])
            written[who].clear()
    assert shared.propagation_count == propagations     # none was triggered by capacity


# -- record reads from the page bytes ------------------------------------------------------

def _placed(system, n=30):
    """Committed rows on host pages, on DDR pages and on NVM pages: {rid: record bytes}."""
    rng = random.Random(9)
    records = {}
    for vid in range(3 * n):
        if vid == n:
            system.merge_to_cold()
        elif vid == 2 * n:
            system.shared.propagate()
        t = system.store.begin_tx()
        values = random_orderline(rng, vid, null_delivery=vid % 5 == 0)
        rid = unpack_rid(system.store.install_version(t, vid, values))
        system.store.commit_tx(t)
        records[rid] = encode_record(system.schema, RecordHeader(vid, t), values)
    return records


def test_read_record_on_host_and_device_pages(system):
    records = _placed(system)
    regions = {system.shared.l2p[rid.page_lid][0] for rid in records}
    assert regions == {REGION_HOST, REGION_DDR, "NVM"}
    for rid, record in records.items():
        assert system.shared.read_record(rid) == record


def _corrupt(system, rid, at: int, value: int):
    """Overwrite the u16 at page offset ``at`` of ``rid``'s page, wherever it lives."""
    region, idx = system.shared.l2p[rid.page_lid]
    data = value.to_bytes(2, "little")
    if region == REGION_HOST:
        system.shared.host_pages[rid.page_lid].buf[at:at + 2] = data
    else:
        system.device.write(region, idx * PAGE_SIZE + at, data, REQUESTER_COORD)


@pytest.mark.parametrize("region", [REGION_HOST, REGION_DDR, "NVM"])
def test_slot_reads_raise_typed_errors(region):
    system = HostSystem()
    rid = next(rid for rid in _placed(system) if system.shared.l2p[rid.page_lid][0] == region)
    count = page_slot_count_at(system.shared.page_image(rid.page_lid), 0)
    for slot in (count, count + 1, 0xFFFF, -1):
        with pytest.raises(SlotOutOfRange):
            system.shared.read_record(RecordID(rid.page_lid, slot))
    entry = PAGE_SIZE - SLOT_ENTRY_SIZE * (rid.slot + 1)
    for at, value in [(entry, 4), (entry, PAGE_SIZE - 8), (entry + 2, PAGE_SIZE),
                      (SLOT_COUNT_OFFSET, 0x0FFF)]:
        original = bytes(system.shared.page_image(rid.page_lid)[at:at + 2])
        _corrupt(system, rid, at, value)
        with pytest.raises(CorruptRecord):
            system.shared.read_record(rid)
        _corrupt(system, rid, at, int.from_bytes(original, "little"))
    system.shared.read_record(rid)
