"""The batch visibility walk: a differential check and corrupt chains.

The differential test drives random transactions (aborts, writes refused
over uncommitted heads, tombstones, writers left in flight) over pages of
which some were merged to NVM and some stay in the DDR delta mirror, then
walks every tuple with 1 to 8 PEs.  Every tuple must resolve to the version
``oracle_visible_version`` picks, at the bytes the host reads for it, and
every PE must be charged one map entry per tuple and one address
resolution, slot read and header probe per version the oracle visits.
"""

import random
import struct

import numpy as np
import pytest

from ndtsim.device import MAX_SLOTS, REGION_NVM, REGIONS, REQUESTER_COORD, UNRESOLVED, op_total
from ndtsim.engine import IdentityIndex, pe_visibility_check, run_invocation, schedule, walk
from ndtsim.errors import CorruptRecord, StaleWrite
from ndtsim.layout import (
    PAGE_SIZE,
    PRED_OFFSET,
    SLOT_ENTRY_SIZE,
    Int32,
    Schema,
    page_slot_count_at,
    page_slot_entry_at,
    pack_rid,
    unpack_rid,
)
from ndtsim.mvcc import TOMBSTONE, oracle_visible_version
from conftest import Harness, page_of

SCHEMA = Schema("t", [("a", Int32(), False)])


def _random_history(seed: int, vids: int = 40, steps: int = 400):
    """Interleaved transactions on a few tuples; some stay open at the end.

    Returns the harness and the id of a transaction begun halfway through.
    """
    h = Harness(SCHEMA, capacity=4 * 1024)     # small buffer: several propagations
    rng = random.Random(seed)
    open_txs = []
    halfway = None
    for step in range(steps):
        roll = rng.random()
        if not open_txs or (roll < 0.15 and len(open_txs) < 4):
            open_txs.append(h.store.begin_tx())
            if halfway is None and step >= steps // 2:
                halfway = open_txs[-1]
        elif roll < 0.75:
            t = rng.choice(open_txs)
            values = TOMBSTONE if rng.random() < 0.1 else (step,)
            try:
                h.store.install_version(t, rng.randrange(vids), values)
            except StaleWrite:
                pass
        else:
            t = open_txs.pop(rng.randrange(len(open_txs)))
            if rng.random() < 0.3:
                h.store.abort_tx(t)
            else:
                h.store.commit_tx(t)
        if rng.random() < 0.01:
            h.shared.propagate()
            h.shared.merge_delta_pages()
    # in every history: a write refused until the older writer holding its
    # vid aborts, and a writer left in flight
    free = [vid for vid in range(vids) if vid not in h.store.vid_map
            or h.store.vid_map[vid].create_ts not in h.store.in_flight]
    below, above = h.store.begin_tx(), h.store.begin_tx()
    vid = rng.choice(free)
    h.store.install_version(below, vid, (-1,))
    with pytest.raises(StaleWrite):
        h.store.install_version(above, vid, (-2,))
    h.store.abort_tx(below)
    h.store.install_version(above, vid, (-2,))
    for vid in rng.sample(free, min(5, len(free))):
        h.store.install_version(above, vid, (-3,))
    return h, halfway


def _oracle_visits(chain, snap) -> int:
    """Versions the new-to-old walk reads before it stops."""
    visits = 0
    node = chain
    while node is not None:
        visits += 1
        if node.create_ts < snap.caller and node.create_ts not in snap.in_flight:
            break
        node = node.pred
    return visits


@pytest.mark.parametrize("snapshot", ["now", "halfway"])
@pytest.mark.parametrize("seed", range(4))
def test_walk_matches_oracle_with_exact_per_pe_charges(seed, snapshot):
    h, halfway = _random_history(seed)
    # halfway: an old caller, so the walk goes deep into the chains
    inv = h.prepare(pe_count=1, pages=1, caller=halfway if snapshot == "halfway" else None)
    regions = {REGIONS[code] for code in inv.l2p_view.regions if code != UNRESOLVED}
    assert regions == set(REGIONS), "the history must leave pages in both regions"
    items = inv.vid_view.tolist()
    for pe_count in range(1, 9):
        inv.pe_count = pe_count
        _caps, rows = schedule(inv, h.device)
        before = h.device.ledger.snapshot()
        changed, removed, _hidden = walk(rows, inv, h.device, IdentityIndex.empty(), probe=False)
        assert len(removed) == 0
        delta = h.device.ledger.delta_since(before)

        assert np.all(np.diff(changed.pes) >= 0)
        nvm_visits = 0
        for pe in range(pe_count):
            mine = changed.take(changed.pes == pe)
            rows = dict(zip(mine.vids.tolist(), range(len(mine.vids))))
            visits = 0
            for vid, _head in items[pe::pe_count]:
                chain = h.store.vid_map[vid]
                expected = oracle_visible_version(chain, inv.descriptor)
                visits += _oracle_visits(chain, inv.descriptor)
                node = chain
                for _ in range(_oracle_visits(chain, inv.descriptor)):
                    nvm_visits += h.shared.l2p[unpack_rid(node.rid).page_lid][0] == REGION_NVM
                    node = node.pred
                if expected is None:
                    assert vid not in rows
                    continue
                expected = unpack_rid(expected)
                k = rows.pop(vid)
                assert int(mine.rids[k]) == pack_rid(expected)
                region = REGIONS[mine.regions[k]]
                at, size = int(mine.offsets[k]), int(mine.lengths[k])
                assert bytes(h.device.peek(region, at, size)) == h.shared.read_record(expected)
            assert rows == {}
            n = len(items[pe::pe_count])
            ops = delta["pe_ops"].get(pe, {})
            want = {"vid_entry": n, "l2p": visits, "slot": visits, "probe": visits}
            assert ops == {op: count for op, count in want.items() if count}
        assert delta["nvm_reads"] == 2 * nvm_visits
        assert delta["device_internal_bytes_read"] == 8 * len(items) + 12 * sum(
            _oracle_visits(h.store.vid_map[vid], inv.descriptor) for vid, _ in items)


# -- corrupt chains and slots --------------------------------------------------------


def _merged_rows(rows: int = 200) -> Harness:
    h = Harness(SCHEMA)
    h.install_rows({vid: (vid,) for vid in range(rows)})
    h.shared.propagate()
    h.shared.merge_delta_pages()
    return h


def _fails_and_frees(h, inv, error):
    with pytest.raises(error):
        run_invocation(inv, h.device, h.grantor)
    assert h.device.owner_pages(inv.owner) == set()


def test_slot_past_the_page_slot_count_is_corrupt():
    h = _merged_rows(1000)                      # the first page is full
    inv = h.prepare(pe_count=2, pages=4)
    lid = int(np.flatnonzero(inv.l2p_view.regions != UNRESOLVED)[0])      # the first mapped page
    region, idx = page_of(inv.l2p_view, lid)
    base = idx * PAGE_SIZE
    count = page_slot_count_at(h.device.peek(region, base, PAGE_SIZE), 0)
    # past the count, slot entries would overlap record bytes
    for slot in range(count, MAX_SLOTS + 1):
        with pytest.raises(CorruptRecord):
            h.device.pe_read_slot(0, region, np.array([base]), np.array([slot]))
    for slot in (count, 0xFFFE):
        inv = h.prepare(pe_count=2, pages=4)
        inv.vid_view = inv.vid_view.copy()
        inv.vid_view["head"][0] = lid << 16 | slot
        _fails_and_frees(h, inv, CorruptRecord)
    # a slot entry whose record starts in the page header, or runs into the slot array
    entry_at = base + PAGE_SIZE - SLOT_ENTRY_SIZE
    entry = bytes(h.device.peek(region, entry_at, SLOT_ENTRY_SIZE))
    area_end = PAGE_SIZE - SLOT_ENTRY_SIZE * count
    for offset, length in ((4, 30), (area_end - 12, 16)):
        h.device.write(region, entry_at, struct.pack("<HH", offset, length), REQUESTER_COORD)
        with pytest.raises(CorruptRecord):
            h.device.pe_read_slot(0, region, np.array([base]), np.array([0]))
        inv = h.prepare(pe_count=2, pages=4)
        inv.vid_view = inv.vid_view.copy()
        inv.vid_view["head"][0] = lid << 16
        _fails_and_frees(h, inv, CorruptRecord)
    h.device.write(region, entry_at, entry, REQUESTER_COORD)
    # a corrupt slot count does not let an entry leave its page
    h.device.write(region, base + 8, b"\xff\xff", REQUESTER_COORD)
    for slot in (MAX_SLOTS, 0xFFFE):
        with pytest.raises(CorruptRecord):
            h.device.pe_read_slot(0, region, np.array([base]), np.array([slot]))


def _chain(h, versions: int):
    """One tuple with ``versions`` committed versions; returns their rids, newest first."""
    for i in range(versions):
        h.install_rows({7: (i,)})
    h.shared.propagate()
    return list(map(unpack_rid, h.store.chain_rids(7)))


@pytest.mark.parametrize("versions, cycle", [(1, "self-loop"), (2, "2-cycle")])
def test_chain_cycle_is_corrupt_within_one_lap(versions, cycle):
    h = Harness(SCHEMA)
    rids = _chain(h, versions)
    oldest = rids[-1]                           # its pred word points at the newest
    region, idx = h.shared.l2p[oldest.page_lid]
    offset, _length = page_slot_entry_at(h.shared.page_image(oldest.page_lid), 0, oldest.slot)
    h.device.write(region, idx * PAGE_SIZE + offset + PRED_OFFSET,
                   struct.pack("<Q", pack_rid(rids[0])), REQUESTER_COORD)
    # caller 1 is the first writer: no version is visible, the walk follows every pred
    inv = h.prepare(pe_count=1, pages=4, caller=1)
    before = op_total(h.device.ledger, "l2p")
    _fails_and_frees(h, inv, CorruptRecord)
    assert op_total(h.device.ledger, "l2p") - before <= versions + 1


def test_walk_of_an_empty_share_charges_nothing():
    h = _merged_rows(3)
    inv = h.prepare(pe_count=1, pages=1)
    before = h.device.ledger.snapshot()
    empty = np.array([], dtype=np.uint64)
    rids, *_ = pe_visibility_check(h.device, 5, empty, empty, inv.descriptor, inv.l2p_view)
    assert len(rids) == 0
    assert h.device.ledger.delta_since(before)["pe_ops"] == {}
