"""Transaction lifecycle, chain shape, abort rollback, and the visibility oracle."""

import random

import pytest

from ndtsim.errors import AlreadyFinished, StaleWrite, UnknownTx
from ndtsim.layout import decode_header, unpack_rid
from ndtsim.mvcc import SnapshotDescriptor, TOMBSTONE, oracle_visible_version
from conftest import random_orderline


def row(rng=None, **kw):
    return random_orderline(rng or random.Random(0), **kw)


def test_txids_start_at_one_and_increase(system):
    assert system.store.begin_tx() == 1
    assert system.store.begin_tx() == 2
    ids = {system.store.begin_tx() for _ in range(10_000)}
    assert len(ids) == 10_000
    assert max(ids) == 10_002


def test_commit_and_abort_lifecycle(system):
    store = system.store
    t = store.begin_tx()
    store.commit_tx(t)
    assert not store.in_flight
    with pytest.raises(AlreadyFinished):
        store.commit_tx(t)
    with pytest.raises(UnknownTx):
        store.abort_tx(999)


def test_install_new_vid_then_update(system):
    store = system.store
    rng = random.Random(1)
    t1 = store.begin_tx()
    rid1 = store.install_version(t1, 7, row(rng))
    store.commit_tx(t1)
    head = store.vid_map[7]
    assert head.rid == rid1 and head.pred is None

    t2 = store.begin_tx()
    rid2 = store.install_version(t2, 7, row(rng))
    store.commit_tx(t2)
    head = store.vid_map[7]
    assert head.rid == rid2
    assert head.pred.rid == rid1
    assert head.create_ts > head.pred.create_ts
    # the encoded record's predecessor pointer agrees with the chain
    hdr = decode_header(system.shared.read_record(unpack_rid(rid2)))
    assert hdr.pred == unpack_rid(rid1)


def test_stale_write_conflict(system):
    store = system.store
    rng = random.Random(2)
    t1 = store.begin_tx()
    t2 = store.begin_tx()
    assert t2 > t1
    store.install_version(t2, 5, row(rng))
    store.commit_tx(t2)
    with pytest.raises(StaleWrite):
        store.install_version(t1, 5, row(rng))


def test_abort_removes_new_vid(system):
    store = system.store
    t = store.begin_tx()
    store.install_version(t, 42, row())
    store.abort_tx(t)
    assert 42 not in store.vid_map


def test_abort_restores_previous_head(system):
    store = system.store
    rng = random.Random(3)
    t1 = store.begin_tx()
    rid1 = store.install_version(t1, 1, row(rng))
    store.commit_tx(t1)
    t2 = store.begin_tx()
    store.install_version(t2, 1, row(rng))
    store.abort_tx(t2)
    assert store.vid_map[1].rid == rid1
    assert store.vid_map[1].pred is None


def _write_after_abort(system, vid, seed, propagate):
    """t1 holds an uncommitted head over a committed version; t2 may not stack
    on it, and writes over the committed version once t1 aborts."""
    store = system.store
    rng = random.Random(seed)
    t0 = store.begin_tx()
    rid0 = store.install_version(t0, vid, row(rng))
    store.commit_tx(t0)
    t1 = store.begin_tx()
    store.install_version(t1, vid, row(rng))      # uncommitted head
    t2 = store.begin_tx()
    if propagate:
        system.shared.propagate()                 # records now device-resident
    with pytest.raises(StaleWrite):
        store.install_version(t2, vid, row(rng))  # may not stack on it
    store.abort_tx(t1)
    rid2 = store.install_version(t2, vid, row(rng))
    store.commit_tx(t2)
    assert store.chain_rids(vid) == [rid2, rid0]
    assert decode_header(system.shared.read_record(unpack_rid(rid2))).pred == unpack_rid(rid0)


def test_abort_patches_interior_version(system):
    """No interior version is ever left to splice out: the abort rolls the head
    back, and the later write's record points at the committed version."""
    _write_after_abort(system, 9, 4, propagate=False)


def test_abort_patches_after_propagation(system):
    """The same when the aborted record already lives on the device."""
    _write_after_abort(system, 3, 5, propagate=True)


def test_no_write_over_an_uncommitted_head(system):
    """A write over another in-flight transaction's head is refused and changes
    nothing, whether the head is on the host or the device; an older writer is
    stale once the holder commits, a newer one then writes."""
    store = system.store
    rng = random.Random(4)
    t0 = store.begin_tx()
    chain = [store.install_version(t0, 9, row(rng))]
    store.commit_tx(t0)
    for propagate in (False, True):
        holder = store.begin_tx()
        store.install_version(holder, 9, row(rng))
        if propagate:
            system.shared.propagate()             # the holder's record is device-resident
        head, staged = store.vid_map[9], list(system.shared._staged_vids)
        for t in (store.begin_tx(), store.begin_tx()):  # a newer writer, and a newest
            with pytest.raises(StaleWrite):
                store.install_version(t, 9, row(rng))
            with pytest.raises(StaleWrite):
                store.install_versions(t, [3, 9], [row(rng), row(rng)])
            assert store.vid_map[9] is head and 3 not in store.vid_map
            assert system.shared._staged_vids == staged
        store.abort_tx(holder)
        assert store.chain_rids(9) == chain
    # a holder that commits: the older writer is then stale, a newer one writes
    older, holder, newer = store.begin_tx(), store.begin_tx(), store.begin_tx()
    store.install_version(holder, 9, row(rng))
    with pytest.raises(StaleWrite):
        store.install_version(newer, 9, row(rng))
    store.commit_tx(holder)
    with pytest.raises(StaleWrite):
        store.install_version(older, 9, row(rng))
    rid = store.install_version(newer, 9, row(rng))
    assert store.chain_rids(9)[0] == rid and store.vid_map[9].pred.create_ts == holder


def test_same_tx_reupdate_bypasses_own_version(system):
    store = system.store
    rng = random.Random(6)
    t0 = store.begin_tx()
    rid0 = store.install_version(t0, 4, row(rng))
    store.commit_tx(t0)
    t1 = store.begin_tx()
    store.install_version(t1, 4, row(rng))
    rid_b = store.install_version(t1, 4, row(rng))
    store.commit_tx(t1)
    assert store.chain_rids(4) == [rid_b, rid0]
    node = store.vid_map[4]
    while node.pred is not None:
        assert node.create_ts > node.pred.create_ts
        node = node.pred


def test_oracle_visibility_examples(system):
    """Chains built with controlled creation timestamps, checked brute force."""
    store = system.store
    rng = random.Random(7)
    txs = {i: store.begin_tx() for i in range(1, 13)}  # tx ids 1..12

    store.install_version(txs[5], 100, row(rng))
    store.commit_tx(txs[5])
    snap = SnapshotDescriptor(caller=10, in_flight=frozenset())
    assert oracle_visible_version(store.vid_map[100], snap) is not None
    assert oracle_visible_version(store.vid_map[100], snap) == store.vid_map[100].rid

    store.install_version(txs[6], 200, row(rng))
    store.commit_tx(txs[6])
    store.install_version(txs[12], 200, row(rng))
    store.commit_tx(txs[12])
    snap = SnapshotDescriptor(caller=10, in_flight=frozenset())
    visible = oracle_visible_version(store.vid_map[200], snap)
    assert visible == store.vid_map[200].pred.rid   # ts=12 head invisible

    store.install_version(txs[8], 300, row(rng))
    store.commit_tx(txs[8])
    snap = SnapshotDescriptor(caller=10, in_flight=frozenset({8}))
    assert oracle_visible_version(store.vid_map[300], snap) is None


def test_tombstone_hides_row(system):
    store = system.store
    t0 = store.begin_tx()
    store.install_version(t0, 8, row())
    store.commit_tx(t0)
    t1 = store.begin_tx()
    store.install_version(t1, 8, TOMBSTONE)
    store.commit_tx(t1)
    t2 = store.begin_tx()
    snap = store.snapshot_descriptor(t2)
    assert oracle_visible_version(store.vid_map[8], snap) is None
    old_snap = SnapshotDescriptor(caller=t1, in_flight=frozenset())
    assert oracle_visible_version(store.vid_map[8], old_snap) is not None


def test_snapshot_stability_under_later_writes(system):
    """A frozen descriptor's visible set cannot change as newer transactions
    install versions."""
    store = system.store
    rng = random.Random(8)
    for vid in range(20):
        t = store.begin_tx()
        store.install_version(t, vid, row(rng))
        store.commit_tx(t)
    caller = store.begin_tx()
    snap = store.snapshot_descriptor(caller)
    before = {vid: oracle_visible_version(store.vid_map[vid], snap) for vid in range(20)}
    store.commit_tx(caller)
    for _ in range(50):
        t = store.begin_tx()
        vid = rng.randrange(20)
        store.install_version(t, vid, row(rng))
        if rng.random() < 0.3:
            store.abort_tx(t)
        else:
            store.commit_tx(t)
    after = {vid: oracle_visible_version(store.vid_map[vid], snap) for vid in range(20)}
    assert before == after


def test_abort_completeness(system):
    store = system.store
    rng = random.Random(9)
    aborted = set()
    for i in range(60):
        t = store.begin_tx()
        for _ in range(rng.randint(1, 3)):
            store.install_version(t, rng.randrange(15), row(rng))
        if rng.random() < 0.4:
            store.abort_tx(t)
            aborted.add(t)
        else:
            store.commit_tx(t)
    for vid, node in store.vid_map.items():
        while node is not None:
            assert node.create_ts not in aborted
            node = node.pred


def test_vid_map_always_points_at_decreasing_chain(system):
    store = system.store
    rng = random.Random(10)
    for i in range(200):
        t = store.begin_tx()
        store.install_version(t, rng.randrange(25), row(rng))
        store.commit_tx(t)
    for vid, node in store.vid_map.items():
        seen = node.create_ts
        node = node.pred
        while node is not None:
            assert node.create_ts < seen
            seen = node.create_ts
            node = node.pred
