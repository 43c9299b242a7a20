"""Installing a transaction's versions in one call equals installing them one
at a time: the same RecordIDs, chains, counters, staged deltas, propagations,
ledger and page bytes.  A batch that fails changes nothing."""

import gc
import random

import pytest

from ndtsim.errors import InvalidVid, LengthMismatch, StaleWrite, TypeMismatch, VarCharTooLong
from ndtsim.host import HostSystem
from ndtsim.mvcc import TOMBSTONE
from conftest import random_orderline


def state(system) -> dict:
    """Everything a version install can change, in comparable form."""
    store, shared = system.store, system.shared
    return {
        "vid_map": dict(store.vid_map),
        "tx_writes": {t: dict(writes) for t, writes in store._tx_writes.items()},
        "op_count": store.op_count,
        "staged": dict(zip(shared._staged_vids, shared._staged_heads)),
        "pending": list(shared.host_pages),
        "size_bytes": shared.size_bytes,
        "propagation_count": shared.propagation_count,
        "l2p": dict(shared.l2p),
        "pages": {lid: bytes(shared.page_image(lid)) for lid in shared.l2p},
        "ledger": system.device.ledger.counters(),
    }


def replay(capacity: int, transactions, batched: bool):
    """Run ``transactions`` ([[(vid, values), ...], ...], each committed) on a
    new system; returns it and the RecordIDs installed."""
    system = HostSystem(shared_capacity=capacity)
    rids = []
    for writes in transactions:
        t = system.store.begin_tx()
        if batched:
            rids += system.store.install_versions(t, [v for v, _ in writes],
                                                  [values for _, values in writes])
        else:
            rids += [system.store.install_version(t, vid, values) for vid, values in writes]
        system.store.commit_tx(t)
    return system, rids


def _transactions(rng, n_tx: int, size: int, vids: int, tombstones: float = 0.0):
    out = []
    for _ in range(n_tx):
        writes = []
        for _ in range(size):
            vid = rng.randrange(vids)
            delete = rng.random() < tombstones
            writes.append((vid, TOMBSTONE if delete else random_orderline(
                rng, vid, null_delivery=rng.random() < 0.2)))
        out.append(writes)
    return out


CASES = {
    # (shared capacity, transactions, vids, rows per transaction, tombstone share)
    "capacity crossed mid-batch": (2000, 3, 10_000, 60, 0.0),
    "page break mid-batch": (512 * 1024, 2, 10_000, 150, 0.0),
    "existing heads": (4096, 6, 40, 30, 0.0),
    "a vid twice in one batch": (512 * 1024, 4, 8, 25, 0.0),
    "tombstones": (3000, 8, 30, 20, 0.3),
}


@pytest.mark.parametrize("capacity, n_tx, vids, size, tombstones", CASES.values(), ids=CASES)
def test_one_call_equals_one_row_at_a_time(capacity, n_tx, vids, size, tombstones):
    transactions = _transactions(random.Random(n_tx * size), n_tx, size, vids, tombstones)
    batched, batched_rids = replay(capacity, transactions, batched=True)
    single, single_rids = replay(capacity, transactions, batched=False)
    assert batched_rids == single_rids
    assert state(batched) == state(single)
    if capacity < 512 * 1024:
        assert batched.shared.propagation_count > 1


def test_uncommitted_batch_state_and_abort_match():
    """The in-flight write list and staged deltas match before commit, and an
    abort rolls both systems back alike."""
    rng = random.Random(3)
    setup, writes = _transactions(rng, 1, 50, 20)[0], _transactions(rng, 1, 40, 20, 0.2)[0]
    systems = []
    for batched in (True, False):
        system, _ = replay(4096, [setup], batched)
        t = system.store.begin_tx()
        if batched:
            system.store.install_versions(t, [v for v, _ in writes], [r for _, r in writes])
        else:
            for vid, values in writes:
                system.store.install_version(t, vid, values)
        systems.append((system, t))
    (a, ta), (b, tb) = systems
    assert state(a) == state(b)
    a.store.abort_tx(ta)
    b.store.abort_tx(tb)
    assert state(a) == state(b)


def _stale_setup(uncommitted: bool):
    """A system and a tx ``writer`` whose write of vid 3 conflicts: another tx
    committed an update of vid 3 after ``writer`` began or, if ``uncommitted``,
    an older tx updated vid 3 and is still in flight."""
    system, _ = replay(4096, _transactions(random.Random(4), 1, 30, 10), batched=True)
    first, second = system.store.begin_tx(), system.store.begin_tx()
    holder, writer = (first, second) if uncommitted else (second, first)
    system.store.install_version(holder, 3, random_orderline(random.Random(5)))
    if not uncommitted:
        system.store.commit_tx(holder)
    return system, writer


def test_stale_write_fails_the_batch_where_single_rows_fail():
    rng = random.Random(6)
    rows = [random_orderline(rng) for _ in range(5)]
    vids = [0, 1, 3, 4, 5]

    for uncommitted in (False, True):
        single, writer = _stale_setup(uncommitted)
        installed = []
        with pytest.raises(StaleWrite):
            for vid, values in zip(vids, rows):
                single.store.install_version(writer, vid, values)
                installed.append(vid)
        assert installed == [0, 1]

        batched, writer = _stale_setup(uncommitted)
        before = state(batched)
        with pytest.raises(StaleWrite):
            batched.store.install_versions(writer, vids, rows)
        assert state(batched) == before


@pytest.mark.parametrize("bad, error", [
    (lambda row: row[:7] + (True,) + row[8:], TypeMismatch),
    (lambda row: row[:8] + ("x" * 25,), VarCharTooLong),
    (lambda row: (2**31,) + row[1:], TypeMismatch),
])
def test_failed_batch_changes_nothing(bad, error):
    rng = random.Random(7)
    system, _ = replay(2000, _transactions(rng, 2, 30, 50), batched=True)
    t = system.store.begin_tx()
    rows = [random_orderline(rng) for _ in range(60)]      # crosses the capacity when good
    rows[45] = bad(rows[45])
    before = state(system)
    with pytest.raises(error):
        system.store.install_versions(t, list(range(60)), rows)
    assert state(system) == before


def test_rows_and_vids_must_pair(system):
    t = system.store.begin_tx()
    before = state(system)
    with pytest.raises(LengthMismatch, match="2 vids for 1 rows"):
        system.store.install_versions(t, [1, 2], [random_orderline(random.Random(8))])
    assert state(system) == before


@pytest.mark.parametrize("vid", [True, False, 1.5, -1, 2**64, "x", None])
def test_a_malformed_vid_is_refused_before_any_state_changes(vid):
    """A vid that is not an int in [0, 2**64) is an ``InvalidVid`` naming it,
    alone or after good rows; ``True`` no longer writes vid 1."""
    system, _ = replay(2000, _transactions(random.Random(9), 2, 30, 50), batched=True)
    t = system.store.begin_tx()
    before, map_version = state(system), system.store.map_version
    rows = [random_orderline(random.Random(10)) for _ in range(3)]
    for vids, values in (([vid], rows[:1]), ([1, 2, vid], rows)):
        with pytest.raises(InvalidVid, match=f"vid {vid!r} "):
            system.store.install_versions(t, vids, values)
        assert state(system) == before and system.store.map_version == map_version
    assert system.store.install_versions(t, [2**64 - 1, 0], rows[:2])


def test_a_loaded_row_leaves_at_most_one_object_for_the_collector():
    """A loaded version is one chain node: its rid is a packed int, and no
    header or RecordID object outlives the load (two per row before)."""
    system = HostSystem()
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    shadow = system.load_orderlines(3000)
    gc.collect()
    gc.collect()
    assert len(shadow) == 3000
    assert len(gc.get_objects()) - before <= 3000 + 200
