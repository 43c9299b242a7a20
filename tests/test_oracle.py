"""The host oracle against record-by-record decoding, and on corrupt pages.

The oracle reads each page once and decodes a column at a time.  Here it
is pinned to ``read_record`` plus ``layout.decode_values``, one visible
record at a time: on the refresh workloads of ``test_refresh_differential``
(deletes, aborts, NULL delivery dates, writers left in flight, pages in the
host buffer, the DDR delta mirror and NVM), on the chain histories of
``test_visibility_walk`` (tombstones, refused writes, old snapshots),
and on random schemas.  ``q6_rowstore`` is pinned to a per-record Python
sum.  The host's kept walk (one chain walk per snapshot and map version)
is pinned to ``visible_columns`` below, which walks on every call, across
interleaved writes, aborts, merges and propagations; its walk count is
pinned, and a page corrupted after the walk is still found.  Corrupt page
bytes under either oracle call may raise only typed ``NdtError``
subclasses.
"""

import random
from decimal import Decimal as D

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from ndtsim import oracle
from ndtsim.columns import ColumnSet, canonical_compare, result_specs
from ndtsim.errors import CorruptRecord, NdtError, SlotOutOfRange, StaleWrite
from ndtsim.host import (
    HostSystem,
    Q6Params,
    WorkloadConfig,
    WorkloadDriver,
    q6_columnar,
    unix_seconds,
)
from ndtsim.layout import (
    PAGE_SIZE,
    RECORD_HEADER_FIXED,
    Decimal,
    Int32,
    Int64,
    Schema,
    TimestampPg,
    VarChar,
    pg_timestamp_to_unix_epoch,
    record_field_slices,
    unpack_rid,
)
from ndtsim.mvcc import SnapshotDescriptor, oracle_visible_version
from ndtsim.oracle import decode_columns, read_columns, read_records, visible_records
from ndtsim.shared_state import REGION_HOST
from conftest import Harness
from reference import decode_values
from test_batch_path import _reference, _tables
from test_refresh_differential import _leave_writer_in_flight
from test_visibility_walk import SCHEMA, _random_history

Q6_PARAMS = (
    Q6Params(unix_seconds(1999), unix_seconds(2020)),
    Q6Params(unix_seconds(2003), unix_seconds(2009, 7, 1), qty_lo=3, qty_hi=7),
    Q6Params(unix_seconds(1990), unix_seconds(1999, 12, 31), qty_lo=10, qty_hi=10),
)


def visible_columns(shared, vid_map: dict, schema, snap: SnapshotDescriptor, names):
    """The oracle without the host's kept walk: the attributes ``names`` of
    the tuples visible to ``snap``, in map order, walked on every call.
    Returns ``(vids, values, present)`` as ``decode_columns`` does."""
    return read_columns(shared, schema, visible_records(vid_map, snap), names)


def _visible_records(shared, vid_map, snap) -> dict:
    """{vid: record bytes} of the visible versions, read one rid at a time."""
    records = {}
    for vid, head in vid_map.items():
        rid = oracle_visible_version(head, snap)
        if rid is not None:
            records[vid] = shared.read_record(unpack_rid(rid))
    return records


def _assert_identical(got, expected):
    """Equal rows, and equal arrays too: NULLs read 0 (or "") in both."""
    assert canonical_compare(got, expected), canonical_compare(got, expected)
    got, expected = got.sorted_by_vid(), expected.sorted_by_vid()
    for name in expected.column_names():
        a, b = got.data[name], expected.data[name]
        if isinstance(b, list):
            assert a == b, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _q6_per_record(schema, rows: list, params: Q6Params):
    """The q6 sum over decoded rows, in Python arithmetic."""
    total = 0
    i_delivery, i_quantity, i_amount = (schema.index_of[n] for n in
                                        ("ol_delivery_d", "ol_quantity", "ol_amount"))
    for values in rows:
        if values[i_delivery] is None:
            continue
        seconds = pg_timestamp_to_unix_epoch(values[i_delivery])
        if params.date_lo_unix <= seconds < params.date_hi_unix \
                and params.qty_lo <= values[i_quantity] <= params.qty_hi:
            total += values[i_amount]
    return total


def _check_system(system, snap):
    records = _visible_records(system.shared, system.store.vid_map, snap)
    schema = system.schema
    for projection in (None, ("ol_dist_info", "ol_delivery_d", "ol_amount")):
        names = projection or tuple(a.name for a in schema.attributes)
        _assert_identical(system.oracle_column_set(snap, projection),
                          _reference(schema, names, records))
    rows = [decode_values(schema, record) for record in records.values()]
    for params in Q6_PARAMS:
        assert system.q6_rowstore(snap, params) == _q6_per_record(schema, rows, params)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_record_decoding_on_refresh_workloads(seed):
    rng = random.Random(seed)
    system = HostSystem()
    shadow = system.load_orderlines(600, seed=seed)
    system.merge_to_cold()
    cfg = WorkloadConfig(seed=seed, new_order_weight=0.3, delivery_weight=0.3,
                         delete_weight=0.2, amount_update_weight=0.2, abort_fraction=0.2)
    driver = WorkloadDriver(system, cfg, shadow)
    regions = set()
    in_flight = 0
    for _ in range(10):
        driver.run(rng.randint(5, 25))
        if rng.random() < 0.4:
            system.merge_to_cold()
        elif rng.random() < 0.5:
            system.shared.propagate()                  # leaves pages in the DDR mirror
        writer = _leave_writer_in_flight(system, driver, rng) if rng.random() < 0.4 else None
        reader = system.store.begin_tx()
        _check_system(system, system.store.snapshot_descriptor(reader))
        regions |= {region for region, _ in system.shared.l2p.values()}
        system.store.commit_tx(reader)
        if writer is not None:
            system.store.abort_tx(writer)
            in_flight += 1
    assert regions == {REGION_HOST, "DDR", "NVM"} and in_flight


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_record_decoding_on_chain_histories(seed):
    h, halfway = _random_history(seed)
    now = h.store.begin_tx()
    regions = set()
    for _ in range(2):                  # as the history left it, then propagated to DDR
        regions |= {region for region, _ in h.shared.l2p.values()}
        for caller in (now, halfway):
            snap = h.store.snapshot_descriptor(caller)
            records = _visible_records(h.shared, h.store.vid_map, snap)
            vids, values, present = visible_columns(h.shared, h.store.vid_map, SCHEMA, snap,
                                                    ("a",))
            assert dict(zip(vids.tolist(), values["a"].tolist())) == {
                vid: decode_values(SCHEMA, record)[0] for vid, record in records.items()}
            assert present["a"].all()
        h.shared.propagate()
    assert regions == {REGION_HOST, "DDR", "NVM"}


def _assert_decodes_as_reference(h, schema, snap):
    """``visible_columns`` over every attribute equals the visible records
    decoded one at a time by ``decode_values``; returns what it read."""
    records = _visible_records(h.shared, h.store.vid_map, snap)
    names = tuple(a.name for a in schema.attributes)
    expected = _reference(schema, names, records)
    vids, values, present = visible_columns(h.shared, h.store.vid_map, schema, snap, names)
    order = np.argsort(vids, kind="stable")
    assert vids.dtype == expected.vids.dtype and np.array_equal(vids[order], expected.vids)
    for name in names:
        got = values[name]
        got = [got[k] for k in order] if isinstance(got, list) else got[order]
        want = expected.data[name]
        if isinstance(want, list):
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if expected.validity[name] is not None:
            assert np.array_equal(present[name][order], expected.validity[name])
    return records, values, present


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables())
def test_oracle_matches_record_decoding_on_random_schemas(table):
    schema, rows = table
    h = Harness(schema, capacity=1024)               # some pages propagated, some not
    h.install_rows({vid: row for vid, row in enumerate(rows, start=1)})
    _assert_decodes_as_reference(h, schema, h.store.snapshot_descriptor(h.store.begin_tx()))


# 70 attributes of the five kinds in turn: a 9-byte null bitmap.  Two of the
# nullable ones have their bits in its first byte, two in its last.
WIDE_KINDS = (Int32(), Int64(), Decimal(9, 3), TimestampPg(), VarChar(24))
WIDE_NULLABLE = (1, 3, 66, 69)


@pytest.mark.parametrize("varied", [WIDE_NULLABLE, WIDE_NULLABLE[2:]])
def test_oracle_groups_wide_null_bitmaps_by_mask(varied):
    """Records of up to 16 null masks, interleaved in one batch, some (or
    all) differing only past the 64th attribute, decode as they do one at
    a time."""
    schema = Schema("t", [(f"c{i}", WIDE_KINDS[i % 5], i in WIDE_NULLABLE) for i in range(70)])
    rng = random.Random(8)
    values = (lambda: rng.randrange(-2**31, 2**31), lambda: rng.randrange(-2**63, 2**63),
              lambda: D(rng.randrange(-10**9 + 1, 10**9)).scaleb(-3),
              lambda: rng.randrange(-2**63, 2**63), lambda: "é" * rng.randrange(12))
    rows = {}
    for vid in range(1, 65):
        row = [values[i % 5]() for i in range(70)]
        for bit, i in enumerate(varied):
            if vid >> bit & 1:
                row[i] = None
        rows[vid] = tuple(row)
    h = Harness(schema)
    h.install_rows(rows)
    records, _values, present = _assert_decodes_as_reference(
        h, schema, h.store.snapshot_descriptor(h.store.begin_tx()))
    masks = {record[RECORD_HEADER_FIXED:schema.header_size] for record in records.values()}
    assert schema.null_bitmap_bytes == 9 and len(masks) == 2 ** len(varied)
    assert len({mask[8:] for mask in masks}) == 4
    assert len({mask[:8] for mask in masks}) == 2 ** len(varied) // 4
    assert all(present[f"c{i}"].sum() == 32 for i in varied)


def test_oracle_reads_a_snapshot_with_nothing_visible():
    """A reader that began before the only writer committed sees no row:
    empty arrays of the dtypes a full read would have."""
    schema = Schema("t", [(f"c{i}", kind, True) for i, kind in enumerate(WIDE_KINDS)])
    h = Harness(schema)
    reader = h.store.begin_tx()
    h.install_rows({1: (1, 2, D(3), 4, "five"), 2: (None,) * 5})
    snap = h.store.snapshot_descriptor(reader)
    assert h.store.vid_map and h.shared.host_pages
    _records, values, present = _assert_decodes_as_reference(h, schema, snap)
    assert [values[f"c{i}"].dtype.str for i in range(4)] == ["<i4", "<i8", "<i8", "<i8"]
    assert values["c4"] == [] and all(p.dtype == bool and p.size == 0 for p in present.values())
    system = HostSystem()
    caller = system.store.begin_tx()
    assert system.oracle_column_set(system.store.snapshot_descriptor(caller)).n_rows == 0
    system.store.commit_tx(caller)


def test_decode_reads_fixed_fields_ending_on_the_last_byte():
    """Records of fixed fields only, joined with nothing after them: the last
    field of each ends its record, and the last record ends the buffer."""
    schema = Schema("t", [("a", Int32(), True), ("b", Int64(), True), ("c", Int32(), False)])
    rows = {1: (1, 2, 3), 2: (None, -2, 4), 3: (5, None, -6), 4: (None, None, 2**31 - 1)}
    h = Harness(schema)
    rids = h.install_rows(rows)
    records = {vid: h.shared.read_record(rid) for vid, rid in rids.items()}
    raw = b"".join(records.values())
    lengths = np.array([len(record) for record in records.values()], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    for record in records.values():
        (start, length), = record_field_slices(schema, record)[0][-1:]
        assert start + length == len(record)
    names = ("c", "a", "b")
    values, present = decode_columns(schema, names, raw, starts, lengths)
    expected = _reference(schema, names, records)
    for name in names:
        assert values[name].dtype == expected.data[name].dtype
        assert np.array_equal(values[name], expected.data[name])
        if expected.validity[name] is not None:
            assert np.array_equal(present[name], expected.validity[name])


def test_read_records_bounds_slots():
    h = Harness(SCHEMA)
    rids = h.install_rows({vid: (vid,) for vid in range(3)})
    lid = rids[0].page_lid
    for slot in (3, -1, 0xFFFF):
        with pytest.raises(SlotOutOfRange):
            read_records(h.shared, [lid], [slot])
    raw, starts, lengths = read_records(h.shared, [lid, lid], [2, 0])
    assert raw[starts[1]:starts[1] + lengths[1]] == h.shared.read_record(rids[0])
    h.shared.host_pages[lid].buf[PAGE_SIZE - 4:PAGE_SIZE - 2] = (8190).to_bytes(2, "little")
    with pytest.raises(CorruptRecord):
        h.shared.read_record(rids[0])


# -- the host's kept walk ------------------------------------------------------------------

Q6_NAMES = ("ol_delivery_d", "ol_quantity", "ol_amount")


def _without_kept_walk(system, snap, names) -> ColumnSet:
    """What ``oracle_column_set(snap, names)`` should return, read through
    ``visible_columns``, which walks the chains on every call."""
    vids, values, present = visible_columns(system.shared, system.store.vid_map, system.schema,
                                            snap, names)
    specs = result_specs(system.schema, names)
    validity = {s.name: present[s.name] if s.nullable else None for s in specs[1:]}
    return ColumnSet(specs, vids, values, validity, len(vids))


def _check_kept_walk(system, snaps, rng):
    """At each of ``snaps``, in turn, ``q6_rowstore`` and ``oracle_column_set``
    in a random order (one of them sometimes twice) equal the oracle without
    a kept walk, rows in the same order."""
    all_names = tuple(a.name for a in system.schema.attributes)
    for snap in snaps:
        calls = ["q6", "set"]
        calls.append(rng.choice(calls))
        rng.shuffle(calls)
        for call in calls:
            if call == "q6":
                params = rng.choice(Q6_PARAMS)
                expected = q6_columnar(_without_kept_walk(system, snap, Q6_NAMES), params)
                assert system.q6_rowstore(snap, params) == expected
                continue
            names = rng.choice([None, ("ol_dist_info", "ol_delivery_d", "ol_amount")])
            got = system.oracle_column_set(snap, names)
            expected = _without_kept_walk(system, snap, names or all_names)
            assert np.array_equal(got.vids, expected.vids)
            _assert_identical(got, expected)


@pytest.mark.parametrize("seed", range(4))
def test_kept_walk_matches_the_oracle_across_interleavings(seed):
    """OLTP steps, a writer left in flight and aborted, a refused write,
    merges and propagations, with checks at random points: at a reader's
    old snapshot, at the current one, and at a descriptor not taken from
    the store (caller 10**9, nothing in flight), whose visible versions
    change with every write and abort."""
    rng = random.Random(seed)
    system = HostSystem(shared_capacity=64 * 1024)
    shadow = system.load_orderlines(400, seed=seed)
    system.merge_to_cold()
    driver = WorkloadDriver(system, WorkloadConfig(seed=seed, delete_weight=0.2,
                                                   abort_fraction=0.2), shadow)
    store = system.store
    made = SnapshotDescriptor(10**9, frozenset())
    reader = store.begin_tx()
    old = store.snapshot_descriptor(reader)
    writer, done = None, set()

    def check():            # ends at ``made``, where the next check begins
        current = store.begin_tx()
        snaps = [old, store.snapshot_descriptor(current)]
        rng.shuffle(snaps)
        _check_kept_walk(system, [made, *snaps, made], rng)
        store.commit_tx(current)

    for _ in range(30):
        roll = rng.random()
        if roll < 0.3:
            driver.run(rng.randint(1, 10))
            done.add("oltp")
        elif roll < 0.45 and writer is None:
            writer = _leave_writer_in_flight(system, driver, rng)
            done.add("writer")
        elif roll < 0.55 and writer is not None:
            held = [vid for vid, head in store.vid_map.items()
                    if head.create_ts == writer and vid in driver.shadow]
            vid, other = rng.choice(held), store.begin_tx()
            with pytest.raises(StaleWrite):
                store.install_version(other, vid, driver.shadow[vid])
            store.abort_tx(other)
            done.add("refused")
        elif roll < 0.65 and writer is not None:
            store.abort_tx(writer)
            writer = None
            done.add("abort")
        elif roll < 0.75:
            system.merge_to_cold()
            done.add("merge")
        elif roll < 0.85:
            system.shared.propagate()
            done.add("propagate")
        else:
            store.commit_tx(reader)
            reader = store.begin_tx()
            old = store.snapshot_descriptor(reader)
        if rng.random() < 0.5:
            check()
    if writer is not None:
        store.abort_tx(writer)
        done.add("abort")
        check()
    assert done == {"oltp", "writer", "refused", "abort", "merge", "propagate"}


def _counting_walks(monkeypatch) -> list:
    """Record each chain the oracle's visibility rule is applied to."""
    walks = []

    def counted(chain, snap):
        walks.append(chain)
        return oracle_visible_version(chain, snap)

    monkeypatch.setattr(oracle, "oracle_visible_version", counted)
    return walks


def test_two_calls_at_one_snapshot_walk_each_chain_once(monkeypatch):
    """A perfbench check's two oracle calls walk every chain once (twice
    without the kept walk), and share only arrays no caller can change; a new
    snapshot, or a write and its abort at the same snapshot, walk them
    again."""
    system = HostSystem()
    shadow = system.load_orderlines(300, seed=3)
    WorkloadDriver(system, WorkloadConfig(seed=3), shadow).run(20)
    store = system.store
    walks = _counting_walks(monkeypatch)
    snap = store.snapshot_descriptor(store.begin_tx())
    n = len(store.vid_map)
    system.q6_rowstore(snap, Q6_PARAMS[0])
    with pytest.raises(ValueError, match="read-only"):     # the kept vids stay as walked
        system.oracle_column_set(snap).vids[:1] = 0
    assert len(walks) == n
    later = store.snapshot_descriptor(store.begin_tx())
    system.oracle_column_set(later, ("ol_amount",))
    system.q6_rowstore(later, Q6_PARAMS[1])
    assert len(walks) == 2 * n
    t = store.begin_tx()
    vid = min(shadow)
    store.install_version(t, vid, shadow[vid])
    store.abort_tx(t)
    system.q6_rowstore(later, Q6_PARAMS[1])
    system.oracle_column_set(later)
    assert len(walks) == 3 * n and len(store.vid_map) == n


def _record_in_page(system, rid):
    """A writable view of the device page that holds ``rid``, and the
    record's offset in it."""
    region, idx = system.shared.l2p[rid.page_lid]
    page = system.device.peek(region, idx * PAGE_SIZE, PAGE_SIZE)
    entry = PAGE_SIZE - 4 * (rid.slot + 1)
    return page, int.from_bytes(page[entry:entry + 2], "little")


def test_a_page_corrupted_between_two_calls_is_found(monkeypatch):
    """The kept walk holds no page bytes: a record that turns into a
    tombstone after the first call at a snapshot fails the next ones, and
    reads as before once restored, all with one walk."""
    system = HostSystem()
    system.load_orderlines(60, seed=7)
    system.merge_to_cold()
    walks = _counting_walks(monkeypatch)
    snap = system.store.snapshot_descriptor(system.store.begin_tx())
    expected = system.oracle_column_set(snap)
    rid = unpack_rid(oracle_visible_version(system.store.vid_map[min(system.store.vid_map)], snap))
    page, offset = _record_in_page(system, rid)
    page[offset + RECORD_HEADER_FIXED - 1] |= 1
    try:
        for call in (lambda: system.q6_rowstore(snap, Q6_PARAMS[0]),
                     lambda: system.oracle_column_set(snap)):
            with pytest.raises(CorruptRecord, match="is a tombstone"):
                call()
    finally:
        page[offset + RECORD_HEADER_FIXED - 1] &= 0xFE
        del page
    assert canonical_compare(system.oracle_column_set(snap), expected).equal
    assert len(walks) == len(system.store.vid_map)


# -- corrupt page bytes ------------------------------------------------------------------

KINDS = ("slot_count", "slot_entry", "header", "null_bitmap", "varlen_prefix", "payload")


def _corruption(rng, kind, record_at, record, schema):
    """(page offset, new bytes) for one corruption of the record at ``record_at``."""
    if kind == "slot_count":
        return 8, rng.choice([0, 1, 0xFFFF, rng.randrange(1 << 16)]).to_bytes(2, "little")
    if kind == "slot_entry":
        entry, slot_field = record_at["entry"], rng.randrange(2)
        value = rng.choice([0, 10, 8190, rng.randrange(1 << 16)])
        return entry + 2 * slot_field, value.to_bytes(2, "little")
    off = record_at["offset"]
    if kind == "header":
        return off + rng.randrange(RECORD_HEADER_FIXED), bytes([rng.randrange(256)])
    if kind == "null_bitmap":
        return off + RECORD_HEADER_FIXED + rng.randrange(schema.null_bitmap_bytes), \
            bytes([rng.randrange(256)])
    slices, _ = record_field_slices(schema, record)
    start, length = slices[schema.index_of["ol_dist_info"]]
    if kind == "varlen_prefix":
        return off + start - 2, rng.choice([0, 0xFFFF, length + 1,
                                            rng.randrange(1 << 16)]).to_bytes(2, "little")
    at = rng.randrange(schema.header_size, start + length)
    return off + at, bytes([rng.choice([0xFF, 0x80, 0xC3, rng.randrange(256)])])


def test_corrupt_pages_raise_only_typed_errors():
    rng = random.Random(6)
    system = HostSystem()
    shadow = system.load_orderlines(200, seed=6)
    system.merge_to_cold()
    WorkloadDriver(system, WorkloadConfig(seed=6), shadow).run(20)    # host-resident pages
    reader = system.store.begin_tx()
    snap = system.store.snapshot_descriptor(reader)
    visible = [oracle_visible_version(head, snap) for head in system.store.vid_map.values()]
    visible = [unpack_rid(rid) for rid in visible if rid is not None]
    assert {system.shared.l2p[rid.page_lid][0] for rid in visible} == {REGION_HOST, "NVM"}
    typed = dict.fromkeys(KINDS, 0)
    for case in range(600):
        kind = KINDS[case % len(KINDS)]
        rid = rng.choice(visible)
        record = system.shared.read_record(rid)
        region, idx = system.shared.l2p[rid.page_lid]
        page = (system.shared.host_pages[rid.page_lid].buf if region == REGION_HOST
                else system.device.peek(region, idx * PAGE_SIZE, PAGE_SIZE))
        entry = PAGE_SIZE - 4 * (rid.slot + 1)
        record_at = {"entry": entry, "offset": int.from_bytes(page[entry:entry + 2], "little")}
        at, data = _corruption(rng, kind, record_at, record, system.schema)
        original = bytes(page)
        page[at:at + len(data)] = data
        try:
            for call in (lambda: system.oracle_column_set(snap),
                         lambda: system.q6_rowstore(snap, Q6_PARAMS[0])):
                try:
                    call()
                except NdtError:
                    typed[kind] += 1
        finally:
            page[:] = original
            del page
    # of a record header only the flags byte is read, so few header cases raise
    assert all(typed.values()), typed
    system.store.commit_tx(reader)


@pytest.mark.parametrize("bit", ["tombstone", "null_on_required"])
def test_live_version_with_dead_bits_is_corrupt(bit):
    """A version the chains call live may not carry a tombstone flag, nor a
    NULL bit on a non-nullable attribute."""
    system = HostSystem()
    system.load_orderlines(60, seed=7)
    system.merge_to_cold()
    reader = system.store.begin_tx()
    snap = system.store.snapshot_descriptor(reader)
    rid = unpack_rid(oracle_visible_version(system.store.vid_map[min(system.store.vid_map)], snap))
    page, offset = _record_in_page(system, rid)
    schema = system.schema
    if bit == "tombstone":
        page[offset + RECORD_HEADER_FIXED - 1] |= 1
    else:
        required = schema.index_of["ol_o_id"]
        assert not schema.attributes[required].nullable
        page[offset + RECORD_HEADER_FIXED + required // 8] |= 1 << required % 8
    try:
        for call in (lambda: system.oracle_column_set(snap),
                     lambda: system.q6_rowstore(snap, Q6_PARAMS[0])):
            with pytest.raises(CorruptRecord):
                call()
    finally:
        del page
    system.store.commit_tx(reader)
