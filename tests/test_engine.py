"""Scheduling, scratchpad planning, in-situ visibility, transformation."""

import random
import struct

import numpy as np
import pytest

from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    VID_COLUMN,
    ColumnSet,
    canonical_compare,
    result_specs,
)
from ndtsim.delta import masked_view
from ndtsim.device import DeviceConfig, op_total
from ndtsim.engine import (
    MODE_MATERIALIZE,
    MODE_STREAM,
    RECORD_LOAD_BYTES,
    MaterializeSink,
    columns_from_batches,
    pe_visibility_check,
    plan_scratchpad,
    run_invocation,
    schedule,
)
from ndtsim.errors import (
    DuplicateColumn,
    HostDenied,
    MissingColumn,
    NdtError,
    ScratchpadTooSmall,
    StaleWrite,
    TooManyPEsRequested,
)
from ndtsim.layout import (
    PAGE_SIZE,
    POSTGRES_EPOCH_OFFSET_SECONDS,
    RID_NONE,
    Int32,
    Int64,
    Schema,
    TimestampPg,
    VarChar,
    unpack_rid,
)
from ndtsim.mvcc import SnapshotDescriptor, TOMBSTONE
from ndtsim.oracle import read_columns, visible_records
from conftest import Harness
from reference_readback import read_fragment


# -- scheduling ------------------------------------------------------------------

def test_schedule_distributes_vids_and_pages():
    h = Harness(Schema("t", [("a", Int32(), False)]))
    h.install_rows({vid: (vid,) for vid in range(10)})
    inv = h.prepare(pe_count=4, pages=10)
    caps, rows = schedule(inv, h.device)
    assert caps == plan_scratchpad(inv.schema, inv.projection, h.device.cfg.scratchpad_bytes)
    assert rows.pes.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]
    # the materializing sink keeps the page queues: page i goes to PE i mod 4
    assert MaterializeSink(h.device, inv, None).queues == [inv.pages[pe::4] for pe in range(4)]
    # entry i lands on PE i mod 4, PE after PE, in enumeration order, with its chain head
    assert rows.vids.dtype == rows.heads.dtype == np.uint64
    flat = inv.vid_view.tolist()
    assert list(zip(rows.vids.tolist(), rows.heads.tolist())) == [
        entry for pe in range(4) for entry in flat[pe::4]]
    inv.pe_count = 1
    assert schedule(inv, h.device)[1].pes.tolist() == [0] * 10
    empty = Harness(Schema("t", [("a", Int32(), False)])).prepare(pe_count=4, pages=0)
    _caps, rows = schedule(empty, h.device)
    assert MaterializeSink(h.device, empty, None).queues == [[]] * 4 and len(rows.vids) == 0


@pytest.mark.parametrize("projection, error, message", [
    (("b", "a", "b"), DuplicateColumn, "^'b' named twice in the projection$"),
    ((), MissingColumn, "^the projection names no attribute$"),
])
def test_an_invocation_refuses_an_empty_or_repeated_projection(projection, error, message):
    """Refused with a typed error when the invocation is built, before any
    walk: no PE has read a record."""
    h = Harness(Schema("t", [("a", Int32(), False), ("b", VarChar(4), True)]))
    h.install_rows({vid: (vid, None) for vid in range(10)})
    with pytest.raises(error, match=message) as raised:
        h.prepare(projection, pe_count=2, pages=4)
    assert isinstance(raised.value, NdtError)
    assert h.device.ledger.records_processed == 0 and not h.device.ledger.pe_ops


@pytest.mark.parametrize("make", [list, iter], ids=["list", "iterator"])
def test_an_invocation_keeps_the_projection_it_checked(make):
    """The invocation stores the projection as it checked it, so one given
    as a one-shot iterator is transformed as one given as a list."""
    schema = Schema("t", [("a", Int32(), False), ("b", Int64(), True), ("s", VarChar(4), True)])
    h = Harness(schema)
    h.install_rows({vid: (vid, -vid, None if vid % 3 == 0 else "x" * (vid % 5))
                    for vid in range(1, 11)})
    inv = h.prepare(make(("a", "s")), pe_count=2, pages=4)
    assert inv.projection == ("a", "s")
    assert [spec.name for spec in inv.specs] == [VID_COLUMN, "a", "s"]
    handle = run_invocation(inv, h.device, h.grantor)
    specs = result_specs(schema, ("a", "s"))
    vids, values, present = read_columns(
        h.shared, schema, visible_records(h.store.vid_map, inv.descriptor), ("a", "s"))
    expected = ColumnSet(specs, vids, values, {"a": None, "s": present["s"]}, len(vids))
    assert canonical_compare(masked_view(handle).sorted_by_vid(),
                             expected.sorted_by_vid()).equal


def test_schedule_rejects_excess_pes():
    h = Harness(Schema("t", [("a", Int32(), False)]), DeviceConfig(pe_count=2))
    h.install_rows({1: (1,)})
    inv = h.prepare(pe_count=2, pages=2)
    inv.pe_count = 3
    with pytest.raises(TooManyPEsRequested):
        schedule(inv, h.device)


@pytest.mark.parametrize("mode", [MODE_MATERIALIZE, MODE_STREAM])
def test_an_invocation_checks_its_pe_count_before_its_scratchpad(mode):
    """Both are refused before the walk, too many PEs first, then a
    scratchpad too small for the projection: no PE is charged, and the
    invocation keeps no page."""
    h = Harness(Schema("t", [("a", Int32(), False)]),
                DeviceConfig(pe_count=2, scratchpad_bytes=RECORD_LOAD_BYTES))
    h.install_rows({1: (1,)})
    for pe_count, error in ((3, TooManyPEsRequested), (0, TooManyPEsRequested),
                            (2, ScratchpadTooSmall)):
        inv = h.prepare(mode=mode, pe_count=pe_count, pages=2)
        with pytest.raises(error):
            run_invocation(inv, h.device, h.grantor)
        assert not h.device.ledger.pe_ops and not h.device.owner_pages(inv.owner)


def test_empty_table_completes_with_empty_output():
    h = Harness(Schema("t", [("a", Int32(), False)]))
    inv = h.prepare(pe_count=4, pages=4)
    handle = run_invocation(inv, h.device)
    assert handle.total_positions == 0 and handle.column_bytes == 0 and handle.segments == []


# -- scratchpad planning -------------------------------------------------------------

def test_plan_four_fixed_attrs_at_64k():
    schema = Schema("t", [(f"c{i}", Int64(), False) for i in range(4)])
    partitions = plan_scratchpad(schema, [f"c{i}" for i in range(4)], 64 * 1024)
    # (64 KiB - 8 KiB) / 4 = 14 KiB per value partition
    assert all(cap == 14 * 1024 for cap in partitions.values())
    assert len(partitions) == 4
    assert RECORD_LOAD_BYTES + sum(partitions.values()) <= 64 * 1024


def test_plan_adds_validity_and_offset_partitions():
    schema = Schema("t", [
        ("a", Int32(), True), ("s", VarChar(10), False),
    ])
    partitions = plan_scratchpad(schema, ["a", "s"], 32 * 1024)
    assert set(partitions) == {("a", KIND_VALUES), ("a", KIND_VALIDITY),
                               ("s", KIND_VALUES), ("s", KIND_OFFSETS)}
    assert partitions[("a", KIND_VALUES)] % 4 == 0
    assert partitions[("s", KIND_OFFSETS)] % 4 == 0
    assert RECORD_LOAD_BYTES + sum(partitions.values()) <= 32 * 1024


def test_plan_rejects_too_small():
    schema = Schema("t", [("a", Int32(), False)])
    with pytest.raises(ScratchpadTooSmall):
        plan_scratchpad(schema, ["a"], 8 * 1024)
    with pytest.raises(ScratchpadTooSmall):
        plan_scratchpad(schema, ["a"], 8 * 1024 + 2)


# -- in-situ visibility -----------------------------------------------------------------

def _single_version_harness():
    h = Harness(Schema("t", [("a", Int32(), False)]))
    t = h.store.begin_tx()             # tx 1
    h.store.install_version(t, 77, (5,))
    h.store.commit_tx(t)
    return h


def _visible(device, vids, vid_view, descriptor, l2p_view, pe=0):
    """Batch walk of ``vids`` on one PE; the visible packed rid per vid, or None."""
    vids = np.array(vids, dtype=np.uint64)
    heads = vid_view["head"][np.searchsorted(vid_view["vid"], vids)]
    rids = pe_visibility_check(device, pe, vids, heads, descriptor, l2p_view)[0]
    return [None if rid == RID_NONE else rid for rid in rids.tolist()]


def test_visibility_single_version_charges_paper_transfers():
    h = _single_version_harness()
    inv = h.prepare(pe_count=1, pages=1)
    before = h.device.ledger.device_internal_bytes_read
    [hit] = _visible(h.device, [77], inv.vid_view, inv.descriptor, inv.l2p_view)
    assert hit is not None
    # 8B map entry + 4B address + 4B slot + 4B header probe
    assert h.device.ledger.device_internal_bytes_read - before == 8 + 4 + 4 + 4


def test_visibility_skips_in_flight_head():
    h = Harness(Schema("t", [("a", Int32(), False)]))
    t1 = h.store.begin_tx()
    h.store.install_version(t1, 9, (1,))
    h.store.commit_tx(t1)
    t2 = h.store.begin_tx()
    h.store.install_version(t2, 9, (2,))       # stays in-flight
    inv = h.prepare(pe_count=1, pages=1)
    [hit] = _visible(h.device, [9], inv.vid_view, inv.descriptor, inv.l2p_view)
    assert hit is not None
    expected = unpack_rid(h.store.vid_map[9].pred.rid)
    assert hit == (expected.page_lid << 16) | expected.slot
    h.store.commit_tx(t2)


def test_visibility_none_when_all_newer():
    h = Harness(Schema("t", [("a", Int32(), False)]))
    t1 = h.store.begin_tx()
    h.store.install_version(t1, 4, (1,))
    h.store.commit_tx(t1)
    descriptor = SnapshotDescriptor(caller=1, in_flight=frozenset())
    h.shared.propagate(frozenset())
    vid_view, l2p_view = h.device.freeze_views()
    assert _visible(h.device, [4], vid_view, descriptor, l2p_view) == [None]


def test_visibility_matches_oracle_on_random_chains():
    h = Harness(Schema("t", [("a", Int32(), False)]))
    rng = random.Random(17)
    open_txs = []
    for i in range(400):
        t = h.store.begin_tx()
        try:
            h.store.install_version(t, rng.randrange(40), (i,))
        except StaleWrite:              # an open writer holds the vid
            pass
        if rng.random() < 0.15:
            open_txs.append(t)
        elif rng.random() < 0.1:
            h.store.abort_tx(t)
        else:
            h.store.commit_tx(t)
    inv = h.prepare(pe_count=1, pages=1)
    from ndtsim.mvcc import oracle_visible_version
    vids = inv.vid_view["vid"].tolist()
    hits = _visible(h.device, vids, inv.vid_view, inv.descriptor, inv.l2p_view)
    for vid, hit in zip(vids, hits):
        expected = oracle_visible_version(h.store.vid_map[vid], inv.descriptor)
        if expected is None:
            assert hit is None
        else:
            assert hit is not None
            expected = unpack_rid(expected)
            assert hit == (expected.page_lid << 16) | expected.slot


# -- transformation byte oracle ------------------------------------------------------

def test_transform_bytes_by_hand():
    schema = Schema("t", [("a", Int32(), False), ("s", VarChar(8), False)])
    h = Harness(schema)
    h.install_rows({1: (7, "ab")})
    inv = h.prepare(pe_count=1, pages=8)
    handle = run_invocation(inv, h.device, h.grantor)
    seg = handle.segments[0]
    assert read_fragment(h.device, seg.frags[("a", KIND_VALUES)]) == b"\x07\x00\x00\x00"
    assert read_fragment(h.device, seg.frags[("s", KIND_VALUES)]) == b"ab"
    assert read_fragment(h.device, seg.frags[("s", KIND_OFFSETS)]) == struct.pack("<II", 0, 2)
    assert read_fragment(h.device, seg.frags[(VID_COLUMN, KIND_VALUES)]) == struct.pack("<Q", 1)


def test_transform_null_and_timestamp_conventions():
    schema = Schema("t", [("ts", TimestampPg(), True), ("n", Int64(), True)])
    h = Harness(schema)
    h.install_rows({1: (0, None), 2: (None, 5)})
    inv = h.prepare(pe_count=1, pages=8)
    handle = run_invocation(inv, h.device, h.grantor)
    seg = handle.segments[0]
    ts_vals = read_fragment(h.device, seg.frags[("ts", KIND_VALUES)])
    assert struct.unpack("<qq", ts_vals) == (POSTGRES_EPOCH_OFFSET_SECONDS, 0)
    n_vals = read_fragment(h.device, seg.frags[("n", KIND_VALUES)])
    assert struct.unpack("<qq", n_vals) == (0, 5)          # zeroed NULL slot
    ts_bits = read_fragment(h.device, seg.frags[("ts", KIND_VALIDITY)])
    n_bits = read_fragment(h.device, seg.frags[("n", KIND_VALIDITY)])
    assert ts_bits == b"\x01" and n_bits == b"\x02"


def test_tombstone_rows_are_not_emitted():
    schema = Schema("t", [("a", Int32(), False)])
    h = Harness(schema)
    h.install_rows({1: (1,), 2: (2,)})
    t = h.store.begin_tx()
    h.store.install_version(t, 1, TOMBSTONE)
    h.store.commit_tx(t)
    inv = h.prepare(pe_count=1, pages=4)
    handle = run_invocation(inv, h.device, h.grantor)
    view = masked_view(handle)
    assert list(view.vids) == [2]


# -- flush behavior ----------------------------------------------------------------------

def _predict_flushes(element_sizes, cap):
    """Independent re-simulation of the flush rule: spill before an append
    that would overflow, plus one final flush if anything remains."""
    flushes = 0
    fill = 0
    for n in element_sizes:
        if fill + n > cap:
            flushes += 1
            fill = 0
        if n > cap:
            flushes += 1       # oversize spill, buffer stays empty
        else:
            fill += n
    if fill:
        flushes += 1
    return flushes


def test_flush_counts_match_partition_arithmetic():
    schema = Schema("t", [("a", Int64(), False)])
    cfg = DeviceConfig(scratchpad_bytes=8 * 1024 + 64)   # value cap = 64 bytes
    h = Harness(schema, cfg)
    rows = 37
    h.install_rows({vid: (vid,) for vid in range(rows)})
    inv = h.prepare(pe_count=1, pages=16)
    handle = run_invocation(inv, h.device, h.grantor)
    cap = plan_scratchpad(schema, ("a",), cfg.scratchpad_bytes)[("a", KIND_VALUES)]
    predicted = _predict_flushes([8] * rows, cap) + 1    # +1 identity flush
    assert op_total(h.device.ledger, "flush") == predicted
    assert handle.visible_rows == rows


def test_many_small_flushes_equal_one_big_flush():
    schema = Schema("t", [("a", Int64(), False), ("s", VarChar(24), False)])
    rng = random.Random(23)
    rows = {vid: (rng.randrange(10**9), "x" * rng.randint(0, 24)) for vid in range(200)}

    outputs = []
    for scratch in (8 * 1024 + 128, 64 * 1024):
        h = Harness(schema, DeviceConfig(scratchpad_bytes=scratch))
        h.install_rows(rows)
        inv = h.prepare(pe_count=2, pages=64)
        handle = run_invocation(inv, h.device, h.grantor)
        seg_bytes = []
        for seg in handle.segments:
            for key in sorted(seg.frags):
                seg_bytes.append((seg.pe, key, read_fragment(h.device, seg.frags[key])))
        outputs.append(seg_bytes)
    assert outputs[0] == outputs[1]


# -- suspension ---------------------------------------------------------------------------

def test_suspension_preserves_output_exactly():
    schema = Schema("t", [("a", Int64(), False), ("s", VarChar(24), False)])
    rng = random.Random(31)
    rows = {vid: (vid, "y" * rng.randint(4, 24)) for vid in range(500)}

    h1 = Harness(schema)
    h1.install_rows(rows)
    inv1 = h1.prepare(pe_count=2, pages=64)
    handle1 = run_invocation(inv1, h1.device, h1.grantor)
    ample_requests = op_total(h1.device.ledger, "space_request")

    h2 = Harness(schema)
    h2.install_rows(rows)
    inv2 = h2.prepare(pe_count=2, pages=4)     # deliberately insufficient
    handle2 = run_invocation(inv2, h2.device, h2.grantor)
    assert op_total(h2.device.ledger, "space_request") >= 1

    va = masked_view(handle1).sorted_by_vid()
    vb = masked_view(handle2).sorted_by_vid()
    assert canonical_compare(va, vb).equal
    assert ample_requests == 0 or handle1.column_bytes == handle2.column_bytes


def test_host_denial_fails_cleanly_and_restores_pool():
    schema = Schema("t", [("a", Int64(), False)])
    h = Harness(schema, DeviceConfig(nvm_capacity_pages=8))
    h.install_rows({vid: (vid,) for vid in range(2000)})
    free_before_prepare = h.device.free_page_count("NVM")
    inv = h.prepare(pe_count=1, pages=2)

    def denying_grantor(inv_, count):
        from ndtsim.errors import PoolExhausted
        raise PoolExhausted("no pages for you")

    with pytest.raises(HostDenied):
        run_invocation(inv, h.device, denying_grantor)
    assert h.device.free_page_count("NVM") == free_before_prepare


# -- streaming -----------------------------------------------------------------------------

def test_streaming_batch_count_and_losslessness():
    schema = Schema("t", [("s", VarChar(24), False)])
    h = Harness(schema, DeviceConfig(stream_buffer_count=2, stream_buffer_bytes=64 * 1024))
    rng = random.Random(41)
    rows = {vid: ("z" * rng.randint(16, 24),) for vid in range(40_000)}
    h.install_rows(rows)
    inv = h.prepare(mode=MODE_STREAM, pe_count=4)
    notifications = []
    batches = run_invocation(inv, h.device, consumer=notifications.append)
    payload = sum(b.payload_bytes for b in batches)
    assert payload > 1024 * 1024          # over 1 MiB of output
    assert len(batches) >= 16             # at least payload / 64 KiB deliveries
    assert len(notifications) == len(batches)
    view = columns_from_batches(schema, inv.projection, batches, inv.pe_count)
    assert view.n_rows == len(rows)
    assert sorted(int(v) for v in view.vids) == sorted(rows)


def test_streaming_empty_table():
    schema = Schema("t", [("a", Int32(), False)])
    h = Harness(schema)
    inv = h.prepare(mode=MODE_STREAM, pe_count=2)
    batches = run_invocation(inv, h.device)
    assert batches == []


def test_stream_equals_materialize_and_charges_exact_bytes(system):
    shadow = system.load_orderlines(800, seed=5)
    system.merge_to_cold()
    before = system.device.ledger.snapshot()
    inv_s, batches = system.transform_snapshot(mode=MODE_STREAM)
    delta = system.device.ledger.delta_since(before)
    payload = sum(b.payload_bytes for b in batches)
    assert delta["device_to_host_bytes"] == payload

    inv_m, handle = system.transform_snapshot(mode=MODE_MATERIALIZE)
    assert handle.column_bytes == payload
    streamed = columns_from_batches(system.schema, inv_s.projection, batches, inv_s.pe_count)
    assert canonical_compare(streamed.sorted_by_vid(),
                             masked_view(handle).sorted_by_vid()).equal


# -- handle integrity -----------------------------------------------------------------------

def test_materialized_pages_reread_identically(system):
    system.load_orderlines(300, seed=6)
    system.merge_to_cold()
    _, handle = system.transform_snapshot()
    first = {(s.pe, k): read_fragment(system.device, f)
             for s in handle.segments for k, f in s.frags.items()}
    second = {(s.pe, k): read_fragment(system.device, f)
              for s in handle.segments for k, f in s.frags.items()}
    assert first == second


def test_column_coherence_per_segment(system):
    system.load_orderlines(500, seed=7)
    system.merge_to_cold()
    _, handle = system.transform_snapshot(pe_count=4)
    for seg in handle.segments:
        rows = seg.rows
        assert len(read_fragment(system.device, seg.frags[(VID_COLUMN, KIND_VALUES)])) == rows * 8
        for name in ("ol_o_id", "ol_quantity"):
            frag = seg.frags[(name, KIND_VALUES)]
            assert frag.nbytes == rows * 4
        validity = seg.frags[("ol_delivery_d", KIND_VALIDITY)]
        assert validity.nbytes == (rows + 7) // 8
        offsets = seg.frags[("ol_dist_info", KIND_OFFSETS)]
        assert offsets.nbytes == (rows + 1) * 4


def test_pe_count_invariance(system):
    system.load_orderlines(600, seed=8)
    system.merge_to_cold()
    views = []
    for pe in (1, 2, 4, 8):
        _, handle = system.transform_snapshot(pe_count=pe)
        views.append(masked_view(handle).sorted_by_vid())
    for other in views[1:]:
        assert canonical_compare(views[0], other).equal


def test_movement_claim_materialize_vs_table_size(system):
    system.load_orderlines(2000, seed=9)
    system.merge_to_cold()
    before = system.device.ledger.snapshot()
    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE)
    delta = system.device.ledger.delta_since(before)
    table_bytes = sum(1 for loc in system.shared.l2p.values()
                      if loc[0] != "HOST") * PAGE_SIZE
    # handle metadata only: orders of magnitude below the table
    assert delta["device_to_host_bytes"] < table_bytes * 0.01
    assert handle.column_bytes > 100_000
