"""Workload determinism, invocation preparation, grants, and Q6 equivalence."""

import random
from decimal import Decimal as D

import pytest

from ndtsim.columns import canonical_compare
from ndtsim.delta import masked_view
from ndtsim.device import REGION_DDR, REGION_NVM, DeviceConfig, op_total
from ndtsim.engine import MODE_MATERIALIZE, MODE_STREAM, run_invocation
from ndtsim.errors import (
    AlreadyFinished,
    DuplicateColumn,
    InvalidConfig,
    MissingColumn,
    TooManyPEsRequested,
    UnknownTx,
)
from ndtsim.host import (
    HostSystem,
    Q6Params,
    WorkloadConfig,
    WorkloadDriver,
    q6_columnar,
    q6_default_params,
    unix_seconds,
)
from conftest import random_orderline, undersized


def _chain_signature(system):
    sig = {}
    for vid, node in system.store.vid_map.items():
        chain = []
        while node is not None:
            chain.append((node.rid, node.create_ts, node.tombstone))
            node = node.pred
        sig[vid] = tuple(chain)
    return sig


def test_same_seed_reproduces_state():
    def run():
        system = HostSystem()
        shadow = system.load_orderlines(200, seed=3)
        WorkloadDriver(system, WorkloadConfig(seed=9), shadow).run(300)
        return _chain_signature(system), shadow
    sig_a, shadow_a = run()
    sig_b, shadow_b = run()
    assert sig_a == sig_b and shadow_a == shadow_b


def test_new_order_only_creates_expected_vids(system):
    cfg = WorkloadConfig(seed=4, new_order_weight=1.0,
                         delivery_weight=0.0, delete_weight=0.0,
                         amount_update_weight=0.0, min_lines=7, max_lines=7,
                         abort_fraction=0.0)
    report = WorkloadDriver(system, cfg).run(20)
    assert report.new_vids == 20 * 7
    assert report.versions_created == 20 * 7
    assert len(system.store.vid_map) == 140


def test_delivery_updates_grow_chains(system):
    shadow = system.load_orderlines(50, seed=5, null_delivery_rate=1.0)
    cfg = WorkloadConfig(seed=6, new_order_weight=0.0,
                         delivery_weight=1.0, delete_weight=0.0,
                         amount_update_weight=0.0, abort_fraction=0.0)
    WorkloadDriver(system, cfg, shadow).run(40)
    lengths = []
    for vid in shadow:
        node = system.store.vid_map[vid]
        depth = 0
        while node is not None:
            depth += 1
            node = node.pred
        lengths.append(depth)
    assert max(lengths) >= 2


def test_prepare_requires_in_flight_caller(system):
    with pytest.raises(UnknownTx):
        system.prepare_invocation(999)
    with pytest.raises(MissingColumn):
        t = system.store.begin_tx()
        system.prepare_invocation(t, projection=["nope"])


def test_prepare_empty_table_minimal_allocation(system):
    t = system.store.begin_tx()
    inv = system.prepare_invocation(t, pe_count=4)
    system.store.commit_tx(t)
    assert len(inv.pages) == 4       # one page per processing element
    assert len(inv.vid_view) == 0


def test_invocation_carries_exact_in_flight_set(system):
    system.load_orderlines(20, seed=7)
    open_a = system.store.begin_tx()
    open_b = system.store.begin_tx()
    caller = system.store.begin_tx()
    inv = system.prepare_invocation(caller)
    assert inv.descriptor.caller == caller
    assert inv.descriptor.in_flight == frozenset({open_a, open_b, caller})
    system.store.commit_tx(caller)
    system.store.commit_tx(open_a)
    system.store.commit_tx(open_b)


def test_underestimation_corrected_by_suspension(system):
    system.load_orderlines(1200, seed=8)
    system.merge_to_cold()
    _, full = system.transform_snapshot(mode=MODE_MATERIALIZE)
    before = op_total(system.device.ledger, "space_request")
    with undersized(0.5):
        _, half = system.transform_snapshot(mode=MODE_MATERIALIZE)
    assert op_total(system.device.ledger, "space_request") > before
    assert canonical_compare(masked_view(full).sorted_by_vid(),
                             masked_view(half).sorted_by_vid()).equal


def test_grant_bound_by_result_size():
    system = HostSystem()
    system.load_orderlines(1500, seed=9)
    system.merge_to_cold()
    with undersized(0.3):
        _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE)
    from ndtsim.layout import PAGE_SIZE
    owned = len(system.device.owner_pages(handle.owner)) * PAGE_SIZE
    # everything still held after completion is result plus bitmap pages,
    # bounded because unused grants are freed
    assert owned <= handle.column_bytes + 2 * PAGE_SIZE * (8 * 13) + len(handle.bitmap_pages) * PAGE_SIZE


def test_pool_exhaustion_denies_grant():
    system = HostSystem(DeviceConfig(nvm_capacity_pages=24))
    system.load_orderlines(2000, seed=10)
    from ndtsim.errors import HostDenied
    with pytest.raises(HostDenied):
        with undersized(0.05):
            system.transform_snapshot(mode=MODE_MATERIALIZE)


def test_failed_preparation_aborts_the_reader(system):
    system.load_orderlines(50, seed=11)
    free = [system.device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)]
    with pytest.raises(MissingColumn):
        system.transform_snapshot(projection=("nope",))
    assert not system.store.in_flight
    assert [system.device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)] == free


def test_a_projection_naming_an_attribute_twice_is_refused(system):
    """Both entry points refuse it before anything changes: no propagation,
    no ledger charge, no page taken, and no reader left in flight."""
    system.load_orderlines(50, seed=11)
    twice = ("ol_quantity", "ol_amount", "ol_quantity")
    ledger = system.device.ledger.snapshot()
    free = [system.device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)]
    with pytest.raises(DuplicateColumn, match="^'ol_quantity' named twice"):
        system.transform_snapshot(projection=twice)
    assert not system.store.in_flight
    caller = system.store.begin_tx()
    with pytest.raises(DuplicateColumn, match="^'ol_quantity' named twice"):
        system.prepare_invocation(caller, projection=twice)
    snap = system.store.snapshot_descriptor(caller)
    with pytest.raises(DuplicateColumn, match="^'ol_quantity' named twice"):
        system.oracle_column_set(snap, twice)
    with pytest.raises(MissingColumn):
        system.oracle_column_set(snap, ("nope",))
    assert system.store.in_flight == {caller}
    system.store.commit_tx(caller)
    assert system.shared.has_pending
    assert system.device.ledger.snapshot() == ledger
    assert [system.device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)] == free


@pytest.mark.parametrize("kind", ["new_order", "delivery", "delete", "amount_update"])
def test_a_failed_write_aborts_its_transaction(system, monkeypatch, kind):
    """Each kind of transaction writes through ``install_versions``; when
    that raises, the step aborts its transaction and re-raises."""
    shadow = system.load_orderlines(50, seed=11)
    weights = {f"{name}_weight": float(name == kind)
               for name in ("new_order", "delivery", "delete", "amount_update")}
    driver = WorkloadDriver(system, WorkloadConfig(seed=3, **weights), shadow)
    began = []

    def fail(t, vids, rows):
        began.append(t)
        raise RuntimeError("write failed")

    monkeypatch.setattr(system.store, "install_versions", fail)
    with pytest.raises(RuntimeError, match="write failed"):
        driver.step()
    assert len(began) == 1 and not system.store.in_flight
    with pytest.raises(AlreadyFinished, match="already aborted"):
        system.store.commit_tx(began[0])


def test_q6_empty_and_all_null(system):
    params = q6_default_params()
    t = system.store.begin_tx()
    inv = system.prepare_invocation(t)
    system.store.commit_tx(t)
    handle = run_invocation(inv, system.device, system.grant_space)
    assert q6_columnar(masked_view(handle), params) == D("0")

    system2 = HostSystem()
    system2.load_orderlines(80, seed=12, null_delivery_rate=1.0)
    system2.merge_to_cold()
    _, handle2 = system2.transform_snapshot()
    assert q6_columnar(masked_view(handle2), params) == D("0")
    snap = handle2.snapshot
    assert system2.q6_rowstore(snap, params) == D("0")


def test_q6_columnar_equals_rowstore_across_seeds():
    params = q6_default_params()
    narrow = Q6Params(unix_seconds(2001), unix_seconds(2006), qty_lo=2, qty_hi=8)
    for seed in (1, 2, 3):
        system = HostSystem()
        shadow = system.load_orderlines(300, seed=seed)
        WorkloadDriver(system, WorkloadConfig(seed=seed + 50), shadow).run(150)
        system.merge_to_cold()
        _, handle = system.transform_snapshot()
        view = masked_view(handle)
        for p in (params, narrow):
            assert q6_columnar(view, p) == system.q6_rowstore(handle.snapshot, p)


def test_q6_missing_column():
    system = HostSystem()
    system.load_orderlines(10, seed=13)
    _, handle = system.transform_snapshot(projection=["ol_o_id"])
    with pytest.raises(MissingColumn):
        q6_columnar(masked_view(handle), q6_default_params())


def test_htap_counter_unaffected_by_invocation():
    """The foreground work measured around the OLTP slices is identical with
    and without a transformation in between; the invocation's own reader
    transaction and grants are the documented O(1) overhead outside them."""
    def run(with_ndt):
        system = HostSystem()
        shadow = system.load_orderlines(300, seed=14)
        system.merge_to_cold()
        driver = WorkloadDriver(system, WorkloadConfig(seed=15), shadow)
        first = driver.run(200).oltp_ops
        if with_ndt:
            system.transform_snapshot(mode=MODE_MATERIALIZE)
        second = driver.run(200).oltp_ops
        return (first, second), system.admin_ops

    base_ops, base_admin = run(False)
    ndt_ops, ndt_admin = run(True)
    assert base_ops == ndt_ops
    assert base_admin == 0 and ndt_admin >= 1


def test_snapshot_freshness_includes_delta_buffer_rows(system):
    """Rows committed but not yet propagated must appear in the result."""
    t = system.store.begin_tx()
    row = random_orderline(random.Random(0))
    system.store.install_version(t, 12345, row)
    system.store.commit_tx(t)
    assert system.shared.size_bytes > 0      # still host-side only
    _, handle = system.transform_snapshot()
    assert 12345 in set(int(v) for v in masked_view(handle).vids)


# -- malformed invocation arguments ----------------------------------------------------


def _untouched(system):
    """What a refused call must leave as it was: the ledger, the pools,
    the pending propagation, the reader transactions and the table."""
    device = system.device
    return (device.ledger.snapshot(), device.free_page_count(REGION_DDR),
            device.free_page_count(REGION_NVM), system.shared.has_pending,
            set(system.store.in_flight), len(system.store.vid_map))


@pytest.mark.parametrize("kwargs", [dict(mode="bogus"), dict(pe_count=2.5),
                                    dict(pe_count="2"), dict(pe_count=True),
                                    dict(mode=MODE_STREAM, pe_count=2.5),
                                    dict(mode=MODE_STREAM, pe_count=False)],
                         ids=["mode", "float", "str", "bool", "stream_float", "stream_bool"])
def test_a_malformed_invocation_is_refused_before_anything_moves(system, kwargs):
    system.load_orderlines(60, seed=2)            # left pending: nothing propagated yet
    before = _untouched(system)
    with pytest.raises(InvalidConfig):
        system.transform_snapshot(**kwargs)
    assert _untouched(system) == before


@pytest.mark.parametrize("pe_count", [2.5, "2", True])
def test_a_refresh_with_a_malformed_pe_count_is_refused(system, pe_count):
    shadow = system.load_orderlines(60, seed=2)
    _, handle = system.transform_snapshot()
    WorkloadDriver(system, WorkloadConfig(seed=3), shadow).run(5)
    before = _untouched(system), handle.run_count
    with pytest.raises(InvalidConfig):
        system.delta_refresh(handle, pe_count=pe_count)
    assert (_untouched(system), handle.run_count) == before


@pytest.mark.parametrize("mode", [MODE_MATERIALIZE, MODE_STREAM])
@pytest.mark.parametrize("pe_count", [0, -1])
def test_fewer_than_one_pe_is_refused_by_the_invocation(system, mode, pe_count):
    """0 is not the device's count: it reaches the invocation, which refuses
    it and returns the pages reserved for it."""
    system.load_orderlines(60, seed=2)
    _, handle = system.transform_snapshot()
    free = [system.device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)]
    with pytest.raises(TooManyPEsRequested, match="need at least one PE"):
        system.transform_snapshot(mode=mode, pe_count=pe_count)
    with pytest.raises(TooManyPEsRequested, match="need at least one PE"):
        system.delta_refresh(handle, pe_count=pe_count)
    assert [system.device.free_page_count(region)
            for region in (REGION_DDR, REGION_NVM)] == free
    assert system.store.in_flight == set()


@pytest.mark.parametrize("rows", [2.5, "5", True, -5])
def test_a_malformed_row_count_loads_nothing(system, rows):
    with pytest.raises(InvalidConfig):
        system.load_orderlines(rows)
    assert not system.store.vid_map and not system.store.in_flight


@pytest.mark.parametrize("rate", [float("nan"), -1, -0.01, 1.01, 2, float("inf"), "0.5", True,
                                  False, [0.5]])
def test_a_malformed_null_delivery_rate_loads_nothing(system, rate):
    """Refused before any draw: ``nan`` and -1 were silently "never NULL", 2
    "always NULL", and a string raised a bare ``TypeError`` mid-load."""
    system.load_orderlines(30, seed=2)
    before = _untouched(system), system._next_order, system._next_vid
    with pytest.raises(InvalidConfig, match="null_delivery_rate"):
        system.load_orderlines(40, seed=3, null_delivery_rate=rate)
    assert (_untouched(system), system._next_order, system._next_vid) == before


@pytest.mark.parametrize("rate", [None, 0, 0.0, 0.5, 1, 1.0])
def test_a_null_delivery_rate_in_range_or_none_loads(system, rate):
    shadow = system.load_orderlines(40, seed=3, null_delivery_rate=rate)
    nulls = sum(row[5] is None for row in shadow.values())
    assert len(shadow) == 40
    if rate is None or rate == 1:
        assert nulls == 40
    else:
        assert nulls == 0 if rate == 0 else 0 < nulls < 40
