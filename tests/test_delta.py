"""Incremental refresh: equivalence, masking, append-only behavior, cost."""

import random

import pytest

from ndtsim.columns import assemble, canonical_compare
from ndtsim.delta import (
    compact,
    delta_transform,
    free_handle,
    masked_view,
)
from ndtsim.engine import MODE_MATERIALIZE
from ndtsim.errors import NotRefreshable, StaleHandle
from ndtsim.host import HostSystem
from ndtsim.mvcc import TOMBSTONE
from reference_readback import read_fragment, read_segments


def _loaded_system(rows=400, seed=11):
    system = HostSystem()
    shadow = system.load_orderlines(rows, seed=seed)
    system.merge_to_cold()
    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE)
    return system, shadow, handle


def _update_rows(system, shadow, vids, bump=1):
    t = system.store.begin_tx()
    for vid in vids:
        old = shadow[vid]
        row = old[:6] + (old[6] + bump,) + old[7:]
        system.store.install_version(t, vid, row)
        shadow[vid] = row
    system.store.commit_tx(t)


def test_zero_modifications_appends_nothing():
    system, shadow, handle = _loaded_system()
    rows_before = handle.total_positions
    ts_before = handle.snapshot_ts
    caller = system.store.begin_tx()
    bytes_before = handle.column_bytes
    inv = system.prepare_invocation(caller, handle.projection, prior_handle=handle)
    delta_transform(handle, inv, grantor=system.grant_space)
    system.store.commit_tx(caller)
    assert handle.total_positions == rows_before and handle.column_bytes == bytes_before
    assert handle.snapshot_ts > ts_before


def test_partial_update_appends_only_changed():
    system, shadow, handle = _loaded_system(400)
    rng = random.Random(3)
    targets = rng.sample(list(shadow), 40)
    _update_rows(system, shadow, targets)
    _, updated = system.delta_refresh(handle)
    assert updated is handle
    view = masked_view(handle)
    assert view.n_rows == 400
    expected = system.oracle_column_set(handle.snapshot)
    assert canonical_compare(view.sorted_by_vid(), expected.sorted_by_vid()).equal
    assert handle.total_positions == 440


def test_masked_view_equals_full_retransform():
    system, shadow, handle = _loaded_system(300)
    rng = random.Random(5)
    for _ in range(3):
        _update_rows(system, shadow, rng.sample(list(shadow), 30))
        system.delta_refresh(handle)
    _, fresh = system.transform_snapshot(mode=MODE_MATERIALIZE)
    a = masked_view(handle).sorted_by_vid()
    b = masked_view(fresh).sorted_by_vid()
    assert canonical_compare(a, b).equal


def test_delete_clears_bit_without_append():
    system, shadow, handle = _loaded_system(100)
    victim = next(iter(shadow))
    t = system.store.begin_tx()
    system.store.install_version(t, victim, TOMBSTONE)
    system.store.commit_tx(t)
    visible_before = handle.visible_rows
    _, _ = system.delta_refresh(handle)
    assert handle.visible_rows == visible_before - 1
    assert victim not in handle.index.vids.tolist()
    assert victim not in set(int(v) for v in masked_view(handle).vids)


def test_fresh_materialization_all_bits_set():
    system, shadow, handle = _loaded_system(64)
    bits = handle.current
    assert bits.all() and len(bits) == 64
    assert canonical_compare(masked_view(handle).sorted_by_vid(),
                             assemble(handle.specs, read_segments(handle)).sorted_by_vid()).equal


def test_repeated_updates_leave_single_set_bit():
    system, shadow, handle = _loaded_system(50)
    vid = next(iter(shadow))
    for k in range(4):
        _update_rows(system, shadow, [vid], bump=k + 1)
        system.delta_refresh(handle)
    positions = handle.index.positions[handle.index.vids == vid].tolist()
    bits = handle.current
    vids_current = [int(v) for v, keep in
                    zip(assemble(handle.specs, read_segments(handle)).vids, bits) if keep]
    assert vids_current.count(vid) == 1
    assert bits[positions[0]]
    assert handle.total_positions == 54


def test_monotone_append_never_rewrites():
    system, shadow, handle = _loaded_system(200)
    before = [(seg.pe, key, read_fragment(system.device, frag))
              for seg in handle.segments for key, frag in seg.frags.items()]
    _update_rows(system, shadow, random.Random(7).sample(list(shadow), 50))
    system.delta_refresh(handle)
    for pe, key, data in before:
        seg = next(s for s in handle.segments if s.pe == pe and s.run == 0)
        assert read_fragment(system.device, seg.frags[key]) == data


def test_delta_cost_linearity_and_full_refresh():
    system, shadow, handle = _loaded_system(2000, seed=13)
    initial_bytes = handle.column_bytes
    rng = random.Random(19)
    vids = list(shadow)
    points = []
    for fraction in (10, 20, 40, 60, 80, 100):
        n = len(vids) * fraction // 100
        _update_rows(system, shadow, rng.sample(vids, n))
        system.merge_to_cold()
        caller = system.store.begin_tx()
        rows_before, bytes_before = handle.total_positions, handle.column_bytes
        inv = system.prepare_invocation(caller, handle.projection, prior_handle=handle)
        delta_transform(handle, inv, grantor=system.grant_space)
        system.store.commit_tx(caller)
        points.append((handle.total_positions - rows_before, handle.column_bytes - bytes_before))
        assert points[-1][0] == n

    import numpy as np
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1 - float(((ys - pred) ** 2).sum()) / float(((ys - ys.mean()) ** 2).sum())
    assert r2 >= 0.99
    # a fully-updated table costs what the initial materialization cost
    assert abs(points[-1][1] - initial_bytes) / initial_bytes < 0.05


def test_refresh_requires_newer_snapshot():
    system, shadow, handle = _loaded_system(50)
    caller = system.store.begin_tx()
    inv = system.prepare_invocation(caller, handle.projection, prior_handle=handle)
    system.store.commit_tx(caller)
    delta_transform(handle, inv, grantor=system.grant_space)
    stale_inv = inv
    with pytest.raises(NotRefreshable):
        delta_transform(handle, stale_inv, grantor=system.grant_space)


def test_change_detection_covers_late_commits():
    """A transaction in flight at the first materialization commits later;
    its rows must be picked up even though their create_ts predates the
    handle snapshot."""
    system = HostSystem()
    shadow = system.load_orderlines(60, seed=21)
    system.merge_to_cold()
    vid = next(iter(shadow))
    t_slow = system.store.begin_tx()
    old = shadow[vid]
    system.store.install_version(t_slow, vid, old[:6] + (old[6] + 9,) + old[7:])
    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE)  # t_slow in flight
    system.store.commit_tx(t_slow)
    system.delta_refresh(handle)
    expected = system.oracle_column_set(handle.snapshot)
    assert canonical_compare(masked_view(handle).sorted_by_vid(),
                             expected.sorted_by_vid()).equal
    got = masked_view(handle)
    idx = list(got.vids).index(vid)
    assert int(got.data["ol_quantity"][idx]) == old[6] + 9


def test_compact_rewrites_to_current_rows():
    system, shadow, handle = _loaded_system(150)
    rng = random.Random(23)
    _update_rows(system, shadow, rng.sample(list(shadow), 60))
    system.delta_refresh(handle)
    view_before = masked_view(handle).sorted_by_vid()
    total_before = handle.total_positions
    assert total_before == 210
    compact(handle)
    assert handle.total_positions == 150
    assert handle.current.all()
    assert canonical_compare(masked_view(handle).sorted_by_vid(), view_before).equal


def test_freed_handle_goes_stale():
    system, shadow, handle = _loaded_system(30)
    pages_before = system.device.free_page_count("NVM")
    free_handle(handle)
    assert system.device.free_page_count("NVM") > pages_before
    with pytest.raises(StaleHandle):
        masked_view(handle)
    caller = system.store.begin_tx()
    inv = system.prepare_invocation(caller, handle.projection, prior_handle=handle)
    system.store.commit_tx(caller)
    with pytest.raises(StaleHandle):
        delta_transform(handle, inv)
