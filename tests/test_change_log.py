"""The device's change log and the candidates a refresh walks.

Each propagation is numbered; while a materialization handle is live the
device logs the vids each later propagation changed, and a refresh walks
only those and the vids its handle's last walk could not see the head of.
"""

import numpy as np
import pytest

from ndtsim.columns import canonical_compare
from ndtsim.delta import compact, free_handle, masked_view
from ndtsim.device import REQUESTER_COORD
from ndtsim.engine import run_invocation
from ndtsim.errors import NotRefreshable
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver

WALK_OPS = ("vid_entry", "l2p", "index_probe", "slot", "probe")


def _loaded(rows=300, seed=13):
    system = HostSystem()
    shadow = system.load_orderlines(rows, seed=seed)
    system.merge_to_cold()
    return system, shadow


def _bump(system, shadow, vids, commit=True):
    """One transaction that updates ``vids``; left in flight unless ``commit``."""
    t = system.store.begin_tx()
    for vid in vids:
        old = shadow[vid]
        system.store.install_version(t, vid, old[:6] + (old[6] + 1,) + old[7:])
    if commit:
        system.store.commit_tx(t)
    return t


def _walk_ops(before: dict, after: dict) -> dict:
    """The walk's ops between two ledger snapshots, summed over the PEs."""
    total = dict.fromkeys(WALK_OPS, 0)
    for pe, ops in after["pe_ops"].items():
        for op in WALK_OPS:
            total[op] += ops.get(op, 0) - before["pe_ops"].get(pe, {}).get(op, 0)
    return total


def _assert_oracle(system, handle):
    expected = system.oracle_column_set(handle.snapshot, handle.projection).sorted_by_vid()
    same = canonical_compare(masked_view(handle).sorted_by_vid(), expected)
    assert same.equal, same.reason


def test_the_log_is_empty_when_no_handle_is_live():
    system, shadow = _loaded()
    driver = WorkloadDriver(system, WorkloadConfig(seed=3), shadow)
    driver.run(40)
    system.transform_snapshot(mode="stream")
    assert not system.device.change_log and system.device.propagations > 1
    _, handle = system.transform_snapshot()
    driver.run(40)
    system.merge_to_cold()
    assert system.device.change_log
    free_handle(handle)
    free_handle(handle)                     # a second free releases nothing more
    driver.run(40)
    system.shared.propagate()
    assert not system.device.change_log


def test_the_log_keeps_what_follows_the_oldest_live_handle():
    system, shadow = _loaded()
    driver = WorkloadDriver(system, WorkloadConfig(seed=4), shadow)
    _, old = system.transform_snapshot()
    driver.run(30)
    _, new = system.transform_snapshot()
    driver.run(30)
    system.delta_refresh(new)
    system.shared.propagate()
    numbers = [number for number, _vids in system.device.change_log]
    assert numbers == list(range(old.propagation + 1, system.device.propagations + 1))
    free_handle(old)
    system.shared.propagate()
    numbers = [number for number, _vids in system.device.change_log]
    assert numbers == list(range(new.propagation + 1, system.device.propagations + 1))


def test_a_refresh_with_no_candidates_reads_no_map_entry():
    system, _shadow = _loaded()
    _, handle = system.transform_snapshot(pe_count=4)
    positions = handle.total_positions
    before = system.device.ledger.snapshot()
    system.delta_refresh(handle, pe_count=4)
    after = system.device.ledger.snapshot()
    assert _walk_ops(before, after) == dict.fromkeys(WALK_OPS, 0)
    assert after["pe_ops"].get(REQUESTER_COORD, {}).get("log_entry", 0) == \
        before["pe_ops"].get(REQUESTER_COORD, {}).get("log_entry", 0)
    assert handle.total_positions == positions and len(handle.unsettled) == 0
    _assert_oracle(system, handle)


def test_a_refresh_walks_the_logged_vids_and_the_heads_it_could_not_see():
    system, shadow = _loaded()
    vids = sorted(shadow)
    late = _bump(system, shadow, vids[:5], commit=False)      # in flight at the snapshot
    _, handle = system.transform_snapshot(pe_count=3)
    assert handle.unsettled.tolist() == vids[:5]
    system.store.commit_tx(late)                # changes no map entry
    _bump(system, shadow, vids[10:17])
    before = system.device.ledger.snapshot()
    system.delta_refresh(handle, pe_count=3)
    walked = _walk_ops(before, system.device.ledger.snapshot())
    assert walked["vid_entry"] == walked["index_probe"] == 12
    assert len(handle.unsettled) == 0
    _assert_oracle(system, handle)
    compact(handle)
    assert handle.propagation == system.device.propagations and len(handle.unsettled) == 0


def test_a_refresh_the_log_no_longer_reaches_walks_every_tuple():
    """A propagation between an invocation's snapshot and the handle it
    makes is logged for no handle, so the handle's first refresh walks the
    whole map; the next one walks its candidates again."""
    system, shadow = _loaded()
    vids = sorted(shadow)
    with system.reader() as caller:
        inv = system.prepare_invocation(caller)
        _bump(system, shadow, vids[:8])         # after the snapshot, before the handle
        system.shared.propagate()
        handle = run_invocation(inv, system.device, system.grant_space)
    assert system.device.changed_between(handle.propagation, system.device.propagations) is None
    before = system.device.ledger.snapshot()
    system.delta_refresh(handle)
    assert _walk_ops(before, system.device.ledger.snapshot())["vid_entry"] == len(vids)
    _assert_oracle(system, handle)
    assert np.isin(vids[:8], handle.index.vids).all()
    _bump(system, shadow, vids[20:23])
    before = system.device.ledger.snapshot()
    system.delta_refresh(handle)
    assert _walk_ops(before, system.device.ledger.snapshot())["vid_entry"] == 3
    _assert_oracle(system, handle)


def test_a_refresh_whose_views_are_older_than_its_handles_walks_every_tuple():
    """Reader ``b`` is prepared before reader ``a`` yet began after it, so
    its snapshot is newer and its frozen views older than those of the
    handle that ``a`` refreshed: no span of the log leads from the handle
    to ``b``, and the refresh walks the whole map."""
    system, shadow = _loaded()
    vids = sorted(shadow)
    _, handle = system.transform_snapshot()
    a = system.store.begin_tx()
    b = system.store.begin_tx()
    inv_b = system.prepare_invocation(b, handle.projection, prior_handle=handle)
    _bump(system, shadow, vids[:4])             # a writer neither reader sees
    inv_a = system.prepare_invocation(a, handle.projection, prior_handle=handle)
    run_invocation(inv_a, system.device, system.grant_space, handle=handle)
    assert handle.unsettled.tolist() == vids[:4]
    _assert_oracle(system, handle)
    before = system.device.ledger.snapshot()
    run_invocation(inv_b, system.device, system.grant_space, handle=handle)
    assert _walk_ops(before, system.device.ledger.snapshot())["vid_entry"] == len(vids)
    _assert_oracle(system, handle)
    system.delta_refresh(handle)
    _assert_oracle(system, handle)
    for t in (a, b):
        system.store.commit_tx(t)


def test_a_refresh_that_would_hide_what_the_handle_saw_is_refused():
    """Reader ``b`` began after reader ``a`` but was prepared while a writer
    was in flight that committed before ``a`` was prepared: ``a``'s handle
    holds the writer's versions, and ``b``'s snapshot would hide them."""
    system, shadow = _loaded()
    vids = sorted(shadow)
    _, handle = system.transform_snapshot()
    writer = _bump(system, shadow, vids[:4], commit=False)
    a = system.store.begin_tx()
    b = system.store.begin_tx()
    inv_b = system.prepare_invocation(b, handle.projection, prior_handle=handle)
    system.store.commit_tx(writer)
    inv_a = system.prepare_invocation(a, handle.projection, prior_handle=handle)
    run_invocation(inv_a, system.device, system.grant_space, handle=handle)
    with pytest.raises(NotRefreshable, match=rf"counts \[{writer}\] in flight"):
        run_invocation(inv_b, system.device, system.grant_space, handle=handle)
    assert system.device.owner_pages(inv_b.owner) == set()
    _assert_oracle(system, handle)
    for t in (a, b):
        system.store.commit_tx(t)
