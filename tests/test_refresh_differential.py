"""Seeded differential test of refresh sequences against the host oracle.

Each seed loads a table, materializes it, then runs rounds of an OLTP mix
with many deletes and aborts, each followed by a refresh with a random PE
count.  Some rounds merge the delta pages to cold NVM first (so pages sit
in both regions), some leave a writer in flight during the refresh and
abort it afterwards, and some compact the materialization after it.
After every refresh (and every compaction) the materialization must hold
exactly the oracle's rows, and its identity index must agree with its
current-position mask and with the oracle's visible versions.
"""

import random

import numpy as np
import pytest

from ndtsim.columns import canonical_compare
from ndtsim.delta import compact, delta_transform, masked_view
from ndtsim.device import REGIONS
from ndtsim.engine import MODE_MATERIALIZE
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver
from ndtsim.mvcc import oracle_visible_version

ROWS = 600
ROUNDS = 10


def _leave_writer_in_flight(system, driver, rng):
    """Begin a transaction that updates, deletes and inserts; do not finish it."""
    store = system.store
    t = store.begin_tx()
    live = sorted(driver.shadow)
    for vid in rng.sample(live, 6):
        old = driver.shadow[vid]
        store.install_version(t, vid, old[:6] + (old[6] + 1,) + old[7:])
    store.delete_version(t, rng.choice(live))
    store.install_version(t, system.new_vids(1)[0], driver.shadow[live[0]])
    return t


def _check_against_oracle(system, handle):
    """The handle's rows, index and mask agree with the oracle at its snapshot."""
    snap = handle.snapshot
    expected = system.oracle_column_set(snap, handle.projection)
    view = masked_view(handle)
    result = canonical_compare(view.sorted_by_vid(), expected.sorted_by_vid())
    assert result.equal, result.reason
    assert handle.visible_rows == expected.n_rows

    index = handle.index
    assert index.vids.dtype == np.uint64 and index.rids.dtype == np.uint64
    assert index.positions.dtype == np.int64
    assert np.all(np.diff(index.vids.astype(np.int64)) > 0)
    assert np.array_equal(index.vids, np.sort(expected.vids))
    assert np.array_equal(np.sort(index.positions), np.flatnonzero(handle.current))
    for vid, rid in zip(index.vids.tolist(), index.rids.tolist()):
        assert rid == oracle_visible_version(system.store.vid_map[vid], snap)
    return set(expected.vids.tolist())


@pytest.mark.parametrize("seed", range(4))
def test_refresh_sequence_matches_oracle(seed):
    rng = random.Random(seed)
    system = HostSystem()
    shadow = system.load_orderlines(ROWS, seed=seed)
    system.merge_to_cold()
    cfg = WorkloadConfig(seed=seed, new_order_weight=0.3, delivery_weight=0.3,
                         delete_weight=0.2, amount_update_weight=0.2, abort_fraction=0.2)
    driver = WorkloadDriver(system, cfg, shadow)
    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE, pe_count=rng.randint(1, 8))
    visible = _check_against_oracle(system, handle)

    merged = in_flight = compacted = both_regions = 0
    for _ in range(ROUNDS):
        driver.run(rng.randint(5, 25))
        if rng.random() < 0.5:
            system.merge_to_cold()
            merged += 1
        writer = _leave_writer_in_flight(system, driver, rng) if rng.random() < 0.4 else None

        caller = system.store.begin_tx()
        inv = system.prepare_invocation(caller, handle.projection, MODE_MATERIALIZE,
                                        rng.randint(1, 8), prior_handle=handle)
        both_regions += set(range(len(REGIONS))) <= set(inv.l2p_view.regions.tolist())
        vids_before = handle.index.vids
        delta_transform(handle, inv, grantor=system.grant_space)
        system.store.commit_tx(caller)
        if writer is not None:
            system.store.abort_tx(writer)
            in_flight += 1

        now = _check_against_oracle(system, handle)
        removed = np.setdiff1d(vids_before, handle.index.vids, assume_unique=True)
        assert set(removed.tolist()) == visible - now
        visible = now
        if rng.random() < 0.3:
            compact(handle)
            compacted += 1
            assert handle.current.all()
            _check_against_oracle(system, handle)
    assert merged and in_flight and compacted and both_regions, \
        "every variation must occur at least once"
