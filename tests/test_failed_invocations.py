"""A failed invocation returns its pages to the pool and aborts its reader."""

import pytest

from ndtsim.delta import delta_transform, free_handle
from ndtsim.device import REGION_DDR, REGIONS, PageTable
from ndtsim.engine import MODE_STREAM
from ndtsim.errors import (
    DanglingReference,
    HostDenied,
    InvocationInFlight,
    NotRefreshable,
    PoolExhausted,
    StaleHandle,
)
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver
from conftest import undersized


def _loaded(rows=200):
    system = HostSystem()
    system.load_orderlines(rows, seed=31)
    system.merge_to_cold()
    _, handle = system.transform_snapshot()
    return system, handle


def _prepare(system, handle, projection=None):
    caller = system.store.begin_tx()
    return system.prepare_invocation(caller, projection or handle.projection,
                                     prior_handle=handle)


def _refresh_freed(system, handle):
    inv = _prepare(system, handle)
    free_handle(handle)
    return inv, StaleHandle


def _refresh_other_projection(system, handle):
    return _prepare(system, handle, ("ol_quantity",)), NotRefreshable


def _refresh_older_snapshot(system, handle):
    older = _prepare(system, handle)
    newer = _prepare(system, handle)
    delta_transform(handle, newer, grantor=system.grant_space)
    return older, NotRefreshable


def _write(system):
    """A few committed transactions, so that a refresh has candidates."""
    WorkloadDriver(system, WorkloadConfig(seed=5)).run(5)


def _refresh_dangling(system, handle):
    _write(system)
    inv = _prepare(system, handle)
    inv.l2p_view = PageTable.empty()
    return inv, DanglingReference


@pytest.mark.parametrize("setup", [_refresh_freed, _refresh_other_projection,
                                   _refresh_older_snapshot, _refresh_dangling])
def test_rejected_refresh_frees_invocation_pages(setup):
    system, handle = _loaded()
    inv, error = setup(system, handle)
    assert system.device.owner_pages(inv.owner)
    with pytest.raises(error):
        delta_transform(handle, inv, grantor=system.grant_space)
    assert system.device.owner_pages(inv.owner) == set()


def _deny(inv, count):
    raise PoolExhausted("denied")


def _drop_l2p(system):
    freeze = system.device.freeze_views
    system.device.freeze_views = lambda: (freeze()[0], PageTable.empty())


def _host_denied_transform(system, handle):
    system.grant_space = _deny
    with undersized(0.01):
        system.transform_snapshot()


def _dangling_stream(system, handle):
    _drop_l2p(system)
    system.transform_snapshot(mode=MODE_STREAM)


def _host_denied_refresh(system, handle):
    WorkloadDriver(system, WorkloadConfig(seed=3)).run(20)
    system.grant_space = _deny
    with undersized(0.01):
        system.delta_refresh(handle)


def _stale_refresh(system, handle):
    free_handle(handle)
    system.delta_refresh(handle)


def _dangling_refresh(system, handle):
    _write(system)
    _drop_l2p(system)
    system.delta_refresh(handle)


def _merge_mid_stream(system, handle):
    WorkloadDriver(system, WorkloadConfig(seed=4)).run(20)     # new pages in the delta mirror
    system.transform_snapshot(mode=MODE_STREAM, consumer=lambda batch: system.merge_to_cold())


def _merge_before_granting(system):
    grant = system.grant_space

    def merging_grant(inv, count):
        system.merge_to_cold()
        return grant(inv, count)

    system.grant_space = merging_grant


def _merge_mid_transform(system, handle):
    _merge_before_granting(system)
    with undersized(0.01):
        system.transform_snapshot()


def _merge_mid_refresh(system, handle):
    WorkloadDriver(system, WorkloadConfig(seed=3)).run(20)
    _merge_before_granting(system)
    with undersized(0.01):
        system.delta_refresh(handle)


@pytest.mark.parametrize("call, error", [
    (_host_denied_transform, HostDenied),
    (_dangling_stream, DanglingReference),
    (_host_denied_refresh, HostDenied),
    (_stale_refresh, StaleHandle),
    (_dangling_refresh, DanglingReference),
    (_merge_mid_stream, InvocationInFlight),
    (_merge_mid_transform, InvocationInFlight),
    (_merge_mid_refresh, InvocationInFlight),
])
def test_failed_host_call_frees_pages_and_aborts_reader(call, error):
    system, handle = _loaded()
    invs = []
    prepare = system.prepare_invocation

    def spy(*args, **kwargs):
        invs.append(prepare(*args, **kwargs))
        return invs[-1]

    system.prepare_invocation = spy
    with pytest.raises(error):
        call(system, handle)
    inv = invs[-1]
    assert system.device.owner_pages(inv.owner) == set()
    assert system.store.in_flight == set()


def test_merge_is_refused_only_while_an_invocation_runs():
    system, _handle = _loaded()
    WorkloadDriver(system, WorkloadConfig(seed=4)).run(20)
    with system.device.invocation_in_flight():
        with pytest.raises(InvocationInFlight):
            system.merge_to_cold()
    with pytest.raises(InvocationInFlight):
        system.transform_snapshot(mode=MODE_STREAM,
                                  consumer=lambda batch: system.merge_to_cold())
    assert system.merge_to_cold()
    assert REGIONS.index(REGION_DDR) not in system.device.l2p.regions
