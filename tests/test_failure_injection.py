"""A failure anywhere in an invocation or a compaction leaves the system as
it was.

Every invocation passes through ``run_invocation``'s one guard, so one
harness covers first materializations, streams and refreshes.  Each case
raises ``CorruptRecord``, ``PoolExhausted`` or ``HostDenied`` at a random
call the invocation makes to the device or to the host's grantor while it
walks, transforms (``run_jobs``) or appends (``append_run``).  The call is
picked among those a twin system, built from the same seeds, makes in that
step without a failure.  Afterwards the page pools, the reader
transactions and a refreshed handle must be as they were, its next
``masked_view`` must equal a cache-free read, and the next invocation
must succeed.  A refresh of eight PEs whose one pooled record load
raises is checked the same way.  The same harness injects into the reads,
page allocations and writes of ``compact``, with the same checks, and a
compaction that runs out of NVM for real must leave the pool and the
handle as they were.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtsim import engine
from ndtsim.columns import assemble, canonical_compare
from ndtsim.delta import compact, masked_view
from ndtsim.device import REGION_DDR, REGION_NVM, DeviceConfig
from ndtsim.engine import MODE_STREAM, columns_from_batches
from ndtsim.errors import CorruptRecord, HostDenied, OutOfSpace, PoolExhausted
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver
from conftest import undersized
from reference_readback import read_segments
from test_columns import _assert_identical

STEPS = ("walk", "run_jobs", "append_run")
ERRORS = (CorruptRecord, PoolExhausted, HostDenied)
DEVICE_CALLS = ("pe_read_vid_entry", "pe_read_l2p", "pe_read_slot", "pe_probe_header",
                "pe_read_records", "read", "read_pages", "read_runs", "write", "write_pages",
                "allocate_pages")


class Injector:
    """Counts the device and grantor calls each step makes and raises
    ``error`` instead of the ``at``-th call of step ``step``."""

    def __init__(self, step=None, at=None, error=None):
        self.step, self.at, self.error = step, at, error
        self.current = None
        self.calls = Counter()
        self.raised = None

    def point(self, original):
        def call(*args, **kwargs):
            step = self.current
            if step is not None:
                if step == self.step and self.calls[step] == self.at:
                    self.raised = original.__name__
                    raise self.error(f"injected at call {self.at} of {step}")
                self.calls[step] += 1
            return original(*args, **kwargs)
        return call

    def step_of(self, name, original):
        def call(*args, **kwargs):
            self.current = name
            try:
                return original(*args, **kwargs)
            finally:
                self.current = None
        return call


@contextmanager
def _injected(system, injector, small_reservation: bool):
    with pytest.MonkeyPatch.context() as patch:
        for name in STEPS:
            patch.setattr(engine, name, injector.step_of(name, getattr(engine, name)))
        for name in DEVICE_CALLS:
            patch.setattr(system.device, name, injector.point(getattr(system.device, name)))
        patch.setattr(system, "grant_space", injector.point(system.grant_space))
        with undersized(0.05 if small_reservation else 1.0):   # small: run_jobs asks for space
            yield


def _system(seed: int, kind: str, pe_count: int, rows: int = 160, device_cfg=None):
    system = HostSystem(device_cfg)
    shadow = system.load_orderlines(rows, seed=seed)
    system.merge_to_cold()
    driver = WorkloadDriver(system, WorkloadConfig(seed=seed), shadow)
    handle = None
    if kind == "refresh":
        _, handle = system.transform_snapshot(pe_count=pe_count)
        masked_view(handle)               # the handle keeps the strings it decoded
    driver.run(25)
    system.shared.propagate()             # so that the invocation allocates no delta page
    return system, handle


def _invoke(system, handle, kind: str, pe_count: int):
    """Run one invocation; returns it and its result as a column set."""
    if kind == "stream":
        inv, batches = system.transform_snapshot(mode=MODE_STREAM, pe_count=pe_count)
        return inv, columns_from_batches(system.schema, inv.projection, batches, inv.pe_count)
    if kind == "materialize":
        inv, handle = system.transform_snapshot(pe_count=pe_count)
    else:
        inv, handle = system.delta_refresh(handle, pe_count=pe_count)
    return inv, masked_view(handle)


def _state(system, handle) -> dict:
    device = system.device
    state = {"free": [device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)],
             "readers": set(system.store.in_flight)}
    if handle is not None:
        state["handle"] = (handle.owner, device.owner_pages(handle.owner), len(handle.segments),
                           handle.snapshot, handle.run_count, handle.column_bytes,
                           list(handle.bitmap_pages), handle.current.tobytes(),
                           [a.tobytes() for a in handle.index], handle.propagation,
                           handle.unsettled.tobytes())
    return state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), kind=st.sampled_from(["materialize", "stream", "refresh"]),
       step=st.sampled_from(STEPS), error=st.sampled_from(ERRORS), pe_count=st.integers(1, 4),
       small_reservation=st.booleans(), share=st.floats(0, 1, exclude_max=True))
def test_a_failed_invocation_restores_pools_readers_and_handle(
        seed, kind, step, error, pe_count, small_reservation, share):
    if kind == "stream" and step == "append_run":
        step = "run_jobs"                 # a stream appends nothing
    twin, twin_handle = _system(seed, kind, pe_count)
    counter = Injector()
    with _injected(twin, counter, small_reservation):
        _invoke(twin, twin_handle, kind, pe_count)
    calls = counter.calls[step]
    assert calls, f"{kind} makes no device call in {step}"

    system, handle = _system(seed, kind, pe_count)
    before = _state(system, handle)
    injector = Injector(step, int(share * calls), error)
    with _injected(system, injector, small_reservation):
        with pytest.raises((error, HostDenied)) as raised:
            _invoke(system, handle, kind, pe_count)
    if raised.type is not error:          # a PoolExhausted in a grant is denied
        assert error is PoolExhausted and injector.raised in ("grant_space", "allocate_pages")
    assert _state(system, handle) == before

    if handle is not None:
        _assert_identical(masked_view(handle),
                          assemble(handle.specs, read_segments(handle), handle.current))
    inv, view = _invoke(system, handle, kind, pe_count)
    assert canonical_compare(view, system.oracle_column_set(inv.descriptor)).equal
    if handle is not None:
        assert np.array_equal(np.sort(handle.index.positions), np.flatnonzero(handle.current))


@pytest.mark.parametrize("error", ERRORS)
def test_a_failed_pooled_load_of_eight_pes_restores_the_refresh(error):
    """A refresh extracts the changed rows of all eight PEs in one batch, so
    its transform makes one ``pe_read_records`` call, for every PE, before
    any other device call; here that call raises."""
    twin, twin_handle = _system(5, "refresh", 8)
    loads = []
    load = twin.device.pe_read_records

    def counted(pe, *args):
        loads.append(np.unique(pe).tolist())
        return load(pe, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twin.device, "pe_read_records", counted)
        _invoke(twin, twin_handle, "refresh", 8)
    assert loads == [list(range(8))]

    system, handle = _system(5, "refresh", 8)
    before = _state(system, handle)
    injector = Injector("run_jobs", 0, error)
    with _injected(system, injector, small_reservation=False):
        with pytest.raises(error):
            _invoke(system, handle, "refresh", 8)
    assert injector.raised == "pe_read_records"
    _assert_restored(system, handle, before)
    inv, view = _invoke(system, handle, "refresh", 8)
    assert canonical_compare(view, system.oracle_column_set(inv.descriptor)).equal
    assert np.array_equal(np.sort(handle.index.positions), np.flatnonzero(handle.current))


def _compactable(seed: int, pe_count: int, **setup):
    """A system whose handle holds two runs, outdated positions and the
    strings its last view decoded."""
    system, handle = _system(seed, "refresh", pe_count, **setup)
    system.delta_refresh(handle, pe_count=pe_count)
    masked_view(handle)
    return system, handle


def _assert_restored(system, handle, before):
    """The pools and the handle are as they were, and its next view equals
    a cache-free read."""
    assert _state(system, handle) == before
    _assert_identical(masked_view(handle),
                      assemble(handle.specs, read_segments(handle), handle.current))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), error=st.sampled_from(ERRORS), pe_count=st.integers(1, 4),
       share=st.floats(0, 1, exclude_max=True))
def test_a_failed_compaction_restores_pools_and_handle(seed, error, pe_count, share):
    twin, twin_handle = _compactable(seed, pe_count)
    counter = Injector()
    with _injected(twin, counter, small_reservation=False):
        counter.step_of("compact", compact)(twin_handle)
    assert counter.calls["compact"], "compact makes no device call"

    system, handle = _compactable(seed, pe_count)
    before = _state(system, handle)
    injector = Injector("compact", int(share * counter.calls["compact"]), error)
    with _injected(system, injector, small_reservation=False):
        with pytest.raises(error):
            injector.step_of("compact", compact)(handle)
    assert injector.raised in ("read_runs", "allocate_pages", "write_pages")
    _assert_restored(system, handle, before)
    compact(handle)
    assert canonical_compare(masked_view(handle),
                             system.oracle_column_set(handle.snapshot)).equal


def test_a_compaction_out_of_nvm_restores_pools_and_handle():
    """On 230 NVM pages, 2000 rows after one refresh leave fewer pages free
    than the compacted copy needs."""
    system, handle = _compactable(1, 8, rows=2000,
                                  device_cfg=DeviceConfig(nvm_capacity_pages=230))
    before = _state(system, handle)
    with pytest.raises(OutOfSpace):
        compact(handle)
    _assert_restored(system, handle, before)
