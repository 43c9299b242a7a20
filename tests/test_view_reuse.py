"""``masked_view`` decodes a segment's strings once and reuses them.

A handle keeps the rows of the segments its view decoded, their varchar
buffers, the current mask they were decoded under, and the strings.  A
later view or a compaction may reuse them only while those segments lead
the handle with byte-equal buffers and the mask has only lost positions
among theirs; the rows after them are decoded in one call.  Every view
here must equal a cache-free read, the per-segment reader of
``reference_readback`` over one ``read_pages`` per fragment, row for row
(or raise the same typed error with the same message) and charge the
ledger as it does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtsim import columns
from ndtsim.delta import compact, masked_view
from ndtsim.device import REQUESTER_COORD
from ndtsim.errors import CorruptDescriptor, NdtError
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver
from ndtsim.layout import PAGE_SIZE
from reference_readback import cache_free_view
from test_columns import _assert_identical

VARCHAR = "ol_dist_info"


def _read(call):
    """``call()``'s result, or the type and message of the ``NdtError`` it
    raised (one is None)."""
    try:
        return call(), None
    except NdtError as exc:
        return None, (type(exc), str(exc))


def _check_view(handle):
    """The view equals a cache-free read of the same pages, and charges the same."""
    ledger = handle.device.ledger
    before = ledger.snapshot()
    got, got_error = _read(lambda: masked_view(handle))
    charged = ledger.delta_since(before)
    middle = ledger.snapshot()
    want, want_error = _read(lambda: cache_free_view(handle))
    assert charged == ledger.delta_since(middle)
    assert got_error == want_error
    if want is not None:
        _assert_identical(got, want)
    return got_error


def _fragments(handle, varchar: bool) -> list:
    return [frag for seg in handle.segments for key, frag in sorted(seg.frags.items())
            if frag.nbytes and (key[0] == VARCHAR) == varchar]


def _loaded(seed: int, rows: int, pe_count: int):
    system = HostSystem()
    shadow = system.load_orderlines(rows, seed=seed)
    system.merge_to_cold()
    driver = WorkloadDriver(system, WorkloadConfig(seed=seed), shadow)
    _, handle = system.transform_snapshot(pe_count=pe_count)
    return system, driver, handle


OPS = ("oltp", "refresh", "compact", "view", "view", "write", "write", "revert", "revive")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_every_view_equals_a_cache_free_read(seed, data):
    """Random OLTP rounds, refreshes, compactions, repeated views and
    single-byte writes into the handle's fixed-width and varchar fragment
    pages (later reverted, or not), and current bits set again by hand."""
    system, driver, handle = _loaded(seed, 240, data.draw(st.integers(1, 4)))
    driver.run(20)
    system.delta_refresh(handle)          # outdated positions from the start
    _check_view(handle)
    device = handle.device
    written = {}                  # (region, offset) -> the byte there before the first write
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=3, max_size=14)):
        if op == "oltp":
            driver.run(data.draw(st.integers(1, 30)))
        elif op == "refresh":
            if data.draw(st.booleans()):
                system.merge_to_cold()
            system.delta_refresh(handle, pe_count=data.draw(st.integers(1, 4)))
        elif op == "compact":
            try:
                compact(handle)
            except NdtError:      # a corrupt varchar buffer; the handle is left as it was
                continue
            written.clear()       # the old pages are free and may be reused
        elif op == "view":
            _check_view(handle)
        elif op == "write":
            frags = _fragments(handle, data.draw(st.booleans()))
            if not frags:
                continue
            frag = data.draw(st.sampled_from(frags))
            at = data.draw(st.integers(0, frag.nbytes - 1))
            place = (frag.region, frag.pages[at // PAGE_SIZE] * PAGE_SIZE + at % PAGE_SIZE)
            written.setdefault(place, bytes(device.peek(*place, 1)))
            device.write(*place, bytes([data.draw(st.integers(0, 255))]), REQUESTER_COORD)
        elif op == "revert":
            for place, byte in written.items():
                device.write(*place, byte, REQUESTER_COORD)
            written.clear()
        elif not handle.current.all():
            current = handle.current.copy()
            current[data.draw(st.sampled_from(np.flatnonzero(~current).tolist()))] = True
            handle.current = current
    _check_view(handle)
    _check_view(handle)


@pytest.fixture
def decodes(monkeypatch):
    """Rows decoded by ``columns.decode_varchar`` since the fixture was set up."""
    count = []
    decode = columns.decode_varchar

    def counting(payload, offsets, what, keep=None):
        values = decode(payload, offsets, what, keep)
        count.append(len(values))
        return values

    monkeypatch.setattr(columns, "decode_varchar", counting)
    return count


def test_an_unchanged_segment_is_decoded_once(decodes):
    system, driver, handle = _loaded(seed=5, rows=600, pe_count=4)
    masked_view(handle)
    assert sum(decodes) == handle.visible_rows      # the first view decodes every segment
    del decodes[:]
    masked_view(handle)
    assert decodes == []

    driver.run(40)
    system.delta_refresh(handle)
    new = handle.segments[-1].run
    masked_view(handle)
    assert len(decodes) == 1                        # the new segments' rows, in one decode
    assert sum(decodes) == sum(seg.rows for seg in handle.segments if seg.run == new)

    del decodes[:]
    compact(handle)
    masked_view(handle)
    assert decodes == []                            # compaction carried the strings

    frag = _fragments(handle, varchar=True)[0]
    device = handle.device
    place = (frag.region, frag.pages[0] * PAGE_SIZE)
    original = bytes(device.peek(*place, 1))
    device.write(*place, b"\xff", REQUESTER_COORD)
    with pytest.raises(CorruptDescriptor):          # not UTF-8: decoded again, and checked
        masked_view(handle)
    device.write(*place, original, REQUESTER_COORD)
    del decodes[:]
    masked_view(handle)
    assert decodes == []                            # the kept strings outlived the failure


def test_a_view_after_an_unviewed_compaction_decodes_again(decodes):
    system, driver, handle = _loaded(seed=6, rows=300, pe_count=2)
    driver.run(30)
    system.delta_refresh(handle)
    compact(handle)
    assert not handle.decoded                       # no view kept anything to carry
    masked_view(handle)
    assert sum(decodes) == handle.visible_rows


def test_a_position_set_current_again_is_decoded_again(decodes):
    """A current bit is only ever cleared until a compaction; the reuse
    checks that, rather than assuming it."""
    system, driver, handle = _loaded(seed=7, rows=300, pe_count=2)
    driver.run(30)
    system.delta_refresh(handle)
    masked_view(handle)
    current = handle.current.copy()
    current[np.flatnonzero(~current)[0]] = True
    handle.current = current
    del decodes[:]
    _check_view(handle)
    assert decodes
