"""The device map mirrors against a dict model.

Random sequences of propagations (new vids, updates, removals, a removed
vid inserted again, new pages) and delta-page merges drive one device.
After every step its vid map must equal the model sorted by vid, every
page lid the host was told about must resolve to the placement of the
last acknowledgement and hold that page's image, and no row may be in DDR
after a merge.  Views frozen at earlier steps must not have changed and
must not be writeable.

A page table built by placements resolves every lid as a ``searchsorted``
over the placed (lid, region, page) rows would, and a walk over a head
whose page is unmapped raises ``DanglingReference``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndtsim.device import (
    REGION_DDR,
    REGIONS,
    UNRESOLVED,
    VID_ENTRY,
    Device,
    DeviceConfig,
    PageTable,
)
from ndtsim.engine import pe_visibility_check
from ndtsim.errors import DanglingReference
from ndtsim.layout import PAGE_SIZE, Int32, RecordID, Schema, pack_rid
from ndtsim.shared_state import SharedStateSnapshot
from conftest import Harness

RIDS = st.builds(RecordID, st.integers(1, 1 << 30), st.integers(0, 400))
PROPAGATION = st.tuples(st.integers(0, 3),
                        st.dictionaries(st.integers(0, 40), st.none() | RIDS, max_size=12))
STEPS = st.lists(st.just("merge") | PROPAGATION, max_size=12)


def _image(lid: int) -> bytes:
    return lid.to_bytes(8, "little") * (PAGE_SIZE // 8)


def _frozen(device):
    vid_map, l2p = device.freeze_views()
    assert vid_map is device.vid_map and l2p is device.l2p
    return [vid_map, *l2p]


@settings(max_examples=150, deadline=None)
@given(STEPS)
@example([(2, {1: RecordID(1, 0), 2: RecordID(1, 1)}), (0, {1: None, 3: None}),
          "merge", (1, {1: RecordID(2, 0)}), "merge"])
def test_mirrors_match_a_dict_model(steps):
    device = Device(DeviceConfig(ddr_capacity_pages=64, nvm_capacity_pages=64))
    vids, pages = {}, {}                # the model: vid -> packed head, lid -> (region, index)
    frozen = []                         # (view arrays, their values) of every earlier step
    next_lid = 1
    for step in steps:
        views = _frozen(device)
        frozen.append((views, [view.copy() for view in views]))
        if step == "merge":
            pages.update(device.merge_delta_pages())
            assert REGIONS.index(REGION_DDR) not in device.l2p.regions
        else:
            new_pages, delta = step
            lids = list(range(next_lid, next_lid + new_pages))
            next_lid += new_pages
            pages.update(device.apply_propagation(SharedStateSnapshot(
                pages=tuple((lid, _image(lid)) for lid in lids),
                vids=np.array(sorted(delta), dtype=np.uint64),
                heads=np.array([pack_rid(delta[vid]) for vid in sorted(delta)], dtype=np.uint64),
                in_flight=None)))
            for vid, rid in delta.items():
                if rid is None:
                    vids.pop(vid, None)
                else:
                    vids[vid] = pack_rid(rid)

        assert device.vid_map.dtype == VID_ENTRY
        assert device.vid_map.tolist() == sorted(vids.items())
        assert np.flatnonzero(device.l2p.regions != UNRESOLVED).tolist() == sorted(pages)
        codes, indexes = device.l2p.resolve(np.array(sorted(pages), dtype=np.uint64))
        for lid, code, idx in zip(sorted(pages), codes.tolist(), indexes.tolist()):
            assert (REGIONS[code], idx) == pages[lid]
            assert bytes(device.peek(REGIONS[code], idx * PAGE_SIZE, PAGE_SIZE)) == _image(lid)
        codes, _ = device.l2p.resolve(np.array([0, next_lid], dtype=np.uint64))
        assert codes.tolist() == [UNRESOLVED, UNRESOLVED]
        for views, values in frozen:
            for view, value in zip(views, values):
                assert not view.flags.writeable
                assert np.array_equal(view, value)


def _searchsorted_resolve(lids, regions, pages, query: np.ndarray):
    """(region codes, page indexes) of ``query`` by a ``searchsorted`` over
    the rows (``lids`` sorted); ``UNRESOLVED`` and 0 where unmapped."""
    if not len(lids):
        return np.full(len(query), UNRESOLVED, dtype=np.uint8), np.zeros(len(query), np.int64)
    at = np.minimum(np.searchsorted(lids, query), len(lids) - 1)
    mapped = lids[at] == query
    return (np.where(mapped, regions[at], UNRESOLVED).astype(np.uint8),
            np.where(mapped, pages[at], 0))


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(1, 300), max_size=40),
       st.lists(st.integers(0, 400) | st.integers(0, 2**64 - 1), max_size=30),
       st.integers(0, 2**32))
@example(set(), [0, 1, 2**64 - 1], 0)
def test_the_lid_view_resolves_as_a_searchsorted(lids, probes, seed):
    rng = np.random.default_rng(seed)
    lids = np.array(sorted(lids), dtype=np.int64)
    regions = rng.integers(0, len(REGIONS), len(lids)).astype(np.uint8)
    pages = rng.integers(0, 1 << 20, len(lids))
    table = PageTable.empty()
    for code in range(len(REGIONS)):              # one placement per region
        table = table.placed(lids[regions == code], code, pages[regions == code])
    # lid 0, the largest, past the largest, every gap below it, and the probes
    top = int(lids[-1]) if len(lids) else 0
    query = np.array([0, top, top + 1, *range(top), *probes], dtype=np.uint64)
    for part in (query, query[query <= top], query[:0]):
        codes, found = table.resolve(part)
        want_codes, want_pages = _searchsorted_resolve(lids.astype(np.uint64), regions, pages,
                                                       part)
        assert codes.dtype == np.uint8 and found.dtype == np.int64
        assert codes.tolist() == want_codes.tolist()
        assert found.tolist() == want_pages.tolist()
    assert len(table.regions) == len(table.pages) == (top + 1 if len(lids) else 0)
    for array in table:
        assert not array.flags.writeable


def test_the_empty_table_resolves_nothing():
    table = PageTable.empty()
    codes, pages = table.resolve(np.array([0, 1, 2**63], dtype=np.uint64))
    assert codes.tolist() == [UNRESOLVED] * 3 and pages.tolist() == [0] * 3
    assert all(not array.flags.writeable for array in table)


@pytest.mark.parametrize("where", ["gap", "zero", "past"])
def test_a_walk_over_an_unmapped_head_raises(where):
    """The first tuple's head points at a lid the frozen table does not map:
    one dropped from between mapped lids, lid 0, or one past the largest."""
    h = Harness(Schema("t", [("a", Int32(), False)]), capacity=PAGE_SIZE)
    h.install_rows({vid: (vid,) for vid in range(1, 3000)})
    inv = h.prepare()
    l2p = inv.l2p_view
    mapped = np.flatnonzero(l2p.regions != UNRESOLVED)
    assert len(mapped) >= 3
    vids, heads = inv.vid_view["vid"], inv.vid_view["head"].copy()
    if where == "gap":
        lid = int(mapped[1])
        l2p = l2p.placed(np.array([lid]), UNRESOLVED, [0])
        heads[0] = pack_rid(RecordID(lid, 0))
    else:
        heads[0] = pack_rid(RecordID(0 if where == "zero" else int(mapped[-1]) + 1, 0))
    with pytest.raises(DanglingReference, match=f"vid {vids[0]}:"):
        pe_visibility_check(h.device, 0, vids, heads, inv.descriptor, l2p)
