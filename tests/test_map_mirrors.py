"""The device map mirrors against a dict model.

Random sequences of propagations (new vids, updates, removals, a removed
vid inserted again, new pages) and delta-page merges drive one device.
After every step its vid map must equal the model sorted by vid, every
page lid the host was told about must resolve to the placement of the
last acknowledgement and hold that page's image, and no row may be in DDR
after a merge.  Views frozen at earlier steps must not have changed and
must not be writeable.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ndtsim.device import REGION_DDR, REGIONS, UNRESOLVED, VID_ENTRY, Device, DeviceConfig
from ndtsim.layout import PAGE_SIZE, RecordID, pack_rid
from ndtsim.shared_state import SharedStateSnapshot

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
        assert device.l2p.lids.tolist() == sorted(pages)
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
