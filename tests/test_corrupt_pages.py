"""Corrupt device pages under whole invocations.

Record bytes on the device are outside input to the transform: every gather
the walk, the record load and the field locator make is at a position read
from the pages themselves.  This fuzz corrupts flags bytes, null bitmaps,
varlen length prefixes, slot entries and slot counts of NVM and DDR pages,
then runs a materialization and a stream over them.  Only typed errors
(``NdtError``) may escape, and each run gives every page it took back to
the pools, whether it failed or not.
"""

import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ndtsim.delta import free_handle
from ndtsim.device import REGION_DDR, REGION_NVM, REGIONS, REQUESTER_COORD
from ndtsim.engine import MODE_MATERIALIZE, MODE_STREAM, run_invocation
from ndtsim.errors import NdtError
from ndtsim.layout import (
    FLAGS_OFFSET,
    PAGE_SIZE,
    RECORD_HEADER_FIXED,
    SLOT_COUNT_OFFSET,
    SLOT_ENTRY_SIZE,
    Decimal,
    Int32,
    Int64,
    Schema,
    TimestampPg,
    VarChar,
    page_slot_count_at,
    page_slot_entry_at,
    record_field_slices,
)
from conftest import Harness, random_value

# Ten attributes: a two-byte null bitmap, two varchars, NULLs on both sides
# of the first varchar.
SCHEMA = Schema("corrupt", [
    ("a", Int32(), True), ("s", VarChar(20), True), ("m", Decimal(10, 2), True),
    ("t", VarChar(40), False), ("ts", TimestampPg(), True), ("b", Int64(), False),
    ("c", Int32(), True), ("d", Int64(), True), ("e", Int32(), False), ("f", Int64(), True),
])
KINDS = ("flags", "bitmap", "prefix", "slot_length", "slot_entry", "slot_count")


def _loaded(seed: int, n: int) -> Harness:
    """``n`` rows merged to cold NVM pages, then newer versions of some,
    new rows and deletes in DDR delta-mirror pages.  Few rows leave a PE
    one or two records, so a corrupt record often ends its batch."""
    rng = random.Random(seed)
    h = Harness(SCHEMA)

    def rows(vids):
        return {vid: tuple(random_value(rng, a) for a in SCHEMA.attributes) for vid in vids}

    h.install_rows(rows(range(1, n + 1)))
    h.shared.propagate()
    h.shared.merge_delta_pages()
    h.install_rows(rows(rng.sample(range(1, n + 1), n // 4)))
    h.install_rows(rows(range(n + 1, n + 2 + n // 4)))
    t = h.store.begin_tx()
    for vid in rng.sample(range(1, n + 1), n // 8):
        h.store.delete_version(t, vid)
    h.store.commit_tx(t)
    h.shared.propagate()
    return h


corruptions = st.lists(st.tuples(
    st.sampled_from((REGION_NVM, REGION_DDR)),
    st.sampled_from(KINDS),
    st.integers(0, 2**16),                        # which page
    st.integers(0, 2**16),                        # which slot
    st.one_of(st.sampled_from([0, 1, 0xFF, 0xFFFF]), st.integers(PAGE_SIZE - 40, PAGE_SIZE),
              st.integers(0, 0xFFFF)),
    st.one_of(st.integers(0, 64), st.integers(0, 0xFFFF)),
), min_size=1, max_size=4)


def _patches(h: Harness, corruption) -> list:
    """The (region, byte offset, bytes) writes of one corruption, worked out
    on the device pages as they were before any corruption."""
    region, kind, page_pick, slot_pick, a, b = corruption
    l2p = h.device.l2p
    pages = l2p.pages[l2p.regions == REGIONS.index(region)]
    base = int(pages[page_pick % len(pages)]) * PAGE_SIZE
    page = bytes(h.device.peek(region, base, PAGE_SIZE))
    if kind == "slot_count":
        return [(region, base + SLOT_COUNT_OFFSET, a.to_bytes(2, "little"))]
    slot = slot_pick % page_slot_count_at(page, 0)
    entry = base + PAGE_SIZE - SLOT_ENTRY_SIZE * (slot + 1)
    if kind == "slot_entry":                      # record offset a, length b
        return [(region, entry, a.to_bytes(2, "little") + b.to_bytes(2, "little"))]
    offset, length = page_slot_entry_at(page, 0, slot)
    if kind == "slot_length":                     # the record cut short, after b % (length + 1) bytes
        return [(region, entry + 2, (b % (length + 1)).to_bytes(2, "little"))]
    if kind == "flags":
        return [(region, base + offset + FLAGS_OFFSET, bytes([a & 0xFF]))]
    if kind == "bitmap":
        at = RECORD_HEADER_FIXED + b % SCHEMA.null_bitmap_bytes
        return [(region, base + offset + at, bytes([a & 0xFF]))]
    slices, _header = record_field_slices(SCHEMA, page[offset:offset + length])
    prefixes = [s[0] - 2 for i, s in enumerate(slices) if s and i in SCHEMA.varlen_plan]
    if not prefixes:                              # a tombstone, or only NULL varchars
        return []
    at = prefixes[b % len(prefixes)]
    return [(region, base + offset + at, a.to_bytes(2, "little"))]


def _free_pages(h: Harness) -> dict:
    return {region: h.device.free_page_count(region) for region in REGIONS}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32), rows=st.integers(1, 80), corrupt=corruptions,
       pe_count=st.integers(1, 4), pages=st.integers(1, 3))
# Two tuples, one record per PE: the NVM record (its first varlen length
# prefix at byte 88) cut inside its null bitmap, then just past that
# prefix's first byte; the record's window then ends with the record.
@example(seed=0, rows=1, corrupt=[(REGION_NVM, "slot_length", 0, 0, 0, 26)], pe_count=2, pages=1)
@example(seed=0, rows=1, corrupt=[(REGION_NVM, "slot_length", 0, 0, 0, 89)], pe_count=2, pages=1)
def test_corrupt_pages_raise_typed_errors_and_free_their_pages(seed, rows, corrupt, pe_count,
                                                               pages):
    h = _loaded(seed, rows)
    assert {0, 1} <= set(np.unique(h.device.l2p.regions).tolist())    # DDR and NVM pages
    patches = [patch for corruption in corrupt for patch in _patches(h, corruption)]
    for region, offset, data in patches:
        h.device.write(region, offset, data, REQUESTER_COORD)
    for mode in (MODE_MATERIALIZE, MODE_STREAM):
        before = _free_pages(h)
        inv = h.prepare(mode=mode, pe_count=pe_count, pages=pages)
        try:
            if mode == MODE_STREAM:
                run_invocation(inv, h.device, grantor=h.grantor)
            else:
                free_handle(run_invocation(inv, h.device, grantor=h.grantor))
        except NdtError:
            pass
        assert _free_pages(h) == before
