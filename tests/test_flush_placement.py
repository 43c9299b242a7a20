"""The array-shaped flush placement against the per-flush replay it replaced.

``reference_flushes`` keeps the old path: each PE's flushes planned as
tuples, replayed one at a time in coordinator order, one ``Device.write``
per page piece.  Twin harnesses built from the same rows run one
invocation each, one on the engine's path and one with the reference
installed, over random schemas (NULLs, empty varchars, payloads larger
than a partition), 1 to 8 PEs, tiny scratchpads, small reservations that
force space grants, grantors that give more or fewer pages than asked or
deny a request, both sinks and small stream buffers.  The twins must leave
equal region bytes, page pools and ledger snapshots (per requester, also
after a denied grant), make equal grant calls, and give equal fragments
(pages, bytes and order) or equal stream batches and consumer calls.

A full sf-1 materialization makes at most one device write call per
(fragment, page), and a stream at most one per (buffer, page).
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndtsim.device import REGION_DDR, REGION_NVM, DeviceConfig
from ndtsim.engine import MODE_MATERIALIZE, MODE_STREAM, RECORD_LOAD_BYTES, plan_scratchpad, \
    run_invocation
from ndtsim.errors import HostDenied, PoolExhausted
from ndtsim.host import HostSystem, orderline_schema
from ndtsim.layout import PAGE_SIZE
from conftest import Harness, random_orderline
from reference_flushes import install
from test_batch_path import _tables


def _invocation(schema, rows: list, config: dict, reference: bool) -> dict:
    """Everything one invocation over ``rows`` on a fresh harness leaves behind."""
    projection = tuple(a.name for a in schema.attributes)
    share = config["share"]
    scratchpad = 64 * 1024 if share is None else \
        RECORD_LOAD_BYTES + share * len(plan_scratchpad(schema, projection, 64 * 1024))
    h = Harness(schema, DeviceConfig(scratchpad_bytes=scratchpad,
                                     stream_buffer_bytes=config["buffer_pages"] * PAGE_SIZE,
                                     stream_buffer_count=config["buffer_count"]),
                capacity=4 * 1024 * 1024)
    t = h.store.begin_tx()
    h.store.install_versions(t, list(range(1, len(rows) + 1)), rows)
    h.store.commit_tx(t)
    inv = h.prepare(projection, mode=config["mode"], pe_count=config["pe_count"],
                    pages=config["pages"])
    grants, consumed = [], []

    def grantor(inv_, count):
        grants.append(count)
        if len(grants) == config["deny_at"]:
            raise PoolExhausted("no pages for this request")
        pages = h.device.allocate_pages(REGION_NVM, max(1, count + config["extra"]), inv_.owner)
        grants.append(pages)
        return pages

    with install() if reference else nullcontext():
        try:
            result = run_invocation(inv, h.device, grantor, consumer=consumed.append)
        except HostDenied as failure:
            result = f"denied: {failure}"
    if config["mode"] == MODE_MATERIALIZE and not isinstance(result, str):
        result = ([(seg.run, seg.pe, seg.rows, list(seg.frags.items()))
                   for seg in result.segments], result.bitmap_pages)
    return {
        "result": result,
        "grants": grants,
        "consumed": [(batch.chunks, batch.payload_bytes) for batch in consumed],
        "ledger": h.device.ledger.snapshot(),
        "regions": {region: bytes(h.device._regions[region]) for region in (REGION_DDR,
                                                                            REGION_NVM)},
        "free": [h.device.free_page_count(region) for region in (REGION_DDR, REGION_NVM)],
        "owners": {owner: sorted(h.device.owner_pages(owner))
                   for owner in (inv.owner, "shared-state", "cold")},
    }


def _assert_twins_agree(schema, rows, config):
    got = _invocation(schema, rows, config, reference=False)
    expected = _invocation(schema, rows, config, reference=True)
    assert got.keys() == expected.keys()
    for key in got:
        assert got[key] == expected[key], key


CONFIGS = st.fixed_dictionaries({
    "mode": st.sampled_from([MODE_MATERIALIZE, MODE_STREAM]),
    "pe_count": st.integers(1, 8),
    "share": st.one_of(st.none(), st.integers(8, 40)),      # bytes per scratchpad partition
    "pages": st.integers(1, 6),
    "extra": st.integers(-2, 2),                            # pages a grant gives beyond the ask
    "deny_at": st.sampled_from([None, 1, 2]),               # the grant request refused
    "buffer_pages": st.integers(1, 3),
    "buffer_count": st.integers(1, 3),
})


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables(), repeat=st.integers(1, 150), config=CONFIGS)
def test_placement_matches_the_per_flush_replay(table, repeat, config):
    """Random schemas; a table repeated up to 150 times fills several pages
    per fragment and several stream buffers."""
    schema, rows = table
    _assert_twins_agree(schema, (rows * repeat)[:3000], config)


@pytest.mark.parametrize("mode, pe_count, pages, deny_at", [
    (MODE_MATERIALIZE, 2, 64, None), (MODE_MATERIALIZE, 2, 4, None),
    (MODE_MATERIALIZE, 2, 4, 5), (MODE_MATERIALIZE, 8, 4, None), (MODE_STREAM, 2, 0, None)])
def test_order_lines_match_the_per_flush_replay(mode, pe_count, pages, deny_at):
    """3000 order lines, whose fragments span pages on 2 PEs: with the full
    reservation, with 4 pages and grants of one page fewer than asked, and
    with the fifth grant refused."""
    rows = [random_orderline(random.Random(vid), order_id=vid,
                             null_delivery=vid % 7 == 0) for vid in range(1, 3001)]
    _assert_twins_agree(orderline_schema(), rows, {
        "mode": mode, "pe_count": pe_count, "share": None, "pages": pages, "extra": -1,
        "deny_at": deny_at, "buffer_pages": 2, "buffer_count": 2})


def _counted_writes(device, patch) -> list:
    """Record each device write call: (method, pages it covers)."""
    calls = []
    write, write_pages = device.write, device.write_pages

    def one(region, offset, data, requester):
        calls.append(("write", 1))
        return write(region, offset, data, requester)

    def run(region, pages, data):
        calls.append(("write_pages", len(pages)))
        return write_pages(region, pages, data)

    patch.setattr(device, "write", one)
    patch.setattr(device, "write_pages", run)
    return calls


@pytest.fixture(scope="module")
def sf1():
    system = HostSystem()
    system.load_orderlines(3000, seed=11)
    system.merge_to_cold()
    return system


def test_a_materialization_writes_each_fragment_page_in_one_call_at_most(sf1):
    with pytest.MonkeyPatch.context() as patch:
        calls = _counted_writes(sf1.device, patch)
        _, handle = sf1.transform_snapshot()
    fragments = [frag for seg in handle.segments for frag in seg.frags.values()]
    pairs = sum(len(frag.pages) for frag in fragments) + len(handle.bitmap_pages)
    assert len(fragments) == 8 * 12                     # 8 PEs, 11 partitions and the vids
    assert 0 < len(calls) <= pairs
    assert sum(pages for _, pages in calls) == pairs


def test_a_stream_writes_each_buffer_page_in_one_call_at_most(sf1):
    with pytest.MonkeyPatch.context() as patch:
        calls = _counted_writes(sf1.device, patch)
        _, batches = sf1.transform_snapshot(mode=MODE_STREAM)
    pairs = sum(-(-batch.payload_bytes // PAGE_SIZE) for batch in batches)
    assert len(batches) > 2                             # the buffers rotate
    assert 0 < len(calls) <= pairs
    assert sum(pages for _, pages in calls) == pairs
