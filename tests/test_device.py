"""Emulator behavior: pools, charges, access control, cost model."""

import random
import re

import numpy as np
import pytest

from ndtsim.device import (
    Device,
    DeviceConfig,
    GIB,
    REGION_DDR,
    REGION_NVM,
    REGIONS,
    REQUESTER_COORD,
    REQUESTER_HOST,
    TransferLedger,
    ledger_csv_rows,
    modeled_time,
)
from ndtsim.errors import AccessDenied, CorruptRecord, InvalidConfig, OutOfRange, OutOfSpace
from ndtsim.layout import PAGE_SIZE, RECORD_HEADER_FIXED


def test_configure_defaults_and_bounds():
    dev = Device(DeviceConfig(pe_count=8, scratchpad_bytes=64 * 1024))
    assert dev.cfg.pe_count == 8
    assert dev.ledger.counters() == {k: 0 for k in dev.ledger.counters()}
    with pytest.raises(InvalidConfig):
        Device(DeviceConfig(pe_count=0))
    with pytest.raises(InvalidConfig):
        Device(DeviceConfig(pe_count=9))
    with pytest.raises(InvalidConfig):
        Device(DeviceConfig(internal_read_gib_s=0))
    # a stream buffer is whole pages; validated only, never streamed
    for size in (0, PAGE_SIZE - 1):
        with pytest.raises(InvalidConfig):
            DeviceConfig(stream_buffer_bytes=size).validate()
    DeviceConfig(stream_buffer_bytes=PAGE_SIZE).validate()
    # a negative modeled cost would subtract time
    for bad in ({"host_roundtrip_ns": -5000}, {"pe_record_cost_cycles": -1}):
        with pytest.raises(InvalidConfig):
            Device(DeviceConfig(**bad))
    # counts and sizes are whole numbers
    for name in ("pe_count", "scratchpad_bytes", "ddr_capacity_pages", "nvm_capacity_pages",
                 "stream_buffer_count", "stream_buffer_bytes"):
        for value in (getattr(DeviceConfig(), name) + 0.5, True):
            with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
                Device(DeviceConfig(**{name: value}))
    DeviceConfig(pe_count=np.int64(2), host_roundtrip_ns=0, pe_record_cost_cycles=0).validate()


def test_reconfigure_gives_fresh_ledger():
    dev = Device(DeviceConfig())
    [idx] = dev.allocate_pages(REGION_DDR, 1, "x")
    dev.write(REGION_DDR, idx * PAGE_SIZE, b"abc", 0)
    dev2 = Device(dev.cfg)
    assert dev2.ledger.device_internal_bytes_written == 0


def test_read_write_charges_by_requester():
    dev = Device(DeviceConfig())
    [idx] = dev.allocate_pages(REGION_DDR, 1, "t")
    dev.write(REGION_DDR, idx * PAGE_SIZE, b"\x01" * 8, 2)
    assert dev.ledger.device_internal_bytes_written == 8
    dev.read(REGION_DDR, idx * PAGE_SIZE, 8, 2)
    assert dev.ledger.device_internal_bytes_read == 8
    dev.expose_to_host(REGION_DDR, [idx])
    dev.read(REGION_DDR, idx * PAGE_SIZE, PAGE_SIZE, "HOST")
    assert dev.ledger.device_to_host_bytes == PAGE_SIZE


def test_host_read_one_mib():
    dev = Device(DeviceConfig())
    pages = dev.allocate_pages(REGION_DDR, 128, "r")
    dev.expose_to_host(REGION_DDR, pages)
    start = pages[0] * PAGE_SIZE
    dev.read(REGION_DDR, start, 1024 * 1024, "HOST")
    assert dev.ledger.device_to_host_bytes == 1024 * 1024


def test_region_isolation_for_host():
    dev = Device(DeviceConfig())
    [idx] = dev.allocate_pages(REGION_NVM, 1, "secret")
    with pytest.raises(AccessDenied):
        dev.read(REGION_NVM, idx * PAGE_SIZE, 16, "HOST")
    dev.read(REGION_NVM, idx * PAGE_SIZE, 16, 0)   # PEs are unrestricted


def test_nvm_access_counted():
    dev = Device(DeviceConfig())
    [idx] = dev.allocate_pages(REGION_NVM, 1, "n")
    dev.write(REGION_NVM, idx * PAGE_SIZE, b"z" * 64, 1)
    dev.read(REGION_NVM, idx * PAGE_SIZE, 64, 1)
    assert dev.ledger.nvm_writes == 1 and dev.ledger.nvm_reads == 1


def test_allocate_beyond_pool_and_conservation():
    dev = Device(DeviceConfig(ddr_capacity_pages=4))
    assert dev.free_page_count(REGION_DDR) == 4
    pages = dev.allocate_pages(REGION_DDR, 4, "a")
    with pytest.raises(OutOfSpace):
        dev.allocate_pages(REGION_DDR, 1, "b")
    dev.free_pages("a", REGION_DDR, [pages[0]])
    assert dev.free_page_count(REGION_DDR) == 1
    dev.free_pages("a")
    assert dev.free_page_count(REGION_DDR) == 4
    again = dev.allocate_pages(REGION_DDR, 4, "c")
    assert sorted(again) == sorted(pages)


def _pool_state(dev) -> tuple:
    return ({region: dev.free_page_count(region) for region in REGIONS},
            dev.owner_pages("a"), dev.read_pages(REGION_NVM, [0], 8, REQUESTER_HOST))


def test_the_pool_refuses_an_unknown_region_or_a_page_outside_one_before_it_changes():
    dev = Device(DeviceConfig())
    dev.allocate_pages(REGION_NVM, 3, "a")
    dev.expose_to_host(REGION_NVM, [0])
    before = _pool_state(dev)
    for call in (lambda: dev.free_page_count("X"), lambda: dev.allocate_pages("X", 1, "a"),
                 lambda: dev.expose_to_host("X", [1]), lambda: dev.free_pages("a", "X", [1]),
                 lambda: dev.free_pages("a", None, [1])):
        with pytest.raises(InvalidConfig, match="unknown region"):
            call()
    for bad in ([1, 3], [2, -1], [99]):
        for call in (lambda: dev.expose_to_host(REGION_NVM, bad),
                     lambda: dev.free_pages("a", REGION_NVM, bad)):
            with pytest.raises(OutOfRange, match=rf"^NVM page {bad[-1]} outside its 3 pages$"):
                call()
    with pytest.raises(OutOfRange, match="^DDR page 0 outside its 0 pages$"):
        dev.expose_to_host(REGION_DDR, [0])
    assert _pool_state(dev) == before
    # page 99 stays unexposed once it exists, whoever takes it
    dev.allocate_pages(REGION_NVM, 100, "b")
    with pytest.raises(AccessDenied, match="NVM page 99 not exposed"):
        dev.read_pages(REGION_NVM, [99], 8, REQUESTER_HOST)


def test_a_freed_page_loses_its_exposure_and_an_adopted_one_keeps_it():
    dev = Device(DeviceConfig())
    for region in REGIONS:
        [idx] = dev.allocate_pages(region, 1, "first")
        dev.expose_to_host(region, [idx])
        dev.read_pages(region, [idx], 8, REQUESTER_HOST)
        dev.free_pages("first", region, [idx])
        dev.expose_to_host(region, [idx])               # free: not exposed
        assert dev.allocate_pages(region, 1, "second") == [idx]
        base = idx * PAGE_SIZE
        for read in (lambda: dev.read(region, base, 8, REQUESTER_HOST),
                     lambda: dev.read_pages(region, [idx], 8, REQUESTER_HOST),
                     lambda: dev.read_runs([(region, [idx], 8)], REQUESTER_HOST)):
            with pytest.raises(AccessDenied, match=f"{region} page {idx} not exposed"):
                read()
        dev.read_pages(region, [idx], 8, 0)             # PEs read it still
        dev.expose_to_host(region, [idx])
        dev.adopt_pages("second", "third")
        assert dev.owner_pages("second") == set()
        assert dev.owner_pages("third") == {(region, idx)}
        assert dev.read_runs([(region, [idx], 8)], REQUESTER_HOST) == [bytes(8)]
        dev.free_pages("third")


def test_out_of_range_read():
    dev = Device(DeviceConfig())
    with pytest.raises(OutOfRange):
        dev.read(REGION_DDR, 0, 10, 0)
    dev.allocate_pages(REGION_DDR, 1, "x")
    with pytest.raises(OutOfRange):
        dev.read(REGION_DDR, PAGE_SIZE - 4, 8, 0)
    # a batch accessor names its first range past the region's end and charges nothing
    before = dev.ledger.snapshot()
    outside = rf"\] outside {PAGE_SIZE} bytes$"
    with pytest.raises(OutOfRange, match=rf"^DDR\[{PAGE_SIZE}:{2 * PAGE_SIZE}{outside}"):
        dev.pe_read_slot(0, REGION_DDR, np.array([0, PAGE_SIZE, 2 * PAGE_SIZE]),
                         np.zeros(3, dtype=np.int64))
    last = PAGE_SIZE - RECORD_HEADER_FIXED
    with pytest.raises(OutOfRange, match=rf"^DDR\[{last + 1}:{PAGE_SIZE + 1}{outside}"):
        dev.pe_probe_header(0, REGION_DDR, np.array([last, last + 1, PAGE_SIZE]))
    assert dev.ledger.snapshot() == before


def test_negative_length_is_out_of_range():
    """A batch range that ends before it starts is refused like one past the
    region's end, named in batch order, before anything is charged."""
    dev = Device(DeviceConfig())
    dev.allocate_pages(REGION_DDR, 1, "x")
    before = dev.ledger.snapshot()
    with pytest.raises(OutOfRange, match=rf"^DDR\[12:4\] outside {PAGE_SIZE} bytes$"):
        dev.pe_read_records(0, np.zeros(3, dtype=np.int64), np.array([0, 12, PAGE_SIZE]),
                            np.array([8, -8, 8]))
    assert dev.ledger.snapshot() == before


def test_ledger_conservation_over_raw_ops():
    """Bytes charged equal bytes moved through read/write calls."""
    dev = Device(DeviceConfig())
    pages = dev.allocate_pages(REGION_DDR, 4, "t")
    dev.expose_to_host(REGION_DDR, pages)
    rng = random.Random(3)
    expect = {"ir": 0, "iw": 0, "dh": 0, "hd": 0}
    for _ in range(200):
        idx = pages[rng.randrange(4)]
        off = idx * PAGE_SIZE + rng.randrange(PAGE_SIZE - 64)
        n = rng.randint(1, 64)
        op = rng.randrange(3)
        if op == 0:
            dev.write(REGION_DDR, off, b"q" * n, rng.randrange(8))
            expect["iw"] += n
        elif op == 1:
            assert len(dev.read(REGION_DDR, off, n, rng.randrange(8))) == n
            expect["ir"] += n
        else:
            assert len(dev.read(REGION_DDR, off, n, "HOST")) == n
            expect["dh"] += n
    led = dev.ledger
    assert (led.device_internal_bytes_read, led.device_internal_bytes_written,
            led.device_to_host_bytes) == (expect["ir"], expect["iw"], expect["dh"])


def test_modeled_time_arithmetic():
    cfg = DeviceConfig()
    empty = modeled_time({k: 0 for k in (
        "device_internal_bytes_read", "device_internal_bytes_written",
        "device_to_host_bytes", "host_to_device_bytes", "nvm_reads",
        "nvm_writes", "host_roundtrips", "records_processed")}, cfg)
    assert empty["total_ns"] == 0

    dev = Device(cfg)
    dev.ledger.device_internal_bytes_read = 16 * GIB
    t = modeled_time(dev.ledger, cfg)
    assert t["internal_read_ns"] == pytest.approx(1e9)

    dev.ledger.device_internal_bytes_read = 32 * GIB
    assert modeled_time(dev.ledger, cfg)["internal_read_ns"] == pytest.approx(2e9)


def test_determinism_of_identical_sequences():
    def run():
        dev = Device(DeviceConfig())
        pages = dev.allocate_pages(REGION_NVM, 2, "a")
        for i in range(50):
            dev.write(REGION_NVM, pages[i % 2] * PAGE_SIZE + i, bytes([i]), i % 4)
            dev.read(REGION_NVM, pages[i % 2] * PAGE_SIZE, 16, i % 4)
        return dev.ledger.snapshot()
    assert run() == run()


def test_csv_rows_shape():
    dev = Device(DeviceConfig())
    rows = ledger_csv_rows(dev.ledger, dev.cfg)
    assert [r[0] for r in rows] == [
        "device_internal_read", "device_internal_write", "device_to_host",
        "host_to_device", "nvm_access", "host_roundtrip", "pe_compute", "total"]
    assert all(len(r) == 4 for r in rows)

    # the ops column of the internal rows counts PE reads and PE writes
    [idx] = dev.allocate_pages(REGION_DDR, 1, "x")
    dev.expose_to_host(REGION_DDR, [idx])
    before = dev.ledger.snapshot()
    for pe in (0, 1, 1):
        dev.read(REGION_DDR, idx * PAGE_SIZE, 16, pe)
    for pe in (2, 3):
        dev.write(REGION_DDR, idx * PAGE_SIZE, b"ab", pe)
    dev.read(REGION_DDR, idx * PAGE_SIZE, 16, "HOST")
    for ledger in (dev.ledger, dev.ledger.delta_since(before)):
        rows = {r[0]: r[1:3] for r in ledger_csv_rows(ledger, dev.cfg)}
        assert rows["device_internal_read"] == (48, 3)
        assert rows["device_internal_write"] == (4, 2)
        assert rows["device_to_host"] == (16, 0)


def test_batch_accessors_charge_each_access_and_release_the_regions():
    dev = Device(DeviceConfig())
    bases = {}
    for region in (REGION_DDR, REGION_NVM):
        [idx] = dev.allocate_pages(region, 1, "x")
        bases[region] = base = idx * PAGE_SIZE
        # one record of 30 bytes at offset 12, in slot 0
        dev.write(region, base + 8, (1).to_bytes(2, "little"), 0)
        dev.write(region, base + PAGE_SIZE - 4, (12 | 30 << 16).to_bytes(4, "little"), 0)
        dev.write(region, base + 12 + 8, (5).to_bytes(8, "little") + (7).to_bytes(8, "little")
                  + b"\x01", 0)
    before = dev.ledger.snapshot()
    base = np.array([bases[REGION_NVM]] * 3)
    offsets, lengths = dev.pe_read_slot(2, REGION_NVM, base, np.zeros(3, dtype=np.int64))
    assert offsets.tolist() == [12] * 3 and lengths.tolist() == [30] * 3
    ts, pred, flags = dev.pe_probe_header(2, REGION_NVM, base + offsets)
    assert (ts.tolist(), pred.tolist(), flags.tolist()) == ([5] * 3, [7] * 3, [1] * 3)
    dev.pe_read_vid_entry(2, 3)
    dev.pe_read_l2p(2, 3)
    delta = dev.ledger.delta_since(before)
    assert delta["pe_ops"] == {2: {"slot": 3, "probe": 3, "vid_entry": 3, "l2p": 3}}
    assert delta["device_internal_bytes_read"] == 3 * (4 + 4 + 8 + 4)
    assert delta["nvm_reads"] == 6

    ddr, nvm = dev.pe_read_records(
        0, np.array([0, 1]), np.array([bases[REGION_DDR] + 12, bases[REGION_NVM] + 12]),
        np.array([30, 30]))
    assert ddr[bases[REGION_DDR] + 20] == nvm[bases[REGION_NVM] + 20] == 5
    with pytest.raises(CorruptRecord) as failure:
        dev.pe_read_slot(0, REGION_DDR, np.array([bases[REGION_DDR]]), np.array([1]))
    with pytest.raises(OutOfRange):
        dev.pe_read_records(0, np.array([0]), np.array([bases[REGION_DDR]]),
                            np.array([PAGE_SIZE + 1]))
    # no view of a region outlives a call, even one that raised: both can grow
    assert failure.value is not None
    for region in (REGION_DDR, REGION_NVM):
        dev.allocate_pages(region, 2, "grow")


def test_a_charge_adds_ops_only_when_it_names_them():
    ledger = TransferLedger()
    ledger.charge(REQUESTER_HOST, host_to_device_bytes=100, host_roundtrips=1)
    ledger.charge(REQUESTER_COORD, device_to_host_bytes=48)
    ledger.charge(3, nvm_writes=1)
    assert ledger.pe_ops == {}
    ledger.charge(3, "flush")
    ledger.charge(3, ("read", "record_load"), 2, device_internal_bytes_read=40, nvm_reads=2,
                  records_processed=2)
    assert ledger.pe_ops == {3: {"flush": 1, "read": 2, "record_load": 2}}
    assert ledger.counters() == {
        "device_internal_bytes_read": 40, "device_internal_bytes_written": 0,
        "device_to_host_bytes": 48, "host_to_device_bytes": 100, "nvm_reads": 2,
        "nvm_writes": 1, "host_roundtrips": 1, "records_processed": 2}


def test_a_charge_naming_an_unknown_counter_raises_and_changes_nothing():
    ledger = TransferLedger()
    ledger.charge(0, "read", device_internal_bytes_read=8, nvm_reads=1)
    before = ledger.snapshot()
    with pytest.raises(TypeError):
        ledger.charge(0, "read", device_internal_bytes_read=8, nvm_read=1)
    with pytest.raises(TypeError):
        ledger.charge(REQUESTER_HOST, host_bytes=8)
    assert ledger.snapshot() == before


def test_a_pooled_load_charges_what_each_pe_loading_its_own_records_charges():
    """Records of PEs 2 and 5 in both regions: one pooled load against one
    load per PE, on two devices of the same regions."""
    ddr, nvm = REGIONS.index(REGION_DDR), REGIONS.index(REGION_NVM)
    records = [(2, ddr, 0, 10), (5, nvm, 16, 20), (2, nvm, 40, 30), (5, ddr, 64, 12),
               (2, nvm, 100, 8), (5, nvm, 200, 40)]
    pes, regions, offsets, lengths = map(np.array, zip(*records))
    pooled, alone = Device(DeviceConfig()), Device(DeviceConfig())
    for dev in (pooled, alone):
        for region in (REGION_DDR, REGION_NVM):
            dev.allocate_pages(region, 1, "x")
    pooled.pe_read_records(pes, regions, offsets, lengths)
    for pe in (2, 5):
        mine = pes == pe
        alone.pe_read_records(pe, regions[mine], offsets[mine], lengths[mine])
    assert pooled.ledger.snapshot() == alone.ledger.snapshot()
    assert pooled.ledger.pe_ops == {2: {"read": 3, "record_load": 3},
                                    5: {"read": 3, "record_load": 3}}
    counters = pooled.ledger.counters()
    assert (counters["device_internal_bytes_read"], counters["nvm_reads"],
            counters["records_processed"]) == (120, 4, 6)
    assert all(type(value) is int for value in counters.values())


def _per_page_read(dev, region, pages, nbytes, requester) -> bytes:
    """One ``read`` per page: a whole page, up to what is left of ``nbytes``."""
    pieces = []
    for idx in pages:
        take = min(PAGE_SIZE, nbytes)
        pieces.append(dev.read(region, idx * PAGE_SIZE, take, requester))
        nbytes -= take
    return b"".join(pieces)


@pytest.mark.parametrize("requester", [REQUESTER_HOST, REQUESTER_COORD, 3])
@pytest.mark.parametrize("region", [REGION_DDR, REGION_NVM])
def test_read_pages_moves_and_charges_what_one_read_per_page_does(requester, region):
    rng = random.Random(5)
    batched, paged = Device(DeviceConfig()), Device(DeviceConfig())
    for dev in (batched, paged):
        pages = dev.allocate_pages(region, 6, "x")
        for idx in pages:
            dev.write(region, idx * PAGE_SIZE, rng.randbytes(PAGE_SIZE), 0)
        dev.expose_to_host(region, pages)
        rng.seed(5)
    for nbytes in (1, PAGE_SIZE, 2 * PAGE_SIZE + 17, 3 * PAGE_SIZE):
        chosen = [pages[4], pages[1], pages[5]][:-(-nbytes // PAGE_SIZE)]
        got = batched.read_pages(region, chosen, nbytes, requester)
        assert type(got) is bytes
        assert got == _per_page_read(paged, region, chosen, nbytes, requester)
        assert batched.ledger.snapshot() == paged.ledger.snapshot()


def test_read_pages_checks_once_and_charges_nothing_when_refused():
    """A page outside the region, or ``nbytes`` that do not end on the last
    page, is out of range; a page the host may not read is denied."""
    dev = Device(DeviceConfig())
    pages = dev.allocate_pages(REGION_NVM, 3, "x")
    dev.expose_to_host(REGION_NVM, [pages[0], pages[2]])
    before = dev.ledger.snapshot()
    assert dev.read_pages(REGION_NVM, [], 0, REQUESTER_HOST) == b""
    with pytest.raises(AccessDenied, match=f"NVM page {pages[1]} not exposed"):
        dev.read_pages(REGION_NVM, pages, 3 * PAGE_SIZE, REQUESTER_HOST)
    for bad, nbytes in (([pages[0], 3], 2 * PAGE_SIZE), ([-1], 8), (pages, 2 * PAGE_SIZE),
                        (pages, 3 * PAGE_SIZE + 1), (pages[:1], 0)):
        with pytest.raises(OutOfRange, match=rf"^NVM pages {re.escape(str(bad))} do not hold "
                                             rf"{nbytes} bytes within {3 * PAGE_SIZE}$"):
            dev.read_pages(REGION_NVM, bad, nbytes, 0)
    assert dev.ledger.snapshot() == before
    assert len(dev.read_pages(REGION_NVM, pages, 3 * PAGE_SIZE, 0)) == 3 * PAGE_SIZE


@pytest.mark.parametrize("region", [REGION_DDR, REGION_NVM])
def test_write_pages_moves_what_one_write_per_page_does_and_charges_nothing(region):
    rng = random.Random(6)
    batched, paged = Device(DeviceConfig()), Device(DeviceConfig())
    for dev in (batched, paged):
        pages = dev.allocate_pages(region, 6, "x")
    for nbytes in (1, PAGE_SIZE, 2 * PAGE_SIZE + 17, 3 * PAGE_SIZE):
        chosen = [pages[4], pages[1], pages[5]][:-(-nbytes // PAGE_SIZE)]
        data = rng.randbytes(nbytes)
        before = batched.ledger.snapshot()
        batched.write_pages(region, chosen, np.frombuffer(data, dtype=np.uint8))
        assert batched.ledger.snapshot() == before
        for k, idx in enumerate(chosen):
            paged.write(region, idx * PAGE_SIZE, data[k * PAGE_SIZE:(k + 1) * PAGE_SIZE], 0)
        assert batched.peek(region, 0, 6 * PAGE_SIZE) == paged.peek(region, 0, 6 * PAGE_SIZE)


def test_write_pages_checks_its_run_once_before_it_writes():
    """A page outside the region, or bytes that do not end on the last
    page, are out of range, and nothing is written."""
    dev = Device(DeviceConfig())
    pages = dev.allocate_pages(REGION_NVM, 3, "x")
    for bad, nbytes in (([pages[0], 3], 2 * PAGE_SIZE), ([-1], 8), (pages, 2 * PAGE_SIZE),
                        (pages, 3 * PAGE_SIZE + 1), (pages[:1], 0), ([], 8)):
        with pytest.raises(OutOfRange, match=rf"^NVM pages {re.escape(str(bad))} do not hold "
                                             rf"{nbytes} bytes within {3 * PAGE_SIZE}$"):
            dev.write_pages(REGION_NVM, bad, b"\x01" * nbytes)
    assert dev.peek(REGION_NVM, 0, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)


@pytest.mark.parametrize("run, nbytes", [
    ([-1], 8),                                  # a negative page
    ([0, 3], 2 * PAGE_SIZE),                    # a page past the region
    ([0, 1, 2], 2 * PAGE_SIZE),                 # bytes that end before the last page
    ([0, 1], 2 * PAGE_SIZE + 1),                # bytes that run past the last page
], ids=["negative", "past-region", "short", "long"])
def test_read_and_write_pages_refuse_a_bad_run_alike(run, nbytes):
    """Both check a page run with one range check: the same ``OutOfRange``,
    message and all.  An empty run reads as nothing but cannot be written."""
    dev = Device(DeviceConfig())
    pages = dev.allocate_pages(REGION_NVM, 3, "x")
    bad = [pages[k] if 0 <= k < len(pages) else k for k in run]
    message = rf"^NVM pages {re.escape(str(bad))} do not hold {nbytes} bytes within " \
              rf"{3 * PAGE_SIZE}$"
    with pytest.raises(OutOfRange, match=message):
        dev.read_pages(REGION_NVM, bad, nbytes, 0)
    with pytest.raises(OutOfRange, match=message):
        dev.write_pages(REGION_NVM, bad, b"\x01" * nbytes)
    assert dev.read_pages(REGION_NVM, [], 0, 0) == b""
    with pytest.raises(OutOfRange, match=r"^NVM pages \[\] do not hold 0 bytes"):
        dev.write_pages(REGION_NVM, [], b"")


def _allocate_page_by_page(free: list, pages_in_region: int, count: int) -> tuple:
    """The page ids ``allocate_pages`` took one page at a time: the lowest
    freed page first (the free list is sorted highest first), then a new
    page at the region's end; and the region's page count after."""
    taken = []
    for _ in range(count):
        if free:
            taken.append(free.pop())
        else:
            taken.append(pages_in_region)
            pages_in_region += 1
    return taken, pages_in_region


def _region_pages(dev, region) -> int:
    return len(dev._regions[region]) // PAGE_SIZE


@pytest.mark.parametrize("seed", range(4))
def test_allocate_pages_takes_the_ids_a_page_at_a_time_did(seed):
    """Random allocations, frees, adoptions and exposures in both regions:
    each allocation takes the ids the page-at-a-time pool took, its free
    list read off the owned pages, and the host may read exactly the pages
    a model of exposures allows, which freeing a page takes away."""
    rng = random.Random(seed)
    dev = Device(DeviceConfig())
    owners, exposed = [], set()             # live owners; the model's host-readable pages
    for step in range(60):
        region = rng.choice(REGIONS)
        action = rng.random()
        if owners and action < 0.3:
            owner = owners.pop(rng.randrange(len(owners)))
            held = sorted(idx for name, idx in dev.owner_pages(owner) if name == region)
            if rng.random() < 0.5:
                freed = dev.owner_pages(owner)
                dev.free_pages(owner)
            else:
                freed = {(region, idx) for idx in rng.sample(held, len(held) // 2)}
                dev.free_pages(owner, region, [idx for _, idx in sorted(freed)])
            exposed -= freed
            if dev.owner_pages(owner):
                owners.append(owner)
        elif owners and action < 0.4:
            src = owners.pop(rng.randrange(len(owners)))
            dst = rng.choice(owners) if owners and rng.random() < 0.5 else f"a{step}"
            moved = dev.owner_pages(src)
            dev.adopt_pages(src, dst)
            assert dev.owner_pages(src) == set() and moved <= dev.owner_pages(dst)
            if dst not in owners:
                owners.append(dst)
        elif owners and action < 0.55:
            mine = sorted(idx for name, idx in dev.owner_pages(rng.choice(owners))
                          if name == region)
            shown = rng.sample(mine, len(mine) // 2)
            dev.expose_to_host(region, shown)
            exposed |= {(region, idx) for idx in shown}
        else:
            count = rng.choice([0, 1, 3, 17])
            size = _region_pages(dev, region)
            owned = {idx for owner in owners for name, idx in dev.owner_pages(owner)
                     if name == region}
            free = sorted(set(range(size)) - owned, reverse=True)
            want, pages = _allocate_page_by_page(free, size, count)
            got = dev.allocate_pages(region, count, f"o{step}")
            assert got == want and _region_pages(dev, region) == pages
            assert dev.owner_pages(f"o{step}") == {(region, idx) for idx in want}
            owners.append(f"o{step}")
        for name in REGIONS:
            for idx in range(_region_pages(dev, name)):
                if (name, idx) in exposed:
                    dev.read_pages(name, [idx], 1, REQUESTER_HOST)
                else:
                    with pytest.raises(AccessDenied):
                        dev.read_pages(name, [idx], 1, REQUESTER_HOST)
    for region in REGIONS:
        size = _region_pages(dev, region)
        assert bytes(dev.peek(region, 0, size * PAGE_SIZE)) == bytes(size * PAGE_SIZE)


@pytest.mark.parametrize("requester", [REQUESTER_HOST, REQUESTER_COORD, 2])
def test_read_runs_moves_and_charges_what_one_read_pages_per_run_does(requester):
    rng = random.Random(3)
    batched, paged = Device(DeviceConfig()), Device(DeviceConfig())
    for dev in (batched, paged):
        rng.seed(3)
        runs = []
        for region, nbytes in [(REGION_NVM, 1), (REGION_DDR, PAGE_SIZE), (REGION_NVM, 0),
                               (REGION_NVM, 2 * PAGE_SIZE + 9), (REGION_DDR, 7)]:
            pages = dev.allocate_pages(region, -(-nbytes // PAGE_SIZE), "x")
            if pages:
                dev.write_pages(region, pages, rng.randbytes(nbytes))
            dev.expose_to_host(region, pages)
            runs.append((region, tuple(reversed(pages)), nbytes))
    groups = [2, 0, 2, 0, 2]
    got = batched.read_runs(runs, requester, groups)
    pieces = [paged.read_pages(*run, requester) for run in runs]
    assert got == [pieces[1] + pieces[3], b"", pieces[0] + pieces[2] + pieces[4]]
    assert batched.ledger.snapshot() == paged.ledger.snapshot()
    assert batched.read_runs([], requester) == [] and batched.read_runs(runs[2:3], 0) == [b""]
    assert batched.ledger.snapshot() == paged.ledger.snapshot()


@pytest.mark.parametrize("region", REGIONS)
def test_one_k_page_growth_equals_k_one_page_growths(region):
    """Taking k pages in one call leaves what k one-page calls leave: the
    same page ids (a free page first, then fresh ones at the region's end),
    the same bytes with every fresh page zeroed, the same owner and exposure
    arrays, and the same ``OutOfSpace`` once the pool runs out."""
    grown, stepped = (Device(DeviceConfig(ddr_capacity_pages=9, nvm_capacity_pages=9))
                      for _ in range(2))
    for dev in (grown, stepped):
        first = dev.allocate_pages(region, 3, "a")
        dev.write(region, 0, b"\xff" * (3 * PAGE_SIZE), REQUESTER_COORD)
        dev.expose_to_host(region, first)
        dev.free_pages("a", region, [first[1]])
    taken = grown.allocate_pages(region, 5, "b")
    assert taken == [idx for _ in range(5) for idx in stepped.allocate_pages(region, 1, "b")]
    assert taken == [1, 3, 4, 5, 6]
    assert grown._regions[region] == stepped._regions[region]
    assert len(grown._regions[region]) == 7 * PAGE_SIZE
    assert not any(grown._regions[region][3 * PAGE_SIZE:])
    for state in ("_owners", "_exposed"):
        mine, theirs = getattr(grown, state)[region], getattr(stepped, state)[region]
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert grown._exposed[region].tolist() == [True, False, True] + [False] * 4
    with pytest.raises(OutOfSpace, match="requested 3 pages, 2 available"):
        grown.allocate_pages(region, 3, "c")
    assert len(grown._regions[region]) == 7 * PAGE_SIZE and len(grown._owners[region]) == 7
    assert grown.allocate_pages(region, 2, "c") == stepped.allocate_pages(region, 2, "c") == [7, 8]
    assert grown._regions[region] == stepped._regions[region]
    with pytest.raises(OutOfSpace):
        stepped.allocate_pages(region, 1, "d")
