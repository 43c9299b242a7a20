import random
from contextlib import contextmanager
from decimal import Decimal as D

import numpy as np
import pytest

from ndtsim import host
from ndtsim.device import Device, DeviceConfig, REGION_DDR, REGION_NVM, REGIONS
from ndtsim.engine import MODE_MATERIALIZE, MODE_STREAM, NdtInvocation
from ndtsim.host import HostSystem, orderline_schema
from ndtsim.layout import PAGE_SIZE, TC_DECIMAL, TC_VARCHAR, unpack_rid
from ndtsim.mvcc import MvccStore
from ndtsim.shared_state import HostSharedState


@pytest.fixture
def schema():
    return orderline_schema()


@pytest.fixture
def system():
    return HostSystem(DeviceConfig())


class Harness:
    """Minimal host wiring around an arbitrary schema, with explicit control
    over result-page allocation for engine-level tests."""

    def __init__(self, schema, cfg: DeviceConfig = None, capacity: int = 512 * 1024):
        self.device = Device(cfg or DeviceConfig())
        self.shared = HostSharedState(self.device, capacity_bytes=capacity)
        self.store = MvccStore(schema, self.shared)
        self.schema = schema
        self._seq = 0

    def install_rows(self, rows: dict):
        """Install ``rows`` ({vid: values}) in one committed transaction;
        returns {vid: RecordID} of the versions, as readers take them."""
        t = self.store.begin_tx()
        rids = {vid: unpack_rid(self.store.install_version(t, vid, values))
                for vid, values in rows.items()}
        self.store.commit_tx(t)
        return rids

    def prepare(self, projection=None, mode=MODE_MATERIALIZE, pe_count=1,
                pages=64, caller=None):
        own_caller = caller is None
        if own_caller:
            caller = self.store.begin_tx()
        descriptor = self.store.snapshot_descriptor(caller)
        self.shared.propagate(descriptor.in_flight)
        vid_view, l2p_view = self.device.freeze_views()
        self._seq += 1
        owner = f"t-inv-{self._seq}"
        if projection is None:
            projection = tuple(a.name for a in self.schema.attributes)
        if mode == MODE_STREAM:
            cfg = self.device.cfg
            count = cfg.stream_buffer_count * (cfg.stream_buffer_bytes // PAGE_SIZE)
            pages = self.device.allocate_pages(REGION_DDR, count, owner)
        else:
            pages = self.device.allocate_pages(REGION_NVM, pages, owner)
        if own_caller:
            self.store.commit_tx(caller)
        return NdtInvocation(
            owner=owner, descriptor=descriptor, schema=self.schema,
            projection=projection, pe_count=pe_count, result_mode=mode,
            pages=pages, vid_view=vid_view,
            l2p_view=l2p_view, propagation=self.device.propagations,
        )

    def grantor(self, inv, count):
        return self.device.allocate_pages(REGION_NVM, count, inv.owner)


@contextmanager
def undersized(share: float):
    """Within the block, ``prepare_invocation`` reserves about ``share`` of
    the result bytes it would, so an invocation must ask for space."""
    estimate = host.estimated_row_bytes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(host, "estimated_row_bytes",
                      lambda schema, projection: estimate(schema, projection) * share)
        yield


def page_of(l2p_view, lid: int):
    """(region, page index) of page ``lid`` in a frozen page table."""
    [code], [idx] = l2p_view.resolve(np.array([lid], dtype=np.uint64))
    return REGIONS[code], int(idx)


def random_orderline(rng: random.Random, order_id: int = 1, line: int = 1,
                     delivered=None, null_delivery=False):
    """One valid orderline row tuple for tests."""
    delivery = None if null_delivery else (
        delivered if delivered is not None else rng.randrange(-10**14, 10**14))
    return (
        order_id,
        rng.randint(1, 10),
        rng.randint(1, 10),
        line,
        rng.randint(1, 100_000),
        delivery,
        rng.randint(1, 10),
        D(rng.randint(1, 999_999)).scaleb(-2),
        "".join(rng.choice("abcdefghij") for _ in range(rng.randint(0, 24))),
    )


def random_value(rng: random.Random, attr):
    """A random value of ``attr``: NULL three times in ten where nullable."""
    if attr.nullable and rng.random() < 0.3:
        return None
    ftype = attr.ftype
    if ftype.code == TC_VARCHAR:
        return "".join(rng.choice("abé€") for _ in range(rng.randint(0, ftype.max_len // 3)))
    if ftype.code == TC_DECIMAL:
        return D(rng.randint(-10**ftype.precision + 1, 10**ftype.precision - 1)).scaleb(
            -ftype.scale)
    return rng.randint(-2**31, 2**31 - 1)
