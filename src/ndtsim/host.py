"""Host-side system: OLTP driver, invocation preparation, query evaluators.

Wires the transaction store, shared state, and device together and drives
the order-line workload against them.  Also provides both sides of the
query equivalence check: a columnar evaluator over transformation output
and a row-store evaluator over the version chains.

The reference side (``oracle_column_set``, ``q6_rowstore``) is the host
oracle of ``ndtsim.oracle``: visibility from the host's own chains, each
visible version's page read once (from the host buffer, or uncharged from
the device), and a numpy decoder of its own, a column at a time.  It
shares no code with the device path, so a bug there cannot sit on both
sides of a differential check.
"""

from __future__ import annotations

import math
import random
import string
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal as PyDecimal
from itertools import count, repeat

import numpy as np

from .columns import ColumnSet, result_specs
from .device import Device, DeviceConfig, REGION_DDR, REGION_NVM, REQUESTER_HOST
from .engine import (
    MODE_MATERIALIZE,
    MODE_STREAM,
    NdtInvocation,
    checked_projection,
    run_invocation,
)
from .errors import InvalidConfig, MissingColumn, PoolExhausted, UnknownTx
from .layout import (
    PAGE_SIZE,
    Decimal,
    Int32,
    Schema,
    TimestampPg,
    VarChar,
    POSTGRES_EPOCH_OFFSET_SECONDS,
    MICROS_PER_SECOND,
)
from .mvcc import MvccStore, SnapshotDescriptor
from .oracle import read_columns, visible_records
from .shared_state import DEFAULT_CAPACITY_BYTES, HostSharedState


def orderline_schema() -> Schema:
    return Schema("orderline", [
        ("ol_o_id", Int32(), False),
        ("ol_d_id", Int32(), False),
        ("ol_w_id", Int32(), False),
        ("ol_number", Int32(), False),
        ("ol_i_id", Int32(), False),
        ("ol_delivery_d", TimestampPg(), True),
        ("ol_quantity", Int32(), False),
        ("ol_amount", Decimal(12, 2), False),
        ("ol_dist_info", VarChar(24), False),
    ])


def unix_seconds(year: int, month: int = 1, day: int = 1) -> int:
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


def pg_micros(year: int, month: int = 1, day: int = 1) -> int:
    """Timestamp value (microseconds since 2000-01-01) for a calendar date."""
    return (unix_seconds(year, month, day) - POSTGRES_EPOCH_OFFSET_SECONDS) * MICROS_PER_SECOND


# Delivery dates spread across 1995..2014, so both pre- and post-2000
# timestamp encodings occur.
DELIVERY_RANGE = (pg_micros(1995), pg_micros(2015))
DELIVERY_SPAN = DELIVERY_RANGE[1] - DELIVERY_RANGE[0]
LOAD_BATCH_ROWS = 1000          # rows per bulk-load transaction


# The generator draws as ``random.Random.randint``, ``randrange`` and
# ``choices`` do, and in the same order, so a seed's rows stay the same; but
# it draws from a bound ``getrandbits``, with no Python frame per value.
# ``randrange(a, a + width)`` is ``a + _randbelow(width)``, and CPython's
# ``_randbelow`` draws ``getrandbits(width.bit_length())`` until the draw is
# below ``width`` (``randint(1, 1)`` too draws one bit).
#
# ``choices(letters, k=n)`` picks ``letters[floor(random() * 26.0)]`` n
# times, and ``random()`` is ``((a >> 5) * 67108864.0 + (b >> 6)) / 2**53``
# of the generator's next two 32-bit words ``a, b``.  ``getrandbits(64 * n)``
# takes the same 2n words and holds them least significant first.  So each
# row draws its string's words in that one call, where ``choices`` drew
# them, and ``dist_strings`` decodes the letters of all the rows at once with
# ``random()``'s float arithmetic: the integer floor ``(m * 26) >> 53`` of
# the 53-bit ``m`` picks another letter next to some multiples of 2**53 / 26.

DIST_LETTERS = np.frombuffer(string.ascii_lowercase.encode("ascii"), np.uint8)


def randbelow(getrandbits, width: int) -> int:
    """``random.Random._randbelow(width)`` on the generator of ``getrandbits``."""
    bits = width.bit_length()
    r = getrandbits(bits)
    while r >= width:
        r = getrandbits(bits)
    return r


def dist_strings(words: bytes, lengths: list) -> list:
    """The strings ``choices(ascii_lowercase, k=n)`` makes for each ``n`` of
    ``lengths`` in turn, from ``words``, the bytes of each string's
    ``getrandbits(64 * n).to_bytes(8 * n, "little")`` in the same order: the
    letters of all of them decoded at once, then sliced."""
    words = np.frombuffer(words, "<u4")
    x = (words[0::2] >> 5) * 67108864.0             # random() of each word pair ...
    x += words[1::2] >> 6
    x *= 1.0 / 9007199254740992.0
    x *= len(DIST_LETTERS)                          # ... times 26, >= 0: truncation floors
    text = DIST_LETTERS[x.astype(np.intp)].tobytes().decode("ascii")
    strings, at = [], 0
    for n in lengths:
        strings.append(text[at:at + n])
        at += n
    return strings


def random_rows(rng: random.Random, order_lines, warehouses: int,
                null_delivery_rate: float = None) -> list:
    """One random row per (order id, line number) of ``order_lines``.

    With a ``null_delivery_rate`` each row first draws its delivery date,
    NULL at that rate; without one every delivery date is NULL and no draw
    is made for it.
    """
    getrandbits, random_ = rng.getrandbits, rng.random
    warehouse_bits = warehouses.bit_length()
    delivery_bits, delivery_lo = DELIVERY_SPAN.bit_length(), DELIVERY_RANGE[0]
    delivered = None
    fields, words = [], bytearray()
    for order, line in order_lines:
        if null_delivery_rate is not None:
            if random_() < null_delivery_rate:
                delivered = None
            else:
                r = getrandbits(delivery_bits)
                while r >= DELIVERY_SPAN:
                    r = getrandbits(delivery_bits)
                delivered = delivery_lo + r
        cents = getrandbits(20)                 # randint(1, 999_999)
        while cents >= 999_999:
            cents = getrandbits(20)
        dist_len = getrandbits(5)               # randint(8, 24)
        while dist_len >= 17:
            dist_len = getrandbits(5)
        district = getrandbits(4)               # randint(1, 10)
        while district >= 10:
            district = getrandbits(4)
        warehouse = getrandbits(warehouse_bits)     # randint(1, warehouses)
        while warehouse >= warehouses:
            warehouse = getrandbits(warehouse_bits)
        item = getrandbits(17)                  # randint(1, 100_000)
        while item >= 100_000:
            item = getrandbits(17)
        quantity = getrandbits(4)               # randint(1, 10)
        while quantity >= 10:
            quantity = getrandbits(4)
        n = dist_len + 8                        # choices(ascii_lowercase, k=n)
        words += getrandbits(n << 6).to_bytes(n << 3, "little")
        fields += (order, district + 1, warehouse + 1, line, item + 1, delivered,
                   quantity + 1, PyDecimal(cents + 1).scaleb(-2), n)
    fields[8::9] = dist_strings(words, fields[8::9])    # each length becomes its string
    return list(zip(*[iter(fields)] * 9))


@dataclass(frozen=True)
class Q6Params:
    """Sum-of-amounts predicate: delivery date in [lo, hi), quantity in [qlo, qhi]."""

    date_lo_unix: int
    date_hi_unix: int
    qty_lo: int = 1
    qty_hi: int = 100_000


def q6_default_params() -> Q6Params:
    return Q6Params(unix_seconds(1999), unix_seconds(2020))


def q6_columnar(view: ColumnSet, params: Q6Params) -> PyDecimal:
    """Evaluate the predicate over a logical column set, exactly."""
    for needed in ("ol_delivery_d", "ol_quantity", "ol_amount"):
        if needed not in view.data:
            raise MissingColumn(f"view lacks {needed!r}")
    delivery = view.data["ol_delivery_d"]
    quantity = view.data["ol_quantity"]
    amount = view.data["ol_amount"]
    valid = view.validity.get("ol_delivery_d")
    keep = np.ones(view.n_rows, dtype=bool) if valid is None else valid.copy()
    if view.n_rows:
        keep &= (delivery >= params.date_lo_unix) & (delivery < params.date_hi_unix)
        keep &= (quantity >= params.qty_lo) & (quantity <= params.qty_hi)
        total = int(np.sum(amount[keep], dtype=np.int64))
    else:
        total = 0
    scale = orderline_schema().attribute("ol_amount").ftype.scale
    return PyDecimal(total).scaleb(-scale)


def _integer(value, what: str) -> int:
    """``value``, once it is an integer and not a bool; else ``InvalidConfig``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{what} must be an integer, got {value!r}")
    return value


def estimated_row_bytes(schema: Schema, projection) -> int:
    """Upper-bound columnar footprint of one row, identity column included."""
    total = 8
    for name in projection:
        attr = schema.attribute(name)
        if attr.ftype.is_varlen:
            total += attr.ftype.max_len + 4
        else:
            total += attr.ftype.width
        if attr.nullable:
            total += 1
    return total


@dataclass
class WorkloadConfig:
    """Deterministic order-line transaction mix."""

    seed: int = 7
    new_order_weight: float = 0.50
    delivery_weight: float = 0.40
    delete_weight: float = 0.02
    amount_update_weight: float = 0.08
    min_lines: int = 5
    max_lines: int = 15
    abort_fraction: float = 0.02
    warehouses: int = 10

    def validate(self):
        """Raise ``InvalidConfig`` for a mix no driver can draw from: an empty
        range of warehouses or lines, more warehouses than an ``Int32`` holds,
        a negative or all-zero weight, or an abort fraction outside [0, 1]."""
        for name in ("warehouses", "min_lines", "max_lines"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        for name in ("new_order_weight", "delivery_weight", "delete_weight",
                     "amount_update_weight", "abort_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidConfig(f"{name} must be a number, got {value!r}")
        if not 1 <= self.warehouses <= 2**31 - 1:
            raise InvalidConfig(f"warehouses must be in [1, 2**31 - 1], got {self.warehouses}")
        if not 1 <= self.min_lines <= self.max_lines:
            raise InvalidConfig(f"need 1 <= min_lines ({self.min_lines}) <= max_lines "
                                f"({self.max_lines})")
        weights = self.weights
        if not all(0 <= w < math.inf for w in weights) or not any(weights):
            raise InvalidConfig(f"transaction weights must be finite, >= 0 and not all 0, "
                                f"got {weights}")
        if not 0 <= self.abort_fraction <= 1:
            raise InvalidConfig(f"abort_fraction must be in [0, 1], got {self.abort_fraction}")

    @property
    def weights(self) -> tuple:
        """New-order, delivery, delete and amount-update weights, in that order."""
        return (self.new_order_weight, self.delivery_weight, self.delete_weight,
                self.amount_update_weight)


@dataclass
class OltpReport:
    versions_created: int = 0
    new_vids: int = 0
    oltp_ops: int = 0           # host-work counter delta for the run


class HostSystem:
    """One host DBMS instance attached to one emulated device.

    ``prepare_invocation`` reserves a materialization's result pages for the
    projected row width plus 25% (a quarter of that for a refresh).

    The oracle side keeps one entry: the visible versions of the last
    snapshot it read, as ``(vids, page lids, slots)``, keyed by that
    ``SnapshotDescriptor`` and the store's ``map_version``.  A snapshot's
    visible versions cannot change once it is taken (snapshot reads,
    Berenson et al., SIGMOD 1995), and every change to the chains advances
    the map version, so the entry is never stale; it holds no page bytes
    and no decoded values, so a page changed between two calls is read
    and checked again."""

    def __init__(self, device_cfg: DeviceConfig = None,
                 shared_capacity: int = DEFAULT_CAPACITY_BYTES):
        self.device = Device(device_cfg or DeviceConfig())
        self.shared = HostSharedState(self.device, capacity_bytes=shared_capacity)
        self.schema = orderline_schema()
        self.store = MvccStore(self.schema, self.shared)
        self.admin_ops = 0            # invocation preparation + space grants
        self._visible_key = None      # (snapshot, map version) of _visible
        self._visible = None          # its visible_records: (vids, page lids, slots)
        self._inv_seq = 0
        self._next_vid = 1
        self._next_order = 1

    # -- data loading and OLTP --------------------------------------------------

    def new_vids(self, count: int) -> list:
        """The next ``count`` vids, never handed out before.  A list, not a
        range: the shadow, the chains and the staged map delta then share
        each vid's int object rather than each making its own."""
        first = self._next_vid
        self._next_vid += count
        return list(range(first, first + count))

    def load_orderlines(self, n_rows: int, seed: int = 1,
                        null_delivery_rate: float = 0.08) -> dict:
        """Bulk-load committed rows, ``LOAD_BATCH_ROWS`` to a transaction, each
        transaction's rows installed together; returns the shadow {vid: values}.
        A row count that is not an integer, or is negative, is an
        ``InvalidConfig``, and so is a ``null_delivery_rate`` that is not a
        number in [0, 1] (NaN and bools included); None makes every delivery
        NULL without a draw."""
        if _integer(n_rows, "row count") < 0:
            raise InvalidConfig(f"row count must not be negative, got {n_rows}")
        rate = null_delivery_rate
        if rate is not None and (isinstance(rate, bool) or not isinstance(rate, (int, float))
                                 or not 0 <= rate <= 1):
            raise InvalidConfig(f"null_delivery_rate must be a number in [0, 1] or None, "
                                f"got {rate!r}")
        rng = random.Random(seed)
        shadow = {}
        store = self.store
        for first in range(0, n_rows, LOAD_BATCH_ROWS):
            count = min(LOAD_BATCH_ROWS, n_rows - first)
            t = store.begin_tx()
            orders = range(self._next_order, self._next_order + count)
            self._next_order += count
            rows = random_rows(rng, zip(orders, repeat(1)), 10, null_delivery_rate)
            vids = self.new_vids(count)
            store.install_versions(t, vids, rows)
            shadow.update(zip(vids, rows))
            store.commit_tx(t)
        return shadow

    # -- invocation lifecycle ------------------------------------------------------

    def _projection_names(self, projection) -> tuple:
        """``projection`` as ``checked_projection`` checks it, or every
        attribute when it is empty or None."""
        names = projection or [attr.name for attr in self.schema.attributes]
        return checked_projection(self.schema, names)

    def prepare_invocation(self, caller: int, projection=None, mode: str = MODE_MATERIALIZE,
                           pe_count: int = None, prior_handle=None) -> NdtInvocation:
        """Snapshot shared state with the call, size and reserve result space,
        and assemble the device invocation.  An unknown ``mode``, or a
        ``pe_count`` that is not an integer, is an ``InvalidConfig`` before
        anything is propagated or reserved; None is the device's count, and
        fewer than one PE is refused by the invocation."""
        if mode not in (MODE_MATERIALIZE, MODE_STREAM):
            raise InvalidConfig(f"unknown invocation mode {mode!r}")
        cfg = self.device.cfg
        pe_count = cfg.pe_count if pe_count is None else _integer(pe_count, "pe_count")
        if caller not in self.store.in_flight:
            raise UnknownTx(f"caller {caller} is not in-flight")
        store = self.store
        projection = self._projection_names(projection)
        self.admin_ops += 1

        descriptor = store.snapshot_descriptor(caller)
        self.shared.propagate(descriptor.in_flight)
        vid_view, l2p_view = self.device.freeze_views()

        self._inv_seq += 1
        owner = f"inv-{self._inv_seq}"
        # invocation command: context + schema/projection descriptor
        self.device.ledger.charge(REQUESTER_HOST, host_roundtrips=1, host_to_device_bytes=(
            64 + sum(len(n) for n in projection)))

        if mode == MODE_STREAM:
            count = cfg.stream_buffer_count * (cfg.stream_buffer_bytes // PAGE_SIZE)
            pages = self.device.allocate_pages(REGION_DDR, count, owner)
        else:
            scale = 0.25 if prior_handle is not None else 1.0
            est_bytes = int(len(vid_view) * estimated_row_bytes(self.schema, projection)
                            * 1.25 * scale)
            count = max(pe_count, -(-est_bytes // PAGE_SIZE))
            pages = self.device.allocate_pages(REGION_NVM, count, owner)

        return NdtInvocation(
            owner=owner,
            descriptor=descriptor,
            schema=self.schema,
            projection=projection,
            pe_count=pe_count,
            result_mode=mode,
            pages=pages,
            vid_view=vid_view,
            l2p_view=l2p_view,
            propagation=self.device.propagations,
        )

    def grant_space(self, inv: NdtInvocation, count: int) -> list:
        """Serve a device space request with a policy-sized chunk of NVM result pages."""
        self.admin_ops += 1
        available = self.device.free_page_count(REGION_NVM)
        if available < count:
            raise PoolExhausted(f"{REGION_NVM} pool has {available} pages, {count} needed")
        chunk = max(count, len(inv.pages) // (2 * inv.pe_count), 4)
        return self.device.allocate_pages(REGION_NVM, min(chunk, available), inv.owner)

    @contextmanager
    def reader(self):
        """A reader transaction for the body: committed after it, aborted
        before the error propagates if the body raises."""
        caller = self.store.begin_tx()
        try:
            yield caller
        except BaseException:
            self.store.abort_tx(caller)
            raise
        self.store.commit_tx(caller)

    def transform_snapshot(self, projection=None, mode: str = MODE_MATERIALIZE,
                           pe_count: int = None, consumer=None):
        """Run one transformation in a reader transaction of its own."""
        with self.reader() as caller:
            inv = self.prepare_invocation(caller, projection, mode, pe_count)
            return inv, run_invocation(inv, self.device, self.grant_space, consumer)

    def delta_refresh(self, handle, pe_count: int = None):
        """Refresh a materialization to the current committed state, in a
        reader transaction of its own."""
        with self.reader() as caller:
            inv = self.prepare_invocation(caller, handle.projection, MODE_MATERIALIZE,
                                          handle.device.cfg.pe_count if pe_count is None
                                          else pe_count, prior_handle=handle)
            return inv, run_invocation(inv, self.device, self.grant_space, handle=handle)

    def merge_to_cold(self):
        """Propagate anything pending, then relocate delta pages to cold NVM."""
        if self.shared.has_pending:
            self.shared.propagate()
        return self.shared.merge_delta_pages()

    # -- oracle side ---------------------------------------------------------------

    def _visible_records(self, snap: SnapshotDescriptor):
        """``oracle.visible_records`` of ``snap``: walked once per snapshot and
        map version, the last one kept.  Its arrays are read-only."""
        key = (snap, self.store.map_version)
        if key != self._visible_key:
            records = visible_records(self.store.vid_map, snap)
            for array in records:
                array.flags.writeable = False
            self._visible_key, self._visible = key, records
        return self._visible

    def oracle_column_set(self, snap: SnapshotDescriptor, projection=None) -> ColumnSet:
        """Expected transformation output, built without touching the device path.

        The visible versions come from the host's chains, and their pages
        are read once each and decoded a column at a time by ``oracle``.
        """
        projection = self._projection_names(projection)
        specs = result_specs(self.schema, projection)
        vids, values, present = read_columns(self.shared, self.schema,
                                             self._visible_records(snap), projection)
        validity = {s.name: present[s.name] if s.nullable else None for s in specs[1:]}
        return ColumnSet(specs, vids, values, validity, len(vids))

    def q6_rowstore(self, snap: SnapshotDescriptor, params: Q6Params) -> PyDecimal:
        """Row-engine baseline: the predicate over the visible versions, decoded
        by ``oracle`` from the row-store pages, summed exactly."""
        _vids, values, present = read_columns(
            self.shared, self.schema, self._visible_records(snap),
            ("ol_delivery_d", "ol_quantity", "ol_amount"))
        delivery, quantity = values["ol_delivery_d"], values["ol_quantity"]
        keep = present["ol_delivery_d"].copy()
        keep &= (delivery >= params.date_lo_unix) & (delivery < params.date_hi_unix)
        keep &= (quantity >= params.qty_lo) & (quantity <= params.qty_hi)
        total = sum(values["ol_amount"][keep].tolist())
        scale = self.schema.attribute("ol_amount").ftype.scale
        return PyDecimal(total).scaleb(-scale)


class _IndexedSet:
    """Set with O(1) uniform random pick (list plus position map)."""

    def __init__(self, items=()):
        self.items = list(items)
        self.pos = {v: i for i, v in enumerate(self.items)}

    def add_new(self, vids):
        """Append ``vids``, none of which the set holds, in order."""
        self.pos.update(zip(vids, count(len(self.items))))
        self.items.extend(vids)

    def discard(self, v):
        i = self.pos.pop(v, None)
        if i is None:
            return
        last = self.items.pop()
        if last != v:
            self.items[i] = last
            self.pos[last] = i

    def pick(self, getrandbits):
        """``items[rng.randrange(len(items))]`` of the generator of ``getrandbits``."""
        if not self.items:
            return None
        return self.items[randbelow(getrandbits, len(self.items))]


class WorkloadDriver:
    """Resumable deterministic transaction stream against one system."""

    def __init__(self, system: HostSystem, cfg: WorkloadConfig, shadow: dict = None):
        cfg.validate()
        self.system = system
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.shadow = shadow if shadow is not None else {}
        self.live = _IndexedSet(self.shadow)
        self.undelivered = _IndexedSet(
            vid for vid, row in self.shadow.items() if row[5] is None)
        self.report = OltpReport()

    def step(self):
        """Run one transaction; commits or aborts before returning, even if a write raises."""
        cfg, rng, system = self.cfg, self.rng, self.system
        store, getrandbits = system.store, rng.getrandbits
        weights = cfg.weights
        pick = rng.random() * sum(weights)
        t = store.begin_tx()
        try:
            writes = []                 # (vid, row, deleted) of a delivery, delete or update
            vids = rows = ()            # a new order's fresh vids and their rows
            if pick < weights[0] or not self.shadow:
                order = system._next_order
                system._next_order += 1
                lines = cfg.min_lines + randbelow(getrandbits, cfg.max_lines - cfg.min_lines + 1)
                vids = system.new_vids(lines)
                rows = random_rows(rng, zip(repeat(order), range(1, lines + 1)), cfg.warehouses)
                store.install_versions(t, vids, rows)
            elif pick < weights[0] + weights[1]:
                vid = self.undelivered.pick(getrandbits)
                if vid is not None:
                    old = self.shadow[vid]
                    delivered = DELIVERY_RANGE[0] + randbelow(getrandbits, DELIVERY_SPAN)
                    row = old[:5] + (delivered,) + old[6:]
                    store.install_version(t, vid, row)
                    writes.append((vid, row, False))
            elif pick < weights[0] + weights[1] + weights[2]:
                vid = self.live.pick(getrandbits)
                if vid is not None:
                    store.delete_version(t, vid)
                    writes.append((vid, None, True))
            else:
                vid = self.live.pick(getrandbits)
                if vid is not None:
                    old = self.shadow[vid]
                    amount = PyDecimal(1 + randbelow(getrandbits, 999_999)).scaleb(-2)
                    row = old[:7] + (amount,) + old[8:]
                    store.install_version(t, vid, row)
                    writes.append((vid, row, False))
        except BaseException:           # a failed write leaves nothing in flight
            store.abort_tx(t)
            raise

        if (writes or vids) and rng.random() < cfg.abort_fraction:
            store.abort_tx(t)
            return
        store.commit_tx(t)
        if vids:
            self.report.versions_created += len(vids)
            self.report.new_vids += len(vids)
            self.live.add_new(vids)
            self.undelivered.add_new(vids)      # random_rows draws a new order no delivery
            self.shadow.update(zip(vids, rows))
        for vid, row, deleted in writes:
            self.report.versions_created += 1
            if deleted:
                self.shadow.pop(vid, None)
                self.live.discard(vid)
                self.undelivered.discard(vid)
                continue
            if self.shadow[vid][5] is None and row[5] is not None:
                self.undelivered.discard(vid)
            self.shadow[vid] = row

    def run(self, n_tx: int) -> OltpReport:
        ops_before = self.system.store.op_count
        for _ in range(n_tx):
            self.step()
        self.report.oltp_ops = self.system.store.op_count - ops_before
        return self.report
