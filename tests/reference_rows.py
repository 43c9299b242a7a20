"""The order-line generator as it was written first, on the stdlib draws.

``random_row``, ``random_delivery``, ``load_orderlines`` and
``ReferenceDriver.step`` draw with ``random.Random.randint``, ``randrange``
and ``choices``, one call per value, and ``ol_dist_info`` one ``random()``
per letter.  ``ndtsim.host`` inlines those draws (``getrandbits`` and
CPython's rejection loop), draws each string's words with one
``getrandbits(64 * n)`` where ``choices`` drew them, and decodes the letters
as ``floor(random() * 26.0)`` of each word pair.  It must take exactly the
same words, in the same order, so every row, vid and record byte a seed
produces stays as it was.  ``test_row_generation`` holds it to this
reference.

``ReferenceDriver.step`` also keeps the driver's bookkeeping one vid at a
time: each committed write updates the shadow and adds a fresh vid to the
live and undelivered sets on its own, where ``WorkloadDriver.step`` adds a
new order's vids to each in one bulk insert.
"""

import random
import string
from decimal import Decimal as PyDecimal

from ndtsim.host import DELIVERY_RANGE, LOAD_BATCH_ROWS, WorkloadDriver


def random_row(rng: random.Random, order_id: int, line: int, warehouses: int,
               delivered_micros):
    amount_cents = rng.randint(1, 999_999)
    dist_len = rng.randint(8, 24)
    return (
        order_id,
        rng.randint(1, 10),
        rng.randint(1, warehouses),
        line,
        rng.randint(1, 100_000),
        delivered_micros,
        rng.randint(1, 10),
        PyDecimal(amount_cents).scaleb(-2),
        "".join(rng.choices(string.ascii_lowercase, k=dist_len)),
    )


def random_delivery(rng: random.Random) -> int:
    return rng.randrange(*DELIVERY_RANGE)


def new_vid(system) -> int:
    vid = system._next_vid
    system._next_vid += 1
    return vid


def load_orderlines(system, n_rows: int, seed: int = 1,
                    null_delivery_rate: float = 0.08) -> dict:
    """``HostSystem.load_orderlines`` of ``system``, one draw call per value."""
    rng = random.Random(seed)
    shadow = {}
    store = system.store
    remaining = n_rows
    while remaining > 0:
        t = store.begin_tx()
        vids, rows = [], []
        for _ in range(min(LOAD_BATCH_ROWS, remaining)):
            order = system._next_order
            system._next_order += 1
            delivered = None if rng.random() < null_delivery_rate \
                else random_delivery(rng)
            rows.append(random_row(rng, order, 1, 10, delivered))
            vids.append(new_vid(system))
        store.install_versions(t, vids, rows)
        shadow.update(zip(vids, rows))
        store.commit_tx(t)
        remaining -= LOAD_BATCH_ROWS
    return shadow


def _pick(items: list, rng: random.Random):
    return items[rng.randrange(len(items))] if items else None


def _add(indexed, vid):
    """Add ``vid`` to the driver's ``_IndexedSet`` ``indexed``, one vid at a time."""
    if vid not in indexed.pos:
        indexed.pos[vid] = len(indexed.items)
        indexed.items.append(vid)


class ReferenceDriver(WorkloadDriver):
    """``WorkloadDriver`` whose ``step`` makes one draw call per value and
    updates its shadow and sets one write at a time."""

    def step(self):
        cfg, rng, store = self.cfg, self.rng, self.system.store
        weights = (cfg.new_order_weight, cfg.delivery_weight,
                   cfg.delete_weight, cfg.amount_update_weight)
        pick = rng.random() * sum(weights)
        t = store.begin_tx()
        writes = []
        if pick < weights[0] or not self.shadow:
            order = self.system._next_order
            self.system._next_order += 1
            lines = rng.randint(cfg.min_lines, cfg.max_lines)
            vids = [new_vid(self.system) for _ in range(lines)]
            rows = [random_row(rng, order, line, cfg.warehouses, None)
                    for line in range(1, lines + 1)]
            store.install_versions(t, vids, rows)
            writes = [(vid, row, False) for vid, row in zip(vids, rows)]
        elif pick < weights[0] + weights[1]:
            vid = _pick(self.undelivered.items, rng)
            if vid is not None:
                old = self.shadow[vid]
                row = old[:5] + (random_delivery(rng),) + old[6:]
                store.install_version(t, vid, row)
                writes.append((vid, row, False))
        elif pick < weights[0] + weights[1] + weights[2]:
            vid = _pick(self.live.items, rng)
            if vid is not None:
                store.delete_version(t, vid)
                writes.append((vid, None, True))
        else:
            vid = _pick(self.live.items, rng)
            if vid is not None:
                old = self.shadow[vid]
                amount = PyDecimal(rng.randint(1, 999_999)).scaleb(-2)
                row = old[:7] + (amount,) + old[8:]
                store.install_version(t, vid, row)
                writes.append((vid, row, False))

        if writes and rng.random() < cfg.abort_fraction:
            store.abort_tx(t)
            return
        store.commit_tx(t)
        for vid, row, deleted in writes:
            self.report.versions_created += 1
            if deleted:
                self.shadow.pop(vid, None)
                self.live.discard(vid)
                self.undelivered.discard(vid)
                continue
            if vid not in self.shadow:
                self.report.new_vids += 1
                _add(self.live, vid)
                if row[5] is None:
                    _add(self.undelivered, vid)
            elif self.shadow[vid][5] is None and row[5] is not None:
                self.undelivered.discard(vid)
            self.shadow[vid] = row
