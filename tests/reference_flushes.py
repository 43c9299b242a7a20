"""The per-flush path the array-shaped flush placement replaced, kept as the
reference it is checked against.

``plan_flushes`` plans one PE's flushes as (round, PE, position, key,
bytes) tuples, with a Python list per partition and one ``tobytes`` per
piece; ``run_jobs`` sorts every PE's tuples into coordinator order and
replays them one at a time.  A replayed flush charges its PE one
``flush``, then its sink writes it page piece by page piece, one
``Device.write`` each: ``MaterializeSink`` into one ``FragmentWriter``
per (PE, column, kind), asking the host for pages when the PE's queue runs
short, ``StreamSink`` into the current buffer, which it pulls once full.
``install`` puts this path in place of the engine's.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from ndtsim import engine
from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    OFFSETS_DTYPE,
    VALIDITY_DTYPE,
    VID_COLUMN,
    VID_DTYPE,
    pack_bits,
    varchar_offsets,
)
from ndtsim.device import REGION_DDR, REGION_NVM
from ndtsim.engine import Batch, Fragment, Segment
from ndtsim.layout import PAGE_SIZE, TC_TIMESTAMP, TC_VARCHAR, extract_fields, \
    pg_timestamp_to_unix_epoch
from reference_readback import read_fragment

# Where a flush falls among one projected attribute's flushes within a row.
FLUSH_VALUES, SPILL_VALUE, FLUSH_OFFSETS, FLUSH_VALIDITY = range(4)
FLUSHES_PER_ATTR = 4


def element_flushes(data: np.ndarray, width: int, cap: int, count: int, row_of,
                    position: int):
    """Flushes of a partition filled with ``count`` elements of ``width``
    bytes: a full partition is flushed just before the next element enters,
    during row ``row_of(e)`` of element e.  Returns [(row, position,
    bytes)] and the bytes left for the final flush."""
    per = cap // width
    mid = [(row_of(e), position, data[(e - per) * width:e * width])
           for e in range(per, count, per)]
    return mid, data[(count - 1) // per * per * width:count * width]


def payload_flushes(payload: np.ndarray, sizes: np.ndarray, cap: int):
    """Flushes of a varchar value partition; ``sizes`` holds one payload per
    row.  Payloads enter whole; empty ones emit nothing.  One that does not
    fit flushes the partition first, and one larger than the partition is
    then spilled on its own."""
    rows = np.flatnonzero(sizes)
    ends = np.concatenate(([0], np.cumsum(sizes[rows])))
    out = []
    i = 0
    while i < len(rows):
        if ends[i + 1] - ends[i] > cap:
            out.append((rows[i], SPILL_VALUE, payload[ends[i]:ends[i + 1]]))
            i += 1
            continue
        j = int(np.searchsorted(ends, ends[i] + cap, side="right")) - 1   # [i, j) fit
        if j >= len(rows):
            break
        out.append((rows[j], FLUSH_VALUES, payload[ends[i]:ends[j]]))
        i = j
    return out, payload[ends[i]:ends[-1]]


def extracted_rows(column, first: int, end: int):
    """(presence, data bytes, payload sizes or None) of records [first, end)
    of one ``layout.Extracted`` column."""
    if column.sizes is None:
        return column.present[first:end], column.data[first:end].view(np.uint8), None
    return (column.present[first:end], column.data[column.ends[first]:column.ends[end]],
            column.sizes[first:end])


def plan_flushes(caps, pe, inv, columns, vids: np.ndarray, first: int, end: int) -> list:
    """The flushes of PE ``pe``, whose rows are [first, end) of the
    extracted ``columns`` and of ``vids``, from the scratchpad plan
    ``caps``, as (round, PE, position, key, bytes) tuples; the final
    flushes (values, validity, offsets per attribute, then the identity
    column) come in the round after the last row."""
    n = end - first
    if n == 0:
        return []
    flushes, tails = [], []
    for slot, (name, ftype, nullable) in enumerate(inv.specs[1:]):
        present, data, sizes = extracted_rows(columns[slot], first, end)
        planned = {}
        if ftype.code == TC_VARCHAR:
            planned[KIND_VALUES] = payload_flushes(data, sizes, caps[name, KIND_VALUES])
        else:
            planned[KIND_VALUES] = element_flushes(
                data, ftype.width, caps[name, KIND_VALUES], n, lambda e: e, FLUSH_VALUES)
        if nullable:
            bits = pack_bits(present)
            planned[KIND_VALIDITY] = element_flushes(
                bits, VALIDITY_DTYPE.itemsize, caps[name, KIND_VALIDITY], len(bits),
                lambda e: 8 * e, FLUSH_VALIDITY)
        if ftype.code == TC_VARCHAR:
            offsets = varchar_offsets(sizes).view(np.uint8)
            planned[KIND_OFFSETS] = element_flushes(
                offsets, OFFSETS_DTYPE.itemsize, caps[name, KIND_OFFSETS], n + 1,
                lambda e: e - 1, FLUSH_OFFSETS)
        for kind, (mid, tail) in planned.items():
            flushes.extend((row, pe, FLUSHES_PER_ATTR * slot + position, (name, kind),
                            piece.tobytes()) for row, position, piece in mid)
            tails.append(((name, kind), tail))
    tails.append(((VID_COLUMN, KIND_VALUES), vids[first:end].astype(VID_DTYPE).view(np.uint8)))
    flushes.extend((n, pe, position, key, data.tobytes())
                   for position, (key, data) in enumerate(tails) if len(data))
    return flushes


def _extracted(rows, inv, device):
    """The projected columns of the changed ``rows``, loaded in one
    ``pe_read_records`` charged to each row's PE, timestamps in epoch seconds."""
    buffers = device.pe_read_records(rows.pes, rows.regions, rows.offsets, rows.lengths)
    columns = extract_fields(inv.schema, buffers, rows.regions, rows.offsets, rows.lengths,
                             tuple(inv.schema.index_of[name] for name in inv.projection))
    for slot, spec in enumerate(inv.specs[1:]):
        if spec.ftype.code == TC_TIMESTAMP:
            present, values = columns[slot].present, columns[slot].data
            columns[slot] = columns[slot]._replace(
                data=np.where(present, pg_timestamp_to_unix_epoch(values), 0))
    return columns


def pe_flushes(caps, pe, rows, inv, device) -> list:
    """PE ``pe``'s flushes, its changed ``rows`` loaded and extracted on
    their own."""
    if not len(rows.vids):
        return []
    columns = _extracted(rows._replace(pes=pe), inv, device)
    return plan_flushes(caps, pe, inv, columns, rows.vids, 0, len(rows.vids))


def transform_record(caps, changed, inv, device) -> list:
    """Every PE's flushes, PE after PE: the changed rows loaded and extracted
    in one pass, then each PE's planned on its slice of them."""
    if not len(changed.vids):
        return []
    columns = _extracted(changed, inv, device)
    bounds = np.searchsorted(changed.pes, np.arange(inv.pe_count + 1)).tolist()
    return [flush for pe, (first, end) in enumerate(zip(bounds, bounds[1:]))
            for flush in plan_flushes(caps, pe, inv, columns, changed.vids, first, end)]


def as_tuples(plan, pe_count: int) -> list:
    """The flushes of an engine ``FlushPlan`` (None: no flushes) as
    (round, PE, position, key, bytes) tuples, in coordinator order."""
    if plan is None:
        return []
    columns = (column.tolist() for column in plan[2:])
    return sorted(((row, pe, position, plan.keys[part // pe_count],
                    plan.buffers[part][start:end].tobytes())
                   for row, pe, position, part, start, end in zip(*columns)),
                  key=lambda flush: flush[:3])


def run_jobs(caps, changed, inv, device, sink):
    """Transform the changed rows, then replay the flushes one at a time in
    coordinator order (round, then PE, then position)."""
    flushes = transform_record(caps, changed, inv, device)
    flushes.sort(key=lambda flush: flush[:3])
    for _round, pe, _position, key, data in flushes:
        device.ledger.charge(pe, "flush")
        sink.emit(pe, key, data)
    if isinstance(sink, StreamSink):
        sink.finish()


class FragmentWriter:
    """Append-only byte run across result pages; pages fill completely."""

    def __init__(self, region: str):
        self.region = region
        self.pages = []
        self.room = 0
        self.total = 0

    def pages_needed(self, nbytes: int) -> int:
        if nbytes <= self.room:
            return 0
        return -(-(nbytes - self.room) // PAGE_SIZE)

    def append(self, device, requester, data, page_queue):
        mv = memoryview(data)
        pos = 0
        while pos < len(data):
            if self.room == 0:
                self.pages.append(page_queue.pop(0))
                self.room = PAGE_SIZE
            take = min(self.room, len(data) - pos)
            offset = self.pages[-1] * PAGE_SIZE + (PAGE_SIZE - self.room)
            device.write(self.region, offset, mv[pos:pos + take], requester)
            pos += take
            self.room -= take
            self.total += take

    def fragment(self) -> Fragment:
        return Fragment(self.region, tuple(self.pages), self.total)


class MaterializeSink(engine.MaterializeSink):
    """One ``FragmentWriter`` per (PE, column, kind) over NVM result pages,
    fed from the engine sink's page queues and host round-trip."""

    def __init__(self, device, inv, grantor):
        super().__init__(device, inv, grantor)
        self.writers = {}

    def emit(self, pe, key, data):
        writer = self.writers.get((pe, key))
        if writer is None:
            writer = FragmentWriter(REGION_NVM)
            self.writers[(pe, key)] = writer
        queue = self.queues[pe]
        while writer.pages_needed(len(data)) > len(queue):
            self.request_space(pe, writer.pages_needed(len(data)) - len(queue))
        writer.append(self.device, pe, data, queue)

    def segments(self, counts, run: int) -> list:
        return [Segment(run, pe, rows, {key: writer.fragment() for (owner, key), writer
                                        in self.writers.items() if owner == pe})
                for pe, rows in enumerate(counts) if rows]


class StreamSink:
    """Rotating on-device buffers pulled by the host as they fill."""

    def __init__(self, device, inv, consumer=None):
        cfg = device.cfg
        per_buffer = cfg.stream_buffer_bytes // PAGE_SIZE
        self.device = device
        self.consumer = consumer
        self.buffer_bytes = per_buffer * PAGE_SIZE
        self.buffers = [inv.pages[i * per_buffer:(i + 1) * per_buffer]
                        for i in range(cfg.stream_buffer_count)]
        device.expose_to_host(REGION_DDR, inv.pages)
        self.current = 0
        self.writer = FragmentWriter(REGION_DDR)
        self.free = list(self.buffers[0])
        self.pending = []
        self.batches = []

    def emit(self, pe, key, data):
        mv = memoryview(data)
        pos = 0
        while pos < len(data):
            room = self.buffer_bytes - self.writer.total
            if room == 0:
                self._deliver()
                room = self.buffer_bytes
            take = min(room, len(data) - pos)
            self.writer.append(self.device, pe, mv[pos:pos + take], self.free)
            self.pending.append((pe, key, take))
            pos += take

    def _deliver(self):
        if self.writer.total == 0:
            return
        raw = read_fragment(self.device, self.writer.fragment())
        chunks = []
        pos = 0
        for pe, key, length in self.pending:
            chunks.append((pe, key[0], key[1], raw[pos:pos + length]))
            pos += length
        batch = Batch(chunks, self.writer.total)
        self.batches.append(batch)
        if self.consumer is not None:
            self.consumer(batch)
        self.pending = []
        self.current = (self.current + 1) % len(self.buffers)
        self.writer = FragmentWriter(REGION_DDR)
        self.free = list(self.buffers[self.current])

    def finish(self):
        self._deliver()


@contextmanager
def install():
    """Within the block, invocations plan and replay their flushes as above."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "run_jobs", run_jobs)
        patch.setattr(engine, "MaterializeSink", MaterializeSink)
        patch.setattr(engine, "StreamSink", StreamSink)
        yield
