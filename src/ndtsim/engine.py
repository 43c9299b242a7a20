"""On-device transformation engine.

An invocation carries a frozen snapshot (map views plus visibility
descriptor), the table schema and projection, and its pre-allocated result
space.  Every invocation -- a first materialization, a stream, or the
refresh of an existing materialization -- runs one pipeline:

1. **Walk.**  The frozen tuple map is the device's vid map itself: one
   (vid, packed chain head) row per tuple, sorted by vid.  ``schedule``
   deals its rows over the processing elements (row i to PE i mod n) into
   one ``MapRows`` table, PE after PE, each PE's rows in vid order.  A
   refresh keeps only its candidates, each on the PE of its row
   (``refresh_candidates``; see ``delta``): the other tuples are settled by
   construction, and neither visited nor charged.
   The table is walked as one frontier with a PE per entry: every step
   resolves the pages of all unresolved tuples' current versions (two
   gathers from the frozen page table, indexed by lid), reads their slots
   and probes their headers, one region at a time, and moves the versions
   that are not visible to their predecessors, until every tuple has a
   visible version or nothing.  Each access is charged to its entry's PE,
   so each PE pays exactly what walking its tuples one by one would.  A
   faulty walk raises the first fault of its earliest faulty step, in the
   step's check order (pages, then each region's slots and headers, DDR
   first), and within one check that of the first entry in table order.
   *The settle rule*: the rids the target handle's identity index holds
   (one ``searchsorted``) go into the walk, and a tuple whose head is the
   held rid is settled after its page is resolved, without a slot read or
   a header probe, because it is unchanged.  The held version was visible
   at the handle's snapshot, so its creator had committed; it is still the
   head, so nothing newer exists (lids are never reused, an abort rolls a
   head back to the version it replaced, and no record is rewritten).  A
   writer in flight at either snapshot is the head itself, so its tuple is
   walked.  As a refresh reads no settled tuple's slot or header and
   resolves no non-candidate's page, corruption there is found by the next
   full materialization or host read.
   The visible versions are then compared with the held rids.  A first
   materialization or a stream passes an empty index, so nothing is
   settled and every visible tuple counts as changed; a refresh also
   charges each PE an 8-byte index probe per walked tuple and collects the
   held tuples no longer visible.  The walk returns the changed tuples as
   one ``ChangedRows`` table in walk order, each row tagged with the PE
   that walked it, and the tuples whose head it could not see, which the
   handle keeps.
2. **Transform.**  On a first run a changed tuple stays on the PE that
   walked it; on a refresh the table, in PE-major walk order, is dealt
   round-robin again by one stable permutation.  The whole table is
   loaded in one device read that checks the records' ranges and charges
   each to the PE that owns it, then read where it lies by one
   ``layout.extract_fields``: grouped by (region, null mask), so that one
   structured gather per group reads every projected fixed field, NULLs
   zeroed (timestamps then converted to epoch seconds); a varchar's
   payload is the bytes of its located ranges.  No byte past a record's
   own length is read.
   Each projected attribute becomes value/validity/offset columns, a NULL
   a zeroed slot with a clear validity bit.  Each PE then plans, on its
   own slice of the table and from its scratchpad partition capacities,
   where each partition would flush: fixed-size elements at closed-form
   rows, varchar payloads greedily (one that does not fit flushes the
   partition first, one larger than the partition is then spilled on its
   own).
3. **Append** (materializing sinks only).  Unused result pages are freed
   and the rest join the handle, whose identity index is three arrays
   sorted by vid (vid, position, rid) beside one boolean per position.
   Positions held for removed and re-appended vids are cleared, the
   appended rows marked current, and the index merged with the new rows.

``run_invocation`` is the one lifecycle of all three.  The invocation is
in flight for the whole call, so no merge moves the pages its frozen views
point at, and steps 1 and 2 run inside one failure guard: when either
raises, every page the invocation owns goes back to the pool.

The flushes reach the sinks in the order of a deterministic coordinator
that drives the PEs round-robin one tuple at a time: every flush is tagged
(round = the row of its job during which it happens, PE, position within
that row), a job's final flushes come in the round after its last row,
and the merged tags are replayed in order.  A flush that runs out of
result pages calls the host for more (one round-trip) and then goes on.
Page grants, fragment placement and stream-buffer rotation are therefore
those of any legal parallel execution of the same jobs.

Every result carries an implicit leading identity column (``__vid``,
u64) so results can be compared canonically and materializations can be
refreshed incrementally.  The identity vector is the changed-rows table's
vid column, not a scratchpad partition, and is flushed once per PE at job
end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    OFFSETS_DTYPE,
    VALIDITY_DTYPE,
    VID_COLUMN,
    VID_DTYPE,
    assemble,
    pack_bits,
    result_specs,
    varchar_offsets,
    visibility_words,
)
from .device import (
    REGION_DDR,
    REGION_NVM,
    REGIONS,
    REQUESTER_COORD,
    REQUESTER_HOST,
    UNRESOLVED,
    Device,
    PageTable,
    sorted_unique,
)
from .errors import (
    CorruptRecord,
    DanglingReference,
    DuplicateColumn,
    HostDenied,
    MissingColumn,
    NotRefreshable,
    PoolExhausted,
    ScratchpadTooSmall,
    StaleHandle,
    TooManyPEsRequested,
)
from .layout import (
    PAGE_SIZE,
    RID_NONE,
    Schema,
    TC_TIMESTAMP,
    TC_VARCHAR,
    extract_fields,
    pg_timestamp_to_unix_epoch,
)
from .mvcc import SnapshotDescriptor

RECORD_LOAD_BYTES = 8192      # scratchpad partition reserved for record loads

MODE_MATERIALIZE = "materialize"
MODE_STREAM = "stream"


def plan_scratchpad(schema: Schema, projection, scratchpad_bytes: int) -> dict:
    """Split one PE's scratchpad: fixed record-load window, then an equal
    share per partition (value per attribute, validity per nullable, offsets
    per varlen), each rounded down to a whole number of its element size.
    Returns {(attr name, kind): capacity in bytes}.  The projection is one
    ``NdtInvocation`` has validated."""
    parts = []
    for name in projection:
        attr = schema.attribute(name)
        elem = 1 if attr.ftype.is_varlen else attr.ftype.width
        parts.append(((name, KIND_VALUES), elem))
        if attr.nullable:
            parts.append(((name, KIND_VALIDITY), VALIDITY_DTYPE.itemsize))
        if attr.ftype.is_varlen:
            parts.append(((name, KIND_OFFSETS), OFFSETS_DTYPE.itemsize))
    avail = scratchpad_bytes - RECORD_LOAD_BYTES
    if avail <= 0:
        raise ScratchpadTooSmall(
            f"{scratchpad_bytes} bytes leave nothing after the {RECORD_LOAD_BYTES}B load window"
        )
    share = avail // len(parts)
    partitions = {}
    for key, elem in parts:
        cap = (share // elem) * elem
        if cap < elem:
            raise ScratchpadTooSmall(
                f"{scratchpad_bytes} bytes give partition {key} only {share} bytes"
            )
        partitions[key] = cap
    return partitions


def checked_projection(schema: Schema, projection) -> tuple:
    """``projection`` as a tuple of names: a ``MissingColumn`` if empty or
    naming an attribute ``schema`` lacks, a ``DuplicateColumn`` if naming one twice."""
    names = tuple(projection)
    if not names:
        raise MissingColumn("the projection names no attribute")
    for k, name in enumerate(names):
        if name not in schema.index_of:
            raise MissingColumn(f"{name!r} not in schema {schema.table_name!r}")
        if name in names[:k]:
            raise DuplicateColumn(f"{name!r} named twice in the projection")
    return names


@dataclass
class NdtInvocation:
    """Everything the device needs to run one transformation; a
    materialization's result pages are NVM, a stream's buffers DDR.

    A projection ``checked_projection`` refuses is refused when the
    invocation is built: before any walk."""

    owner: str
    descriptor: SnapshotDescriptor
    schema: Schema
    projection: tuple
    pe_count: int
    result_mode: str
    result_pages: list            # NVM page indexes pre-allocated for results
    stream_pages: list            # ring-buffer pages (stream mode)
    vid_view: np.ndarray          # frozen device vid map: (vid, head) rows sorted by vid
    l2p_view: PageTable           # frozen device page table
    propagation: int              # number of the last propagation the frozen views hold
    proj_plan: tuple = field(init=False)        # derived from schema and projection

    def __post_init__(self):
        plan = []
        for name in checked_projection(self.schema, self.projection):
            idx = self.schema.index_of[name]
            attr = self.schema.attributes[idx]
            plan.append((idx, name, attr.ftype, attr.ftype.code, attr.nullable))
        self.proj_plan = tuple(plan)

    @property
    def specs(self):
        return result_specs(self.schema, self.projection)


class ChangedRows(NamedTuple):
    """An invocation's tuples to transform, PE after PE: identity, visible
    version, its record and the PE that transforms it."""

    vids: np.ndarray            # uint64
    rids: np.ndarray            # uint64 packed rid of the visible version
    regions: np.ndarray         # uint8 region code (index into ``REGIONS``)
    offsets: np.ndarray         # int64 record byte offset in its region
    lengths: np.ndarray         # int64 record length
    pes: np.ndarray             # int64 transforming PE, ascending

    def take(self, index) -> "ChangedRows":
        return ChangedRows(*(column[index] for column in self))


class IdentityIndex(NamedTuple):
    """The rows a materialization holds: one entry per held vid, sorted by vid."""

    vids: np.ndarray            # uint64, strictly increasing
    positions: np.ndarray       # int64 global position of the vid's current row
    rids: np.ndarray            # uint64 packed rid of the version that produced it

    @staticmethod
    def empty() -> "IdentityIndex":
        return IdentityIndex(np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0, np.uint64))

    def take(self, index) -> "IdentityIndex":
        return IdentityIndex(*(column[index] for column in self))

    def rids_of(self, vids: np.ndarray) -> np.ndarray:
        """The held rid of each of ``vids``; ``RID_NONE`` where the vid is not held."""
        if not len(self.vids):
            return np.full(len(vids), _NOTHING)
        at = np.minimum(np.searchsorted(self.vids, vids), len(self.vids) - 1)
        return np.where(self.vids[at] == vids, self.rids[at], _NOTHING)


class MapRows(NamedTuple):
    """The frozen map's rows an invocation walks, PE after PE, each PE's in
    vid order: identity, packed chain head and the PE that walks it."""

    vids: np.ndarray            # uint64
    heads: np.ndarray           # uint64 packed chain head
    pes: np.ndarray             # int64 walking PE, ascending


class PeJob(NamedTuple):
    """One PE's device state in an invocation."""

    pe: int
    caps: dict                  # (name, kind) -> scratchpad partition bytes
    page_queue: deque           # result pages not yet written


def schedule(inv: NdtInvocation, device: Device, candidates: np.ndarray = None):
    """Deal the frozen map's rows and the result pages over the PEs: row i
    and page i go to PE i mod n.

    ``candidates``, sorted vids, keeps only the rows of those vids the
    frozen map holds, each on the PE of its row; None keeps every row.
    Returns the PE jobs and the kept rows as one ``MapRows`` table."""
    if inv.pe_count > device.cfg.pe_count:
        raise TooManyPEsRequested(f"{inv.pe_count} PEs requested, device has {device.cfg.pe_count}")
    if inv.pe_count < 1:
        raise TooManyPEsRequested("need at least one PE")
    caps = plan_scratchpad(inv.schema, inv.projection, device.cfg.scratchpad_bytes)
    n = inv.pe_count
    vids = inv.vid_view["vid"]
    if candidates is None:
        rows = np.arange(len(vids))
    else:
        rows = np.searchsorted(vids, candidates)
        found = rows < len(vids)
        found[found] = vids[rows[found]] == candidates[found]
        rows = rows[found]
    pes = rows % n
    order = np.argsort(pes.astype(np.uint8), kind="stable")     # PE-major, rows ascending
    rows, pes = rows[order], pes[order]
    jobs = [PeJob(pe, caps, deque()) for pe in range(n)]
    for j, idx in enumerate(inv.result_pages):
        jobs[j % n].page_queue.append(idx)
    return jobs, MapRows(vids[rows], inv.vid_view["head"][rows], pes)


_NOTHING = np.uint64(RID_NONE)


def pe_visibility_check(device: Device, pe, vids: np.ndarray, heads: np.ndarray,
                        snap: SnapshotDescriptor, l2p: PageTable, held: np.ndarray = None):
    """In-situ visibility of the tuples ``pe`` walks (one PE for all, or one
    per tuple): the frontier walk of the module docstring's step 1.

    A version is visible when its creator precedes the caller and is not in
    flight.  A visible tombstone or the end of a chain resolves to nothing;
    any other version moves on to its ``pred``.  Creation timestamps must
    strictly decrease along a chain, so a cycle fails within one lap.
    ``held`` is, per tuple, the rid a refreshed handle holds (``RID_NONE``
    where it holds none; None holds nothing): a tuple whose head is its held
    rid is settled by the settle rule and resolves to the head, with its
    page's region code and offset and length 0.

    Charges each tuple's PE the modeled transfers (8B map entry per tuple,
    then 4B address resolution per visited version, and 4B slot + 4B
    header probe per visited version that is not settled) and returns
    (packed rid, region code, record offset, record length, hidden) arrays,
    one entry per tuple; the rid is ``RID_NONE`` where nothing is visible,
    and ``hidden`` is True where the head itself is not visible (its
    creator is in flight or not older than the caller).
    """
    n = len(vids)
    rids = np.full(n, _NOTHING)
    regions = np.zeros(n, dtype=np.uint8)
    offsets = np.zeros(n, dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    hidden = np.zeros(n, dtype=bool)
    if n == 0:
        return rids, regions, offsets, lengths, hidden
    device.pe_read_vid_entry(pe, n)
    caller = np.uint64(snap.caller)
    in_flight = np.sort(np.fromiter(snap.in_flight, dtype=np.uint64, count=len(snap.in_flight)))
    live = np.flatnonzero(heads != _NOTHING)            # tuple index of each frontier entry
    packed = heads[live]
    pes = np.broadcast_to(pe, n)[live]                  # the PE of each frontier entry
    newer_ts = None                                     # create_ts each entry was reached from
    while len(live):
        device.pe_read_l2p(pes, len(live))
        region, page = l2p.resolve(packed >> np.uint64(16))
        if region.max() == UNRESOLVED:
            k = np.flatnonzero(region == UNRESOLVED)[0]
            raise DanglingReference(f"vid {vids[live[k]]}: page {packed[k] >> np.uint64(16)} "
                                    "unresolvable on device")
        if newer_ts is None and held is not None:       # the heads: settle the held ones
            settled = packed == held[live]
            if settled.any():
                at = live[settled]
                rids[at], regions[at] = packed[settled], region[settled]
                walked = ~settled
                live, packed, region, page, pes = (
                    a[walked] for a in (live, packed, region, page, pes))
                if not len(live):
                    break
        m = len(live)
        base = page * PAGE_SIZE
        slot = (packed & np.uint64(0xFFFF)).astype(np.int64)
        counts = np.bincount(region, minlength=len(REGIONS)).tolist()
        # A second path, selected by the input: a step in one region keeps the
        # accessors' arrays instead of scattering them into step-sized ones.
        # Scattering every step made an sf-10 cold walk 7.9 -> 9.2-9.3 ms, and
        # 4.1 -> 4.9 ms when the 2-core VM ran faster (in-process, 20
        # interleaved rounds; the scatter was faster in at most 7/20).
        if max(counts) == m:
            code = counts.index(m)
            off, length = device.pe_read_slot(pes, REGIONS[code], base, slot)
            record = base + off
            create_ts, pred, flags = device.pe_probe_header(pes, REGIONS[code], record)
        else:
            record = np.empty(m, dtype=np.int64)
            length = np.empty(m, dtype=np.int64)
            create_ts = np.empty(m, dtype=np.uint64)
            pred = np.empty(m, dtype=np.uint64)
            flags = np.empty(m, dtype=np.uint8)
            for code in range(len(REGIONS)):       # each region holds entries here
                rows = np.flatnonzero(region == code)
                off, length[rows] = device.pe_read_slot(pes[rows], REGIONS[code], base[rows],
                                                        slot[rows])
                record[rows] = base[rows] + off
                create_ts[rows], pred[rows], flags[rows] = device.pe_probe_header(
                    pes[rows], REGIONS[code], record[rows])
        if newer_ts is not None:
            bad = np.flatnonzero(create_ts >= newer_ts)
            if len(bad):
                raise CorruptRecord(f"version chain for vid {vids[live[bad[0]]]} is not "
                                    "ordered new-to-old")
        # not in flight: no entry of the sorted ``in_flight`` equals create_ts
        visible = (create_ts < caller) & (np.searchsorted(in_flight, create_ts) == np.searchsorted(
            in_flight, create_ts, side="right"))
        if newer_ts is None:
            hidden[live[~visible]] = True
        hit = np.flatnonzero(visible & (flags & 1 == 0))
        at = live[hit]
        rids[at], regions[at], offsets[at], lengths[at] = \
            packed[hit], region[hit], record[hit], length[hit]
        more = ~visible & (pred != _NOTHING)
        live, packed, newer_ts, pes = live[more], pred[more], create_ts[more], pes[more]
    return rids, regions, offsets, lengths, hidden


# -- batch transform and flush plan ---------------------------------------------

# Where a flush falls among one projected attribute's flushes within a row,
# in the order the per-tuple coordinator performs them.
_FLUSH_VALUES, _SPILL_VALUE, _FLUSH_OFFSETS, _FLUSH_VALIDITY = range(4)
_FLUSHES_PER_ATTR = 4


def _element_flushes(data: np.ndarray, width: int, cap: int, count: int, row_of,
                     position: int):
    """Flushes of a partition filled with ``count`` elements of ``width`` bytes.

    A full partition (capacities are whole elements) is flushed just before
    the next element enters, during row ``row_of(e)`` of element e.
    Returns [(row, position, bytes)] and the bytes left for the final flush.
    """
    per = cap // width
    mid = [(row_of(e), position, data[(e - per) * width:e * width])
           for e in range(per, count, per)]
    return mid, data[(count - 1) // per * per * width:count * width]


def _payload_flushes(payload: np.ndarray, sizes: np.ndarray, cap: int):
    """Flushes of a varchar value partition; ``sizes`` holds one payload per row.

    Payloads enter whole; empty ones emit nothing.  One that does not fit
    flushes the partition first, and one larger than the partition is then
    spilled on its own.  Returns [(row, position, bytes)] and the bytes left
    for the final flush.
    """
    rows = np.flatnonzero(sizes)
    ends = np.concatenate(([0], np.cumsum(sizes[rows])))
    out = []
    i = 0
    while i < len(rows):
        if ends[i + 1] - ends[i] > cap:
            out.append((rows[i], _SPILL_VALUE, payload[ends[i]:ends[i + 1]]))
            i += 1
            continue
        j = int(np.searchsorted(ends, ends[i] + cap, side="right")) - 1   # [i, j) fit
        if j >= len(rows):
            break
        out.append((rows[j], _FLUSH_VALUES, payload[ends[i]:ends[j]]))
        i = j
    return out, payload[ends[i]:ends[-1]]


def flush_partition(job: PeJob, device: Device, sink, key, data: bytes):
    """Spill one planned partition flush to its destination."""
    device.ledger.charge(job.pe, "flush")
    sink.emit(job, key, data)


def transform_record(jobs, changed: ChangedRows, inv: NdtInvocation, device: Device) -> list:
    """Step 2: transform the invocation's changed tuples at once, then plan
    each PE's flushes on its slice of them.

    The whole table is loaded in one device read
    (``Device.pe_read_records``), which checks the records' ranges and
    charges each PE its own, and read in place by one
    ``layout.extract_fields``, which checks each record's header, fixed
    fields and varlen fields before it reads them; timestamps are then
    converted to epoch seconds.  Returns the flushes, PE after PE, as
    ``plan_flushes`` gives them.  A bad batch raises the first fault in the
    order those checks document, whichever PE holds the record.  Nothing
    viewing a region outlives the call, so a space grant during the flush
    replay may grow a region.
    """
    if not len(changed.vids):
        return []
    buffers = device.pe_read_records(changed.pes, changed.regions, changed.offsets,
                                     changed.lengths)
    columns = extract_fields(inv.schema, buffers, changed.regions, changed.offsets,
                             changed.lengths, tuple(map(itemgetter(0), inv.proj_plan)))
    for slot, (_attr_idx, _name, _ftype, code, _nullable) in enumerate(inv.proj_plan):
        if code == TC_TIMESTAMP:
            present, values = columns[slot].present, columns[slot].data
            columns[slot] = columns[slot]._replace(
                data=np.where(present, pg_timestamp_to_unix_epoch(values), 0))
    bounds = np.searchsorted(changed.pes, np.arange(len(jobs) + 1)).tolist()
    flushes = []
    for job, first, end in zip(jobs, bounds, bounds[1:]):
        flushes += plan_flushes(job, inv, columns, changed.vids, first, end)
    return flushes


def plan_flushes(job: PeJob, inv: NdtInvocation, columns, vids: np.ndarray, first: int,
                 end: int) -> list:
    """The flushes of ``job``, whose rows are [first, end) of the extracted
    ``columns`` and of ``vids``, planned from its partition capacities.

    Returns (round, PE, position, key, bytes) tuples, where round is the
    row during which the flush happens; the final flushes (values,
    validity, offsets per attribute, then the identity column) come in the
    round after the last row.
    """
    n = end - first
    if n == 0:
        return []
    flushes, tails = [], []
    for slot, (attr_idx, name, ftype, code, nullable) in enumerate(inv.proj_plan):
        present, data, sizes = columns[slot].rows(first, end)
        planned = {}                # kind -> (mid-run flushes, tail), in final-flush order
        if code == TC_VARCHAR:
            planned[KIND_VALUES] = _payload_flushes(data, sizes, job.caps[name, KIND_VALUES])
        else:
            planned[KIND_VALUES] = _element_flushes(
                data, ftype.width, job.caps[name, KIND_VALUES], n, lambda e: e, _FLUSH_VALUES)
        if nullable:
            bits = pack_bits(present)
            planned[KIND_VALIDITY] = _element_flushes(
                bits, VALIDITY_DTYPE.itemsize, job.caps[name, KIND_VALIDITY], len(bits),
                lambda e: 8 * e, _FLUSH_VALIDITY)
        if code == TC_VARCHAR:
            offsets = varchar_offsets(sizes).view(np.uint8)
            planned[KIND_OFFSETS] = _element_flushes(
                offsets, OFFSETS_DTYPE.itemsize, job.caps[name, KIND_OFFSETS], n + 1,
                lambda e: e - 1, _FLUSH_OFFSETS)
        for kind, (mid, tail) in planned.items():
            for row, position, piece in mid:
                flushes.append((row, job.pe, _FLUSHES_PER_ATTR * slot + position, (name, kind),
                                piece.tobytes()))
            tails.append(((name, kind), tail))
    tails.append(((VID_COLUMN, KIND_VALUES), vids[first:end].astype(VID_DTYPE).view(np.uint8)))
    for position, (key, data) in enumerate(tails):
        if len(data):
            flushes.append((n, job.pe, position, key, data.tobytes()))
    return flushes


INDEX_PROBE_BYTES = 8               # handle identity-index lookup per walked tuple


def walk(rows: MapRows, inv: NdtInvocation, device: Device, held: IdentityIndex, probe: bool):
    """Step 1: the visibility walk of ``rows`` as one frontier
    (``pe_visibility_check``), each row charged to its PE.

    ``held`` is the identity index of the target handle, whose rids settle
    the tuples the settle rule of the module docstring names.  Returns the
    visible versions that differ from the held ones as one ``ChangedRows``
    table, in walk order; the held tuples with nothing visible as removed,
    one ``uint64`` array in walk order; and the sorted vids whose head is
    not visible, which the handle keeps as unsettled.  ``probe`` charges
    each PE the index lookup (8 bytes per walked tuple, settled or not).
    """
    vids = rows.vids
    old = held.rids_of(vids)
    rids, regions, offsets, lengths, unseen = pe_visibility_check(
        device, rows.pes, vids, rows.heads, inv.descriptor, inv.l2p_view, old)
    if probe:
        device.charge_by_pe(rows.pes, "index_probe", len(vids),
                            device_internal_bytes_read=INDEX_PROBE_BYTES)
    visible = rids != _NOTHING
    changed = ChangedRows(vids, rids, regions, offsets, lengths, rows.pes)
    return (changed.take(np.flatnonzero(visible & (rids != old))),
            vids[~visible & (old != _NOTHING)], np.sort(vids[unseen]))


def refresh_candidates(handle: "MaterializationHandle", inv: NdtInvocation,
                       device: Device) -> np.ndarray:
    """The sorted vids a refresh of ``handle`` to ``inv``'s snapshot walks.

    They are the vids whose map entry a propagation changed after the
    handle's snapshot and up to the invocation's (read off the device's
    change log), and the vids the handle's last walk left behind a head it
    could not see.  Every other tuple is settled by construction, as the
    module docstring's step 1 says: its head is the one the last walk found
    visible, so it is visible still, and it is the held version unless it
    is a tombstone the handle holds nothing for.  When the log
    no longer reaches back to the handle's snapshot, or the invocation's
    views are older than the handle's (a reader that began later but
    prepared earlier), every vid of the frozen map is a candidate.
    """
    changed = device.changed_between(handle.propagation, inv.propagation)
    if changed is None:
        return inv.vid_view["vid"]
    return sorted_unique((changed, handle.unsettled))


def suspend_for_space(inv: NdtInvocation, device: Device, grantor, job: PeJob, count: int):
    """Host round-trip for ``count`` more result pages of ``job``; a denial
    raises ``HostDenied``."""
    device.ledger.charge(job.pe, "space_request", host_roundtrips=1)
    if grantor is None:
        raise HostDenied(f"no space grantor for invocation {inv.owner}")
    try:
        pages = grantor(inv, count)
    except PoolExhausted as exc:
        raise HostDenied(str(exc)) from exc
    job.page_queue.extend(pages)


def run_jobs(jobs, changed: ChangedRows, inv: NdtInvocation, device: Device, sink):
    """Transform the changed rows in one pass (``transform_record``), then
    replay the flushes in coordinator order.

    The order is that of PEs driven round-robin one tuple at a time
    (round, then PE, then position within the row).
    """
    flushes = transform_record(jobs, changed, inv, device)
    flushes.sort(key=itemgetter(0, 1, 2))
    for _round, pe, _position, key, data in flushes:
        flush_partition(jobs[pe], device, sink, key, data)


# -- result sinks ---------------------------------------------------------------


class FragmentWriter:
    """Append-only byte run across result pages; pages fill completely."""

    __slots__ = ("region", "pages", "room", "total")

    def __init__(self, region: str):
        self.region = region
        self.pages = []
        self.room = 0
        self.total = 0

    def pages_needed(self, nbytes: int) -> int:
        if nbytes <= self.room:
            return 0
        return -(-(nbytes - self.room) // PAGE_SIZE)

    def append(self, device: Device, requester, data, page_queue):
        mv = memoryview(data)
        pos = 0
        while pos < len(data):
            if self.room == 0:
                self.pages.append(page_queue.popleft())
                self.room = PAGE_SIZE
            take = min(self.room, len(data) - pos)
            offset = self.pages[-1] * PAGE_SIZE + (PAGE_SIZE - self.room)
            device.write(self.region, offset, mv[pos:pos + take], requester)
            pos += take
            self.room -= take
            self.total += take

    def fragment(self) -> "Fragment":
        return Fragment(self.region, tuple(self.pages), self.total)


@dataclass(frozen=True)
class Fragment:
    region: str
    pages: tuple
    nbytes: int


def read_fragment(device: Device, frag: Fragment, requester=REQUESTER_HOST) -> bytes:
    """Pull one fragment's bytes off its pages, in order, in one
    ``Device.read_pages``."""
    return device.read_pages(frag.region, frag.pages, frag.nbytes, requester)


@dataclass
class Segment:
    """One PE's contribution within one transformation run."""

    run: int
    pe: int
    rows: int
    frags: dict                   # (name, kind) -> Fragment


class MaterializeSink:
    """Routes flushed partitions into per-(PE, column, kind) page chains of
    NVM result pages; ``more_pages(job, count)`` adds ``count`` pages to a
    job's queue."""

    def __init__(self, device: Device, more_pages):
        self.device = device
        self.more_pages = more_pages
        self.writers = {}

    def emit(self, job: PeJob, key, data):
        writer = self.writers.get((job.pe, key))
        if writer is None:
            writer = FragmentWriter(REGION_NVM)
            self.writers[(job.pe, key)] = writer
        while writer.pages_needed(len(data)) > len(job.page_queue):
            self.more_pages(job, writer.pages_needed(len(data)) - len(job.page_queue))
        writer.append(self.device, job.pe, data, job.page_queue)

    def segments(self, counts, run: int) -> list:
        """One segment per PE with rows (``counts[pe]`` of them): the
        fragments of its writers."""
        return [Segment(run, pe, rows, {key: writer.fragment() for (owner, key), writer
                                        in self.writers.items() if owner == pe})
                for pe, rows in enumerate(counts) if rows]


@dataclass
class Batch:
    """One pulled stream buffer: framed column chunks plus payload size."""

    chunks: list                  # [(pe, name, kind, bytes), ...]
    payload_bytes: int


class StreamSink:
    """Rotating on-device buffers pulled by the host as they fill.

    Chunk framing (pe, column, kind, length) travels as uncharged
    completion descriptors; the pulled payload bytes are charged as
    device-to-host movement, so the ledger's device_to_host counter equals
    the logical result size exactly.
    """

    def __init__(self, device: Device, inv: NdtInvocation, consumer=None):
        cfg = device.cfg
        per_buffer = cfg.stream_buffer_bytes // PAGE_SIZE
        self.device = device
        self.consumer = consumer
        self.buffer_bytes = per_buffer * PAGE_SIZE
        self.buffers = [
            inv.stream_pages[i * per_buffer:(i + 1) * per_buffer]
            for i in range(cfg.stream_buffer_count)
        ]
        device.expose_to_host((REGION_DDR, idx) for idx in inv.stream_pages)
        self.current = 0
        self.writer = FragmentWriter(REGION_DDR)    # the current buffer's bytes so far
        self.free = deque(self.buffers[0])          # and its pages not yet written
        self.pending = []             # (pe, key, length) in write order
        self.batches = []

    def emit(self, job: PeJob, key, data):
        mv = memoryview(data)
        pos = 0
        while pos < len(data):
            room = self.buffer_bytes - self.writer.total
            if room == 0:
                self._deliver()
                room = self.buffer_bytes
            take = min(room, len(data) - pos)
            self.writer.append(self.device, job.pe, mv[pos:pos + take], self.free)
            self.pending.append((job.pe, key, take))
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
        self.free = deque(self.buffers[self.current])

    def finish(self):
        self._deliver()


def columns_from_batches(schema: Schema, projection, batches, pe_count: int):
    """The column set of a stream's pulled batches: each (PE, column, kind)
    buffer is its chunks, in pull order, joined once, and each PE with rows
    is one segment."""
    chunks = [dict() for _ in range(pe_count)]
    for batch in batches:
        for pe, name, kind, payload in batch.chunks:
            chunks[pe].setdefault((name, kind), []).append(payload)
    segments = []
    for pe in range(pe_count):
        buffers = {key: b"".join(pieces) for key, pieces in chunks[pe].items()}
        vid_buf = buffers.get((VID_COLUMN, KIND_VALUES))
        if vid_buf:
            segments.append((len(vid_buf) // VID_DTYPE.itemsize, buffers))
    return assemble(result_specs(schema, projection), segments)


# -- materialization handles ------------------------------------------------------


@dataclass
class MaterializationHandle:
    """Descriptor of an on-device materialized result.

    Fragment addresses/sizes and the row counts are what the host pulls;
    the identity index and visibility bitmap live beside the fragments on
    the device and are only ever shipped if a consumer reads them.  A new
    handle is empty; every run of the pipeline appends to it.

    ``current`` holds one boolean per position (True = current).  Invariant:
    every current position belongs to exactly one held vid, so the sorted
    ``index.positions`` equal ``np.flatnonzero(current)``.

    ``propagation`` is the number of the propagation the handle's snapshot
    views held (its mark in the device's change log, None before its first
    run and once freed), and ``unsettled`` the sorted vids its last walk
    left behind a head it could not see; a refresh walks these and the
    vids the log names (``refresh_candidates``).

    ``decoded`` is host memory, not device state: what ``delta.masked_view``
    keeps per segment, keyed by (run, PE), so that a later view or a
    compaction reuses the strings of a segment whose varchar bytes have not
    changed (``delta.DecodedStrings``).
    """

    owner: str
    device: Device
    projection: tuple
    specs: tuple
    snapshot: SnapshotDescriptor
    segments: list = field(default_factory=list)
    index: IdentityIndex = field(default_factory=IdentityIndex.empty)
    current: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    bitmap_pages: list = field(default_factory=list)
    run_count: int = 0
    freed: bool = False
    propagation: int = None
    unsettled: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    decoded: dict = field(default_factory=dict)

    @property
    def snapshot_ts(self) -> int:
        return self.snapshot.caller

    @property
    def column_bytes(self) -> int:
        return sum(frag.nbytes for seg in self.segments for frag in seg.frags.values())

    @property
    def total_positions(self) -> int:
        return len(self.current)

    @property
    def visible_rows(self) -> int:
        return int(np.count_nonzero(self.current))

    def require_live(self):
        if self.freed:
            raise StaleHandle(f"handle {self.owner} was freed")

    def require_refreshable(self, inv: NdtInvocation):
        """A refresh needs a live handle, a newer snapshot that counts in
        flight no transaction the handle's snapshot saw finished, and the
        same projection; ``NotRefreshable`` names the last two.  Such a
        snapshot (its reader began after the handle's but was prepared
        before that transaction committed) would hide a version the handle
        holds, which the refresh settles unread."""
        self.require_live()
        old, new = self.snapshot, inv.descriptor
        if new.caller <= old.caller:
            raise NotRefreshable(f"refresh snapshot {new.caller} not newer than handle "
                                 f"at {old.caller}")
        hidden = sorted(t for t in new.in_flight if t < old.caller and t not in old.in_flight)
        if hidden:
            raise NotRefreshable(f"refresh snapshot {new.caller} counts {hidden} in flight, which "
                                 f"the handle's snapshot at {old.caller} saw finished")
        if tuple(inv.projection) != tuple(self.projection):
            raise NotRefreshable("refresh projection must match the materialization")


def write_bitmap_pages(device: Device, owner: str, pages: list, current: np.ndarray) -> list:
    """Persist ``current`` beside the fragments as ``visibility_words``
    (charged writes) over ``pages``, plus the pages it lacks, taken for
    ``owner``; returns the pages the bitmap now has."""
    data = visibility_words(current)
    need = -(-len(data) // PAGE_SIZE)
    pages = list(pages)
    if len(pages) < need:
        more = device.allocate_pages(REGION_NVM, need - len(pages), owner)
        device.expose_to_host((REGION_NVM, idx) for idx in more)
        pages += more
    FragmentWriter(REGION_NVM).append(device, REQUESTER_COORD, data, deque(pages))
    return pages


HANDLE_META_FRAGMENT_BYTES = 16     # address + size per fragment
HANDLE_META_FIXED_BYTES = 32


def expose_segments(device: Device, segments):
    device.expose_to_host((frag.region, idx) for seg in segments
                          for frag in seg.frags.values() for idx in frag.pages)


def append_run(handle: MaterializationHandle, inv: NdtInvocation, jobs, changed: ChangedRows,
               sink, removed, unsettled):
    """Step 3: make the transformed rows the handle's newest run.

    Unused result pages are freed.  The changed rows take the next
    positions in table order, PE after PE; the positions held for removed
    and re-appended vids are masked out and the index is merged with the
    new rows.  Each PE's rows form its segment of the run.  The
    bitmap is persisted and the new fragments exposed while every new page
    is still the invocation's, so a failure up to there leaves the handle
    as it was and the invocation's pages to be freed.  Then the pages join
    the handle's allocation, the handle takes the run, the invocation's
    propagation number as its mark and the walk's ``unsettled`` vids, and
    its metadata is charged as host-bound bytes.
    """
    device = handle.device
    segments = sink.segments(np.bincount(changed.pes, minlength=len(jobs)).tolist(),
                             run=handle.run_count)
    leftovers = [(REGION_NVM, idx) for job in jobs for idx in job.page_queue]
    if leftovers:
        device.free_pages(inv.owner, leftovers)

    held = handle.index.vids
    moved = np.concatenate((removed, changed.vids))     # vids whose held row is replaced or gone
    at = np.searchsorted(held, moved)
    inside = at < len(held)
    at, moved = at[inside], moved[inside]
    gone = np.zeros(len(held), dtype=bool)
    gone[at[held[at] == moved]] = True
    current = np.concatenate((handle.current, np.ones(len(changed.vids), dtype=bool)))
    current[handle.index.positions[gone]] = False
    positions = np.arange(handle.total_positions, len(current), dtype=np.int64)
    merged = IdentityIndex(*map(np.concatenate, zip(handle.index.take(~gone),
                                                     (changed.vids, positions, changed.rids))))
    bitmap_pages = write_bitmap_pages(device, inv.owner, handle.bitmap_pages, current)
    expose_segments(device, segments)

    device.adopt_pages(inv.owner, handle.owner)
    # merged is a few vid-sorted runs (the kept index, then each PE's rows),
    # which the stable sort merges
    handle.index = merged.take(np.argsort(merged.vids, kind="stable"))
    handle.current = current
    handle.bitmap_pages = bitmap_pages
    handle.segments.extend(segments)
    handle.snapshot = inv.descriptor
    device.track_handle(handle.propagation, inv.propagation)
    handle.propagation = inv.propagation
    handle.unsettled = unsettled
    handle.run_count += 1
    n_frags = sum(len(seg.frags) for seg in segments)
    device.ledger.charge(REQUESTER_COORD, device_to_host_bytes=(
        HANDLE_META_FIXED_BYTES + HANDLE_META_FRAGMENT_BYTES * n_frags))
    return handle


def run_invocation(inv: NdtInvocation, device: Device, grantor=None, consumer=None,
                   handle=None):
    """Run one invocation: a first materialization, a stream, or the refresh
    of ``handle`` to the invocation's snapshot.

    The invocation is in flight for the whole call, so no merge moves the
    pages its frozen views point at, and if anything up to the end of the
    stream raises, every page it owns goes back to the pool.  A stream
    frees its buffers and returns the pulled batches; a materialization
    appends a run to ``handle`` (or to a new, empty one) and returns it.
    Pages beyond the pre-allocated ones come from ``grantor(inv, count)``.
    """
    stream = inv.result_mode == MODE_STREAM
    with device.invocation_in_flight():
        try:
            if handle is not None:
                handle.require_refreshable(inv)
            sink = StreamSink(device, inv, consumer) if stream else MaterializeSink(
                device, partial(suspend_for_space, inv, device, grantor))
            refresh = handle is not None and handle.total_positions > 0   # else a first run
            jobs, rows = schedule(inv, device,
                                  refresh_candidates(handle, inv, device) if refresh else None)
            held = handle.index if handle else IdentityIndex.empty()
            changed, removed, unsettled = walk(rows, inv, device, held, probe=refresh)
            if refresh:                 # deal the table round-robin again, stably
                deal = np.arange(len(changed.vids)) % inv.pe_count
                changed = changed._replace(pes=deal).take(np.argsort(deal, kind="stable"))
            run_jobs(jobs, changed, inv, device, sink)
            if stream:
                sink.finish()
            else:
                if handle is None:
                    handle = MaterializationHandle(
                        owner=inv.owner, device=device, projection=inv.projection,
                        specs=inv.specs, snapshot=inv.descriptor)
                append_run(handle, inv, jobs, changed, sink, removed, unsettled)
        except BaseException:
            device.free_pages(inv.owner)
            raise
        if stream:
            device.free_pages(inv.owner)
            return sink.batches
        return handle
