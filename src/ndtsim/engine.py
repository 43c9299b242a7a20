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
   a zeroed slot with a clear validity bit.  Every PE's flushes are then
   planned at once (``plan_flushes``), each PE on its own slice of the
   table and from its scratchpad partition capacities.  A PE's partition
   buffers are made once (views of the columns, or its validity bits,
   offsets and identity vector), and each flush is one row of integer
   arrays (round, PE, position, partition, byte range) into them:
   fixed-size elements flush at closed-form rows, every element
   partition's in one expansion, and varchar payloads fill greedily (one
   that does not fit flushes the partition first, one larger than the
   partition is then spilled on its own).
3. **Append** (materializing sinks only).  Unused result pages are freed
   and the rest join the handle, whose identity index is three arrays
   sorted by vid (vid, position, rid) beside one boolean per position.
   Positions held for removed and re-appended vids are cleared, the
   appended rows marked current, and the index merged with the new rows.

Each invocation's per-PE state lives in one place.  ``schedule`` makes
the scratchpad plan once, before the walk: every PE has the same
partition capacities.  A materialization's page queues live in its
``MaterializeSink``, which deals the invocation's result pages over the
PEs, asks the host for more and hands ``append_run`` what is left.

The flushes take effect in the order of a deterministic coordinator that
drives the PEs round-robin one tuple at a time: every flush is tagged
(round = the row of its job during which it happens, PE, position within
that row), a job's final flushes come in the round after its last row,
and ``run_jobs`` puts all PEs' flushes in that order with one sort.  The
sink then places the ordered table at once.  A materialization's
fragments take their pages from each PE's queue in that order, and at a
flush that runs out of result pages the PE calls the host for more (one
round-trip) before any later flush takes a page.  A stream's flushes fill
its buffers back to back, and each buffer is pulled before its pages are
written again.  Either charges each PE, once per operation, what flushing
one at a time, page piece by page piece, would (``flush_partition``).
Page grants, fragment placement, stream-buffer rotation and the ledger
are therefore those of any legal parallel execution of the same jobs.

Every result carries an implicit leading identity column (``__vid``,
u64) so results can be compared canonically and materializations can be
refreshed incrementally.  The identity vector is the changed-rows table's
vid column, not a scratchpad partition, and is flushed once per PE at job
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
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
    JoinedSegments,
    buffer_keys,
    pack_bits,
    read_joined,
    result_specs,
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
    CorruptDescriptor,
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
    projection: tuple             # stored as ``checked_projection`` returns it
    pe_count: int
    result_mode: str
    pages: list                   # pre-allocated result pages: NVM, or a stream's DDR buffers
    vid_view: np.ndarray          # frozen device vid map: (vid, head) rows sorted by vid
    l2p_view: PageTable           # frozen device page table
    propagation: int              # number of the last propagation the frozen views hold
    specs: tuple = field(init=False)    # ``result_specs`` of the projection, __vid first

    def __post_init__(self):
        self.projection = checked_projection(self.schema, self.projection)
        self.specs = result_specs(self.schema, self.projection)


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


def schedule(inv: NdtInvocation, device: Device, candidates: np.ndarray = None):
    """Deal the frozen map's rows over the PEs (row i goes to PE i mod n)
    and make the invocation's one scratchpad plan, which every PE shares.

    ``candidates``, sorted vids, keeps only the rows of those vids the
    frozen map holds, each on the PE of its row; None keeps every row.
    Returns the scratchpad plan ({(name, kind): partition bytes}) and the
    kept rows as one ``MapRows`` table."""
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
    return caps, MapRows(vids[rows], inv.vid_view["head"][rows], pes)


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


class FlushPlan(NamedTuple):
    """An invocation's planned partition flushes (``plan_flushes``).

    Partition ``k * n + pe`` of ``n`` PEs is key ``keys[k]`` of PE ``pe``,
    the keys in final-flush order, and ``buffers`` holds its bytes, once.
    A flush is one entry of the six int64 arrays: during row ``rounds`` of
    its job and at ``positions`` within that row, PE ``pes`` spills bytes
    [``starts``, ``ends``) of partition ``partitions``.  A partition's
    flushes cover its buffer from the start, in coordinator order; a PE
    without rows has none.
    """

    keys: list                  # (name, kind) of each partition key
    buffers: list               # uint8 bytes of each partition
    rounds: np.ndarray
    pes: np.ndarray
    positions: np.ndarray
    partitions: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def take(self, index) -> "FlushPlan":
        return FlushPlan(self.keys, self.buffers, *(column[index] for column in self[2:]))


def _element_flushes(counts, widths, caps, scales, shifts):
    """Mid-run flushes of element partitions, all at once: partition i
    fills with ``counts[i]`` elements of ``widths[i]`` bytes, and when full
    (capacities are whole elements) is flushed just before the next element
    enters, during row ``scales[i] * e + shifts[i]`` of element e.

    Returns each flush's partition, row, start and end, and the start of
    what each partition leaves for its final flush.
    """
    per = caps // widths
    mids = np.maximum(counts - 1, 0) // per
    part = np.repeat(np.arange(len(counts)), mids)
    e = (np.arange(len(part)) - np.repeat(np.cumsum(mids) - mids, mids) + 1) * per[part]
    ends = e * widths[part]
    return part, scales[part] * e + shifts[part], ends - per[part] * widths[part], ends, \
        mids * per * widths


def _payload_flushes(ends: np.ndarray, edges: list, cap: int, position: int, key: int,
                     out: list) -> np.ndarray:
    """Flushes of each PE's value partition of one varchar column, filled
    with its rows' payloads: row r's is bytes [ends[r], ends[r + 1]) of the
    column, and PE pe holds rows [edges[pe], edges[pe + 1]).

    Payloads enter whole; empty ones emit nothing.  One that does not fit
    flushes the partition first, and one larger than the partition is then
    spilled on its own.  Appends each flush to ``out`` as (round, PE,
    position, partition, start, end), bytes counted within the PE's
    partition, and returns where each PE's final flush starts.  Each fill
    starts where the last one stopped, so the loop runs once per flush, on
    one ``searchsorted`` for the first row that does not fit.  Finding
    every fill at once by pointer doubling took 1.06 ms against this loop's
    0.09 ms (8 partitions of 3750 payloads), as it searches from every
    payload, not from the dozen a partition flushes at.
    """
    n = len(edges) - 1
    tails = np.zeros(n, dtype=np.int64)
    search = ends.searchsorted
    for pe in range(n):
        first, last = edges[pe], edges[pe + 1]
        base = start = int(ends[first])
        while True:
            row = int(search(start + cap, "right")) - 1     # its payload ends past the fill
            if row >= last:
                break
            at = int(ends[row])
            if at == start:                                 # alone, it is larger than the fill
                at = int(ends[row + 1])
                out += (row - first, pe, position + _SPILL_VALUE, key * n + pe, start - base,
                        at - base)
            else:
                out += (row - first, pe, position + _FLUSH_VALUES, key * n + pe, start - base,
                        at - base)
            start = at
        tails[pe] = start - base
    return tails


def plan_flushes(caps: dict, inv: NdtInvocation, columns, vids: np.ndarray,
                 bounds: np.ndarray) -> FlushPlan:
    """Plan every PE's flushes from the partition capacities ``caps``, at
    once: PE ``pe`` holds rows [bounds[pe], bounds[pe + 1]) of the
    extracted ``columns`` and of ``vids``.

    Each PE's partition buffers are views of the columns, or made once
    (validity bits, offsets, identity vector).  Fixed-size elements flush
    at closed-form rows, every element partition's in one expansion;
    varchar payloads fill greedily (``_payload_flushes``).  The final
    flushes (values, validity, offsets per attribute, then the identity
    column) come in the round after the PE's last row, one per partition
    with bytes left, at the partition's key index; a PE without rows
    flushes nothing.
    """
    n = inv.pe_count
    edges, rows = bounds.tolist(), np.diff(bounds)
    cuts = bounds[1:-1]                         # where each PE's rows start, but the first's
    keys, buffers = [], []
    elements = []           # per element key: key index, width, cap, row scale and shift, position
    tails = {}              # per other key: where each PE's final flush starts
    filled = []             # varchar value flushes, six ints each as a ``FlushPlan`` row
    for slot, (name, ftype, nullable) in enumerate(inv.specs[1:]):
        column = columns[slot]
        base = _FLUSHES_PER_ATTR * slot
        if ftype.code == TC_VARCHAR:
            tails[len(keys)] = _payload_flushes(column.ends, edges, caps[name, KIND_VALUES],
                                                base, len(keys), filled)
            buffers += np.split(column.data, column.ends[cuts])
        else:
            elements.append((len(keys), ftype.width, caps[name, KIND_VALUES], 1, 0,
                             base + _FLUSH_VALUES))
            buffers += np.split(column.data.view(np.uint8), cuts * ftype.width)
        keys.append((name, KIND_VALUES))
        if nullable:
            elements.append((len(keys), VALIDITY_DTYPE.itemsize, caps[name, KIND_VALIDITY], 8, 0,
                             base + _FLUSH_VALIDITY))
            buffers += map(pack_bits, np.split(column.present, cuts))
            keys.append((name, KIND_VALIDITY))
        if ftype.code == TC_VARCHAR:
            elements.append((len(keys), OFFSETS_DTYPE.itemsize, caps[name, KIND_OFFSETS], 1, -1,
                             base + _FLUSH_OFFSETS))
            for first, last in zip(edges, edges[1:]):
                ends = column.ends[first:last + 1]
                buffers.append((ends - ends[0]).astype(OFFSETS_DTYPE).view(np.uint8))
            keys.append((name, KIND_OFFSETS))
    tails[len(keys)] = np.zeros(n, dtype=np.int64)      # the identity column: whole at job end
    buffers += np.split(vids.astype(VID_DTYPE).view(np.uint8), cuts * VID_DTYPE.itemsize)
    keys.append((VID_COLUMN, KIND_VALUES))

    length = np.fromiter(map(len, buffers), dtype=np.int64, count=len(buffers))
    length[np.tile(rows == 0, len(keys))] = 0          # a PE without rows flushes nothing
    tail = np.empty((len(keys), n), dtype=np.int64)
    for k, starts in tails.items():
        tail[k] = starts
    spec = np.array(elements, dtype=np.int64)          # every attribute has an element key
    key, width, cap, scale, shift, position = np.repeat(spec, n, axis=0).T
    pes = np.tile(np.arange(n), len(spec))
    counts = length.reshape(len(keys), n)[spec[:, 0]].ravel() // width
    part, row, start, end, tail[key, pes] = _element_flushes(counts, width, cap, scale, shift)
    mids = np.column_stack((row, pes[part], position[part], key[part] * n + pes[part], start, end))
    tail = tail.ravel()
    last = np.flatnonzero(length > tail)               # the partitions with bytes left
    finals = np.column_stack((rows[last % n], last % n, last // n, last, tail[last], length[last]))
    filled = np.array(filled, dtype=np.int64).reshape(-1, 6)
    return FlushPlan(keys, buffers, *np.concatenate((mids, filled, finals)).T)


def transform_record(caps: dict, changed: ChangedRows, inv: NdtInvocation, device: Device):
    """Step 2: transform the invocation's changed tuples at once, then plan
    every PE's flushes on its slice of them, from the scratchpad plan
    ``caps``.

    The whole table is loaded in one device read
    (``Device.pe_read_records``), which checks the records' ranges and
    charges each PE its own, and read in place by one
    ``layout.extract_fields``, which checks each record's header, fixed
    fields and varlen fields before it reads them; timestamps are then
    converted to epoch seconds.  Returns the ``plan_flushes`` plan, or None
    when there is nothing to transform.  A bad batch raises the first fault
    in the order those checks document, whichever PE holds the record.
    The plan views no region, so a space grant while the flushes are placed
    may grow one.
    """
    if not len(changed.vids):
        return None
    buffers = device.pe_read_records(changed.pes, changed.regions, changed.offsets,
                                     changed.lengths)
    columns = extract_fields(inv.schema, buffers, changed.regions, changed.offsets,
                             changed.lengths, tuple(map(inv.schema.index_of.get, inv.projection)))
    for slot, spec in enumerate(inv.specs[1:]):
        if spec.ftype.code == TC_TIMESTAMP:
            present, values = columns[slot].present, columns[slot].data
            columns[slot] = columns[slot]._replace(
                data=np.where(present, pg_timestamp_to_unix_epoch(values), 0))
    bounds = np.searchsorted(changed.pes, np.arange(inv.pe_count + 1))
    return plan_flushes(caps, inv, columns, changed.vids, bounds)


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


def run_jobs(caps: dict, changed: ChangedRows, inv: NdtInvocation, device: Device, sink):
    """Transform the changed rows in one pass (``transform_record``, from
    the scratchpad plan ``caps``), merge every PE's flushes into
    coordinator order with one sort (round, then PE, then position within
    the row: PEs driven round-robin one tuple at a time) and have the sink
    place them at once."""
    plan = transform_record(caps, changed, inv, device)
    if plan is not None:
        sink.place(plan.take(np.lexsort((plan.positions, plan.pes, plan.rounds))))


def flush_partition(device: Device, region: str, pes: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray):
    """Charge the PEs for spilling planned partition flushes: flush k, made
    by PE ``pes[k]``, writes bytes [starts[k], ends[k]) of a result laid
    over whole pages of ``region``.

    Each flush costs its PE one ``flush`` and one write per page it
    touches (a piece of at most a page, with its bytes and, in NVM, one
    NVM write): what writing each flush page piece by page piece charges.
    One ``charge_by_pe`` per operation, for every PE at once.
    """
    first = starts // PAGE_SIZE
    pieces = (ends - 1) // PAGE_SIZE - first + 1
    flush = np.repeat(np.arange(len(pes)), pieces)
    page = first[flush] + np.arange(len(flush)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    written = (np.minimum(ends[flush], (page + 1) * PAGE_SIZE)
               - np.maximum(starts[flush], page * PAGE_SIZE))
    device.charge_by_pe(pes, "flush", len(pes))
    device.charge_by_pe(pes[flush], "write", len(flush), device_internal_bytes_written=written,
                        nvm_writes=region == REGION_NVM)


# -- result sinks ---------------------------------------------------------------


class Fragment(NamedTuple):
    """One (PE, column, kind) buffer of a run, on its pages as
    ``Device.read_runs`` reads a run: every page but the last full."""

    region: str
    pages: tuple
    nbytes: int


def write_fragment(device: Device, region: str, pages, data, requester) -> Fragment:
    """Write ``data`` as one fragment onto ``pages``, which it fills but the
    last, in one ``Device.write_pages``, and charge ``requester`` what
    writing it page by page does: one write per page, its bytes, and in
    NVM one NVM write per page."""
    if len(data):
        device.write_pages(region, pages, data)
        device.ledger.charge(requester, "write", len(pages),
                             device_internal_bytes_written=len(data),
                             nvm_writes=len(pages) if region == REGION_NVM else 0)
    return Fragment(region, tuple(pages), len(data))


@dataclass
class Segment:
    """One PE's contribution within one transformation run."""

    run: int
    pe: int
    rows: int
    frags: dict                   # (name, kind) -> Fragment


def _running_by_pe(pes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """At each entry, the sum of ``values`` over its PE's entries so far."""
    order = np.argsort(pes, kind="stable")
    total = np.cumsum(values[order])
    counts = np.bincount(pes)
    before = np.concatenate(([0], total))[np.cumsum(counts) - counts]
    running = np.empty_like(total)
    running[order] = total - np.repeat(before, counts)
    return running


class MaterializeSink:
    """Places an invocation's flushes on NVM result pages: one fragment per
    (PE, column, kind), whose pages its PE takes from its queue in replay
    order.

    The sink holds the PEs' page queues: it deals the invocation's result
    pages over them (page i to PE i mod n), and a PE whose queue runs short
    asks the host for more through it (``grantor(inv, count)``).  What the
    queues still hold when the flushes are placed, ``append_run`` frees."""

    def __init__(self, device: Device, inv: NdtInvocation, grantor):
        self.device = device
        self.inv = inv
        self.grantor = grantor
        n = inv.pe_count
        self.queues = [list(inv.pages[pe::n]) for pe in range(n)]   # result pages not yet written
        self.fragments = {}           # (pe, (name, kind)) -> Fragment, in first-flush order

    def request_space(self, pe: int, count: int):
        """Host round-trip for ``count`` more result pages of PE ``pe``; a
        denial raises ``HostDenied``."""
        self.device.ledger.charge(pe, "space_request", host_roundtrips=1)
        if self.grantor is None:
            raise HostDenied(f"no space grantor for invocation {self.inv.owner}")
        try:
            pages = self.grantor(self.inv, count)
        except PoolExhausted as exc:
            raise HostDenied(str(exc)) from exc
        self.queues[pe].extend(pages)

    def place(self, plan: FlushPlan):
        """Place ``plan``'s flushes, in coordinator order, at once.

        A partition's flushes fill its fragment's pages completely, so a
        flush of bytes [start, end) opens ceil(end / PAGE_SIZE) -
        ceil(start / PAGE_SIZE) pages, which its PE takes next from its
        queue.  Only at a flush where a PE's running demand passes its
        queue does the PE ask the host for the pages it lacks, in replay
        order, by a loop over those shortages alone.  When a request
        raises, what the flushes before the short one wrote is placed and
        charged, and the short one's ``flush``, as a one-at-a-time replay
        leaves it.
        """
        pes = plan.pes
        opened = -plan.starts // PAGE_SIZE - -plan.ends // PAGE_SIZE     # ceil(end) - ceil(start)
        demand = _running_by_pe(pes, opened)
        supply = np.array(list(map(len, self.queues)), dtype=np.int64)
        row = 0
        try:
            while True:
                short = np.flatnonzero(demand[row:] > supply[pes[row:]])
                if not len(short):
                    break
                row += int(short[0])
                pe = int(pes[row])
                self.request_space(pe, int(demand[row] - supply[pe]))
                supply[pe] = len(self.queues[pe])
        except BaseException:
            self._land(plan, opened, row)
            self.device.ledger.charge(int(pes[row]), "flush")
            raise
        self._land(plan, opened, len(pes))

    def _land(self, plan: FlushPlan, opened: np.ndarray, count: int):
        """Charge and write the first ``count`` flushes of ``plan``: each PE
        takes the pages they open off the front of its queue, and each
        partition's written bytes go onto its pages in one
        ``Device.write_pages``, in order of first flush."""
        pes, parts, ends = plan.pes[:count], plan.partitions[:count], plan.ends[:count]
        opened = opened[:count]
        flush_partition(self.device, REGION_NVM, pes, plan.starts[:count], ends)
        n = len(self.queues)
        order = np.argsort(pes, kind="stable")
        owners = np.repeat(parts[order], opened[order])     # partition of each page, PE after PE
        pages = np.empty(len(owners), dtype=np.int64)
        at = 0
        for queue, taken in zip(self.queues,
                                np.bincount(pes, opened, minlength=n).astype(int).tolist()):
            pages[at:at + taken] = queue[:taken]
            del queue[:taken]
            at += taken
        pages = pages[np.argsort(owners, kind="stable")].tolist()      # partition after partition
        runs = np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=len(plan.buffers)))))
        runs = runs.tolist()
        extent = np.zeros(len(plan.buffers), dtype=np.int64)
        np.maximum.at(extent, parts, ends)
        extent = extent.tolist()
        placed, first = np.unique(parts, return_index=True)
        for part in placed[np.argsort(first)].tolist():
            run = tuple(pages[runs[part]:runs[part + 1]])
            self.device.write_pages(REGION_NVM, run, plan.buffers[part][:extent[part]])
            self.fragments[part % n, plan.keys[part // n]] = Fragment(REGION_NVM, run,
                                                                      extent[part])

    def segments(self, counts, run: int) -> list:
        """One segment per PE with rows (``counts[pe]`` of them): its fragments."""
        return [Segment(run, pe, rows, {key: frag for (owner, key), frag
                                        in self.fragments.items() if owner == pe})
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
        self.pe_count = inv.pe_count
        self.buffer_bytes = per_buffer * PAGE_SIZE
        self.buffers = [inv.pages[i * per_buffer:(i + 1) * per_buffer]
                        for i in range(cfg.stream_buffer_count)]
        device.expose_to_host(REGION_DDR, inv.pages)
        self.batches = []

    def place(self, plan: FlushPlan):
        """Place ``plan``'s flushes, in coordinator order, at once: back to
        back, they fill the buffers in turn, and each buffer is delivered
        (``_deliver``) before its pages are written again.  A flush that
        crosses a buffer's end is cut there, into one chunk per buffer."""
        size = plan.ends - plan.starts
        stop = np.cumsum(size)                  # where each flush ends in the stream
        start = stop - size
        flush_partition(self.device, REGION_DDR, plan.pes, start, stop)
        whole = self.buffer_bytes
        cuts = (stop - 1) // whole - start // whole + 1
        flush = np.repeat(np.arange(len(size)), cuts)           # the flush of each piece
        buffer = start[flush] // whole + np.arange(len(flush)) - np.repeat(np.cumsum(cuts) - cuts,
                                                                            cuts)
        first = np.maximum(start[flush], buffer * whole)        # each piece in the stream
        last = np.minimum(stop[flush], (buffer + 1) * whole)
        source = plan.starts[flush] + first - start[flush]      # and in its partition
        parts = plan.partitions[flush]
        chunks = (plan.pes[flush].tolist(), (parts // self.pe_count).tolist(), parts.tolist(),
                  source.tolist(), (source + last - first).tolist(),
                  (first - buffer * whole).tolist(), (last - buffer * whole).tolist())
        views = list(map(memoryview, plan.buffers))
        edges = np.searchsorted(buffer, np.arange(buffer[-1] + 2)).tolist()
        for index in range(len(edges) - 1):
            self._deliver(index, views, plan.keys, chunks, slice(edges[index], edges[index + 1]))

    def _deliver(self, index: int, views, keys, chunks, pieces: slice):
        """Write buffer ``index`` of the stream, its ``pieces`` of
        ``chunks`` (PE, key, partition, partition range, buffer range),
        onto its pages, pull it with one ``read_pages`` and hand the
        consumer its ``Batch``: one chunk per piece, sliced out of the
        pulled bytes."""
        pes, key_of, parts, starts, ends, lo, hi = (column[pieces] for column in chunks)
        nbytes = hi[-1]
        pages = self.buffers[index % len(self.buffers)][:-(-nbytes // PAGE_SIZE)]
        self.device.write_pages(REGION_DDR, pages, b"".join(
            [views[part][a:b] for part, a, b in zip(parts, starts, ends)]))
        raw = self.device.read_pages(REGION_DDR, pages, nbytes, REQUESTER_HOST)
        batch = Batch([(pe, *keys[k], raw[a:b]) for pe, k, a, b in zip(pes, key_of, lo, hi)],
                      nbytes)
        self.batches.append(batch)
        if self.consumer is not None:
            self.consumer(batch)


def columns_from_batches(schema: Schema, projection, batches, pe_count: int):
    """The column set of a stream's pulled batches: each PE is one segment,
    each (column, kind) buffer its chunks in pull order, PE after PE, joined
    once per key.  A chunk of no PE below ``pe_count`` or of no buffer of
    the projection is a ``CorruptDescriptor``."""
    specs = result_specs(schema, projection)
    pieces = {key: [[] for _ in range(pe_count)] for key in buffer_keys(specs)}
    for batch in batches:
        for pe, name, kind, payload in batch.chunks:
            per_pe = pieces.get((name, kind))
            if per_pe is None or not 0 <= pe < pe_count:
                raise CorruptDescriptor(f"chunk ({pe}, {name!r}, {kind!r}) is of no buffer of "
                                        f"{pe_count} PEs over the projection")
            per_pe[pe].append(payload)
    sizes = {key: np.array([sum(map(len, chunks)) for chunks in per_pe], dtype=np.int64)
             for key, per_pe in pieces.items()}
    joined = JoinedSegments(sizes[VID_COLUMN, KIND_VALUES] // VID_DTYPE.itemsize,
                            {key: b"".join(chain.from_iterable(per_pe))
                             for key, per_pe in pieces.items()}, sizes)
    return read_joined(specs, joined)


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
    keeps of the segments it read (their rows, varchar bytes, the current
    mask and its strings), so that a later view or a compaction reuses
    the strings of the leading segments whose varchar bytes have not
    changed (``delta.DecodedStrings``); None before a view.
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
    decoded: object = None

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
        if inv.projection != self.projection:
            raise NotRefreshable("refresh projection must match the materialization")


def write_bitmap_pages(device: Device, owner: str, pages: list, current: np.ndarray) -> list:
    """Persist ``current`` beside the fragments as ``visibility_words``
    (charged writes) over ``pages``, plus the pages it lacks, taken for
    ``owner``; returns the pages the bitmap now has."""
    data = visibility_words(current)
    need = -(-len(data) // PAGE_SIZE)
    if len(pages) < need:
        more = device.allocate_pages(REGION_NVM, need - len(pages), owner)
        device.expose_to_host(REGION_NVM, more)
        pages = [*pages, *more]
    write_fragment(device, REGION_NVM, pages[:need], data, REQUESTER_COORD)
    return pages


HANDLE_META_FRAGMENT_BYTES = 16     # address + size per fragment
HANDLE_META_FIXED_BYTES = 32


def expose_segments(device: Device, segments):
    frags = [frag for seg in segments for frag in seg.frags.values()]
    for region in REGIONS:
        device.expose_to_host(region, list(chain.from_iterable(
            frag.pages for frag in frags if frag.region == region)))


def append_run(handle: MaterializationHandle, inv: NdtInvocation, changed: ChangedRows,
               sink: MaterializeSink, removed, unsettled):
    """Step 3: make the transformed rows the handle's newest run.

    The result pages left in the page queues of ``sink``, which holds
    them, are freed.  The changed rows take the next positions in table
    order, PE after PE; the positions held for removed and re-appended
    vids are masked out and the index is merged with the new rows.  Each
    PE's rows form its segment of the run.  The bitmap is persisted and
    the new fragments exposed while every new page is still the
    invocation's, so a failure up to there leaves the handle as it was
    and the invocation's pages to be freed.  Then the pages join
    the handle's allocation, the handle takes the run, the invocation's
    propagation number as its mark and the walk's ``unsettled`` vids, and
    its metadata is charged as host-bound bytes.
    """
    device = handle.device
    segments = sink.segments(np.bincount(changed.pes, minlength=inv.pe_count).tolist(),
                             run=handle.run_count)
    device.free_pages(inv.owner, REGION_NVM, list(chain.from_iterable(sink.queues)))

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
                device, inv, grantor)
            refresh = handle is not None and handle.total_positions > 0   # else a first run
            caps, rows = schedule(inv, device,
                                  refresh_candidates(handle, inv, device) if refresh else None)
            held = handle.index if handle else IdentityIndex.empty()
            changed, removed, unsettled = walk(rows, inv, device, held, probe=refresh)
            if refresh:                 # deal the table round-robin again, stably
                deal = np.arange(len(changed.vids)) % inv.pe_count
                changed = changed._replace(pes=deal).take(np.argsort(deal, kind="stable"))
            run_jobs(caps, changed, inv, device, sink)
            if not stream:
                if handle is None:
                    handle = MaterializationHandle(
                        owner=inv.owner, device=device, projection=inv.projection,
                        specs=inv.specs, snapshot=inv.descriptor)
                append_run(handle, inv, changed, sink, removed, unsettled)
        except BaseException:
            device.free_pages(inv.owner)
            raise
        if stream:
            device.free_pages(inv.owner)
            return sink.batches
        return handle
