"""Emulated smart-storage device.

A software stand-in for a computational storage drive: an array of
processing elements with private scratchpads, two memory regions (DDR and
NVM, the latter with configurable extra latency), a page pool whose space
is managed by the host, and a transfer ledger that accounts every byte
moved.  The ledger changes only through ``TransferLedger.charge``, and
each charge names the requester whose movement it is: a PE index,
``REQUESTER_COORD`` (the coordinator) or ``REQUESTER_HOST``.  Modeled time
is derived purely from ledger counters and the configured rates, so
identical call sequences always cost the same.

Byte movement comes in two flavors:

* raw region reads/writes (``read``/``write``) charge exactly the bytes
  they move — the conservation invariant holds over these.  Writes are
  device-internal: host bytes come by propagation and invocation commands.
  ``read_pages``, ``read_runs`` and ``write_pages`` move runs of pages;
* fine-grained navigation accessors (``pe_read_vid_entry``, ``pe_read_l2p``,
  ``pe_read_slot``, ``pe_probe_header``) charge the fixed modeled transfer
  sizes of the movement model (8B map entry, 4B address resolution, 4B slot,
  4B header probe) regardless of how much metadata the emulator decodes to
  serve them.

Every batch accessor serves a batch made by one PE, or pooled over several
PEs with one PE per entry, and charges each PE its own entries through one
helper (``charge_by_pe``): bytes, one operation each, and for slot reads,
header probes and record loads one NVM access per NVM-resident entry.
``pe_read_slot`` and ``pe_probe_header`` take arrays of positions in one
region and return arrays.  They decode page metadata (the slot count in the
page header) without a charge, bound every slot by it and raise
``CorruptRecord`` for a slot or slot entry that is invalid.
``pe_read_records`` loads records of either region in place and hands back
the region buffers, copying nothing.  All three check their
ranges, each against its own region's length, by one batch range check
before anything is charged.  Range and slot checks are reductions over the
batch; the offending entry is located only when one fails, so the error
names the first of them.  Regions are named in arrays by their code, the
index into ``REGIONS``.

The page pool keeps one owner and one exposure bit per page, in two arrays
per region: owner names are interned to codes from 1, never reused, and 0
marks a free page.  Pages are taken lowest free first, and freeing a page
clears its exposure, so that no owner inherits a page the host may read.

The map mirrors are the read-only arrays the walk reads: ``vid_map`` has
one (vid, packed chain head) row per tuple, sorted by vid, and ``l2p`` is a
``PageTable``, the page map indexed by lid, whose DDR entries are the delta
mirror's pages.  Resolving a page is a bound check and two gathers.
Propagation and merges replace the mirrors by copy-on-write, never write
into them, so invocations share them.

Propagations are numbered (``propagations``).  While a materialization
handle is live, its mark (``track_handle``) is the number of the
propagation its snapshot's views hold, and the change log keeps the vids
that each later propagation changed, so that a refresh reads there which
tuples may have moved (``changed_between``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    AccessDenied,
    CorruptRecord,
    InvalidConfig,
    InvocationInFlight,
    OutOfRange,
    OutOfSpace,
)
from .layout import (
    HEADER_WORDS,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    RECORD_HEADER_FIXED,
    RID_NONE,
    SLOT_COUNT_OFFSET,
    SLOT_ENTRY_SIZE,
    gather_words,
)

GIB = 1024 ** 3

REQUESTER_HOST = "HOST"                 # the requester of a move over the host link
REQUESTER_COORD = "COORD"               # the device coordinator, beside the PEs

REGION_DDR = "DDR"
REGION_NVM = "NVM"
REGIONS = (REGION_DDR, REGION_NVM)      # region code -> region name
UNRESOLVED = len(REGIONS)               # region code of a page the device cannot reach
_REGION_CODES = {name: code for code, name in enumerate(REGIONS)}

MAX_SLOTS = (PAGE_SIZE - PAGE_HEADER_SIZE) // SLOT_ENTRY_SIZE

# A region grows by one extend of all of a call's fresh zero pages.  On the
# benchmark's growth pattern (a 348-page load, then 1-116 pages at a time)
# that took 3.6 ms against 7.5 ms for one extend per page; a region's first
# growths of 8 and 68 pages took 0.65 against 0.51 ms (2-core VM, 40
# interleaved rounds each).

# Modeled transfer sizes for in-situ navigation.
VID_ENTRY_BYTES = 8
L2P_ENTRY_BYTES = 4
SLOT_READ_BYTES = 4
HEADER_PROBE_BYTES = 4
LOG_ENTRY_BYTES = 8              # one vid of the change log

# Propagation message accounting (bytes per element).
PROP_VID_ENTRY_BYTES = 16        # vid + record id
PROP_L2P_ENTRY_BYTES = 12        # page lid + packed location
PROP_TX_ENTRY_BYTES = 8
PROP_FIXED_BYTES = 16


@dataclass
class DeviceConfig:
    """Device parameters; defaults follow the modeled hardware profile.

    Bandwidths are GiB/s; the internal pair is read/write inside the
    device, the host pair is the host-link read/write direction.
    """

    pe_count: int = 8
    scratchpad_bytes: int = 64 * 1024
    pe_clock_hz: int = 200_000_000
    internal_read_gib_s: float = 16.0
    internal_write_gib_s: float = 30.0
    host_read_gib_s: float = 6.4
    host_write_gib_s: float = 12.0
    nvm_read_latency_ns: int = 300
    nvm_write_latency_ns: int = 1000
    # Plumbing knobs (explicit configuration, not hardware claims):
    ddr_capacity_pages: int = 16384
    nvm_capacity_pages: int = 65536
    host_roundtrip_ns: int = 5000
    pe_record_cost_cycles: int = 0
    stream_buffer_count: int = 2
    stream_buffer_bytes: int = 64 * 1024

    def validate(self):
        for name in ("pe_count", "scratchpad_bytes", "ddr_capacity_pages", "nvm_capacity_pages",
                     "stream_buffer_count", "stream_buffer_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if not (1 <= self.pe_count <= 8):
            raise InvalidConfig(f"pe_count must be in [1,8], got {self.pe_count}")
        if self.scratchpad_bytes <= 0:
            raise InvalidConfig("scratchpad_bytes must be positive")
        for name in ("internal_read_gib_s", "internal_write_gib_s",
                     "host_read_gib_s", "host_write_gib_s"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be > 0")
        if self.nvm_read_latency_ns < 0 or self.nvm_write_latency_ns < 0:
            raise InvalidConfig("NVM latencies must be >= 0")
        if self.host_roundtrip_ns < 0 or self.pe_record_cost_cycles < 0:
            raise InvalidConfig("host_roundtrip_ns and pe_record_cost_cycles must be >= 0")
        if self.ddr_capacity_pages <= 0 or self.nvm_capacity_pages <= 0:
            raise InvalidConfig("region capacities must be positive")
        if self.stream_buffer_count <= 0 or self.stream_buffer_bytes < PAGE_SIZE:
            raise InvalidConfig("stream buffers must be positive in number and hold a page")
        if self.pe_clock_hz <= 0:
            raise InvalidConfig("pe_clock_hz must be positive")


_COUNTERS = (
    "device_internal_bytes_read",
    "device_internal_bytes_written",
    "device_to_host_bytes",
    "host_to_device_bytes",
    "nvm_reads",
    "nvm_writes",
    "host_roundtrips",
    "records_processed",
)


class TransferLedger:
    """Byte- and operation-granular movement accounting.  ``charge`` is the
    only writer, and each charge names its requester: a PE index,
    ``REQUESTER_COORD`` or ``REQUESTER_HOST``."""

    __slots__ = _COUNTERS + ("pe_ops",)

    def __init__(self):
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.pe_ops: dict = {}       # requester -> {op name: count}

    def charge(self, requester, op=None, count: int = 1, *, device_internal_bytes_read=0,
               device_internal_bytes_written=0, device_to_host_bytes=0,
               host_to_device_bytes=0, nvm_reads=0, nvm_writes=0, host_roundtrips=0,
               records_processed=0):
        """Add one move of ``requester`` to the counters its keywords name; ``op``,
        one operation or a tuple of them, adds ``count`` of each to its ``pe_ops``."""
        self.device_internal_bytes_read += device_internal_bytes_read
        self.device_internal_bytes_written += device_internal_bytes_written
        self.device_to_host_bytes += device_to_host_bytes
        self.host_to_device_bytes += host_to_device_bytes
        self.nvm_reads += nvm_reads
        self.nvm_writes += nvm_writes
        self.host_roundtrips += host_roundtrips
        self.records_processed += records_processed
        if type(op) is str:
            self.pe_op(requester, op, count)
        elif op is not None:
            for name in op:
                self.pe_op(requester, name, count)

    def pe_op(self, pe, op: str, n: int = 1):
        ops = self.pe_ops.setdefault(pe, {})
        ops[op] = ops.get(op, 0) + n

    def snapshot(self) -> dict:
        return {**self.counters(), "pe_ops": {pe: dict(ops) for pe, ops in self.pe_ops.items()}}

    def delta_since(self, snap: dict) -> dict:
        delta = {name: getattr(self, name) - snap[name] for name in _COUNTERS}
        delta["pe_ops"] = {}
        for pe, ops in self.pe_ops.items():
            before = snap["pe_ops"].get(pe, {})
            d = {op: n - before.get(op, 0) for op, n in ops.items() if n != before.get(op, 0)}
            if d:
                delta["pe_ops"][pe] = d
        return delta

    def counters(self) -> dict:
        return {name: getattr(self, name) for name in _COUNTERS}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


VID_ENTRY = np.dtype([("vid", np.uint64), ("head", np.uint64)])   # one row of the vid map
# a vid-map row as one opaque word, which numpy copies much faster than a structured row
_VID_WORD = np.dtype((np.void, VID_ENTRY.itemsize))


def _replaced(vid_map: np.ndarray, changed: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``vid_map`` without the rows of the vids ``changed``, plus the rows
    ``new`` at the places of their vids: a new read-only array, or
    ``vid_map`` itself when nothing changes.  ``changed`` and ``new["vid"]``
    are each sorted and unique."""
    if not len(changed):
        return vid_map
    keys = vid_map["vid"]
    found = np.searchsorted(keys, changed)
    hit = found[found < len(keys)]
    kept = np.ones(len(keys), dtype=bool)
    kept[hit[keys[hit] == changed[:len(hit)]]] = False
    at = np.searchsorted(keys[kept], new["vid"])
    rows = np.insert(vid_map.view(_VID_WORD)[kept], at, new.view(_VID_WORD))
    return _read_only(rows.view(VID_ENTRY))


class PageTable(NamedTuple):
    """The page map indexed by lid: ``regions[lid]`` and ``pages[lid]`` are
    the region code and page index of page ``lid``, or ``UNRESOLVED`` and 0
    where the lid is unmapped.

    The host numbers its pages densely from 1, so the arrays are as long as
    the largest mapped lid plus one.  Both are read-only; ``placed`` builds
    the next table.
    """

    regions: np.ndarray         # uint8 region code (index into ``REGIONS``) or ``UNRESOLVED``
    pages: np.ndarray           # int64 page index in its region, 0 where unmapped

    @staticmethod
    def empty() -> "PageTable":
        return PageTable(_read_only(np.empty(0, np.uint8)), _read_only(np.empty(0, np.int64)))

    def placed(self, lids: np.ndarray, code: int, pages) -> "PageTable":
        """A new table that maps the int64 ``lids`` to ``pages`` of region
        ``code`` and every other lid as this one does."""
        grown = max(int(lids.max(initial=-1)) + 1 - len(self.regions), 0)
        regions = np.concatenate((self.regions, np.full(grown, UNRESOLVED, dtype=np.uint8)))
        indexes = np.concatenate((self.pages, np.zeros(grown, dtype=np.int64)))
        regions[lids], indexes[lids] = code, pages
        return PageTable(_read_only(regions), _read_only(indexes))

    def resolve(self, lids: np.ndarray):
        """(region codes, page indexes) of the uint64 ``lids``; ``UNRESOLVED``
        and 0 where unmapped.  A bound check, then one gather from each
        array."""
        size = len(self.regions)
        if len(lids) and lids.max() < size:
            at = lids.view(np.int64)                # every lid is below the table's length
            return self.regions[at], self.pages[at]
        inside = lids < size
        at = lids[inside].view(np.int64)
        codes = np.full(len(lids), UNRESOLVED, dtype=np.uint8)
        codes[inside] = self.regions[at]
        pages = np.zeros(len(lids), dtype=np.int64)
        pages[inside] = self.pages[at]
        return codes, pages


def sorted_unique(parts) -> np.ndarray:
    """The values of the uint64 arrays ``parts``, sorted and unique: one sort
    and a mask of run starts, which at a few thousand values runs ~15x
    faster than numpy 2.4's hashing ``np.unique``."""
    values = np.sort(np.concatenate(parts))
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _transfer_ns(nbytes: int, gib_s: float) -> float:
    return nbytes / (gib_s * GIB) * 1e9


def _counter(ledger, name: str):
    """Counter ``name`` of a ``TransferLedger`` or of a dict of its counters."""
    return ledger[name] if isinstance(ledger, dict) else getattr(ledger, name)


def op_total(ledger, op: str) -> int:
    """Operation ``op`` summed over the requesters of a ledger or of its ``snapshot``."""
    return sum(ops.get(op, 0) for ops in _counter(ledger, "pe_ops").values())


def modeled_time(ledger, cfg: DeviceConfig) -> dict:
    """Nanoseconds by category, derived only from counters and rates."""
    get = partial(_counter, ledger)
    t = {
        "internal_read_ns": _transfer_ns(get("device_internal_bytes_read"), cfg.internal_read_gib_s),
        "internal_write_ns": _transfer_ns(get("device_internal_bytes_written"), cfg.internal_write_gib_s),
        "device_to_host_ns": _transfer_ns(get("device_to_host_bytes"), cfg.host_read_gib_s),
        "host_to_device_ns": _transfer_ns(get("host_to_device_bytes"), cfg.host_write_gib_s),
        "nvm_ns": float(get("nvm_reads") * cfg.nvm_read_latency_ns
                        + get("nvm_writes") * cfg.nvm_write_latency_ns),
        "roundtrip_ns": float(get("host_roundtrips") * cfg.host_roundtrip_ns),
        "pe_compute_ns": get("records_processed") * cfg.pe_record_cost_cycles / cfg.pe_clock_hz * 1e9,
    }
    t["total_ns"] = sum(t.values())
    return t


def ledger_csv_rows(ledger, cfg: DeviceConfig) -> list:
    """(category, bytes, ops, modeled_ns) rows for export."""
    t = modeled_time(ledger, cfg)
    get = partial(_counter, ledger)
    return [
        ("device_internal_read", get("device_internal_bytes_read"), op_total(ledger, "read"),
         t["internal_read_ns"]),
        ("device_internal_write", get("device_internal_bytes_written"), op_total(ledger, "write"),
         t["internal_write_ns"]),
        ("device_to_host", get("device_to_host_bytes"), 0, t["device_to_host_ns"]),
        ("host_to_device", get("host_to_device_bytes"), 0, t["host_to_device_ns"]),
        ("nvm_access", 0, get("nvm_reads") + get("nvm_writes"), t["nvm_ns"]),
        ("host_roundtrip", 0, get("host_roundtrips"), t["roundtrip_ns"]),
        ("pe_compute", 0, get("records_processed"), t["pe_compute_ns"]),
        ("total", 0, 0, t["total_ns"]),
    ]


class Device:
    """One emulated device instance; see module docstring."""

    def __init__(self, cfg: DeviceConfig = None):
        cfg = cfg or DeviceConfig()
        cfg.validate()
        self.cfg = cfg
        self.ledger = TransferLedger()
        self._regions = {REGION_DDR: bytearray(), REGION_NVM: bytearray()}
        self._capacity = {REGION_DDR: cfg.ddr_capacity_pages, REGION_NVM: cfg.nvm_capacity_pages}
        self._owners = {name: np.zeros(0, np.int32) for name in REGIONS}    # owner code per page
        self._exposed = {name: np.zeros(0, bool) for name in REGIONS}    # host-readable per page
        self._owner_codes = defaultdict(count(1).__next__)     # owner name -> code, never reused
        self.vid_map = _read_only(np.empty(0, VID_ENTRY))   # device mirror, sorted by vid
        self.l2p = PageTable.empty()                        # device mirror, indexed by page lid
        self._invocations = 0                 # invocations running now
        self.propagations = 0                 # number of the last propagation applied
        self.change_log = deque()             # (number, vids it changed), oldest first
        self._log_floor = 0                   # every propagation after it is in the log
        self._handle_marks = {}               # propagation number -> live handles there

    # -- page pool -----------------------------------------------------------

    def _region_owners(self, region: str) -> np.ndarray:
        """The owner code of each page of ``region``; ``InvalidConfig`` for an
        unknown region."""
        if region not in REGIONS:
            raise InvalidConfig(f"unknown region {region!r}")
        return self._owners[region]

    def _pool_pages(self, region: str, pages) -> np.ndarray:
        """``pages`` of ``region`` as an int64 array: ``InvalidConfig`` for an
        unknown region, ``OutOfRange`` naming the first page outside it."""
        at = np.asarray(pages, dtype=np.int64)
        size = len(self._region_owners(region))
        outside = at[(at < 0) | (at >= size)]
        if len(outside):
            raise OutOfRange(f"{region} page {outside[0]} outside its {size} pages")
        return at

    def free_page_count(self, region: str) -> int:
        owners = self._region_owners(region)
        return self._capacity[region] - int(np.count_nonzero(owners))

    def allocate_pages(self, region: str, count: int, owner: str) -> list:
        """Take ``count`` pages from the region's pool for ``owner``: free
        pages first, lowest index first, then new pages at the region's end."""
        owners = self._region_owners(region)
        free = np.flatnonzero(owners == 0)
        available = self._capacity[region] - len(owners) + len(free)
        if count > available:
            raise OutOfSpace(f"{region}: requested {count} pages, {available} available")
        count = max(count, 0)
        pages = free[:count]
        fresh = count - len(pages)
        if fresh:
            first = len(owners)                         # the region's pages
            pages = np.concatenate((pages, np.arange(first, first + fresh)))
            self._regions[region].extend(bytes(fresh * PAGE_SIZE))
            for state in (self._owners, self._exposed):
                state[region] = np.append(state[region], np.zeros(fresh, state[region].dtype))
        self._owners[region][pages] = self._owner_codes[owner]
        return pages.tolist()

    def free_pages(self, owner: str, region: str = None, pages=None):
        """Return an owner's pages to their pools: all of them, or those of
        ``pages`` of ``region`` that it holds.  A freed page is no longer
        exposed to the host."""
        at = None if pages is None else self._pool_pages(region, pages)
        code = self._owner_codes.get(owner, -1)
        for name in REGIONS if at is None else (region,):
            owners = self._owners[name]
            mine = np.flatnonzero(owners == code) if at is None else at[owners[at] == code]
            owners[mine] = 0
            self._exposed[name][mine] = False

    def owner_pages(self, owner: str) -> set:
        code = self._owner_codes.get(owner, -1)
        return {(region, idx) for region in REGIONS
                for idx in np.flatnonzero(self._owners[region] == code).tolist()}

    def adopt_pages(self, src_owner: str, dst_owner: str):
        """Transfer every page of one owner to another (result adoption);
        the pages stay as exposed as they were."""
        code, dst = self._owner_codes.get(src_owner, -1), self._owner_codes[dst_owner]
        for owners in self._owners.values():
            owners[owners == code] = dst

    def expose_to_host(self, region: str, pages):
        """Let the host read each of ``pages`` of ``region`` that is held, until freed."""
        at = self._pool_pages(region, pages)
        self._exposed[region][at] = self._owners[region][at] != 0

    # -- raw byte movement ----------------------------------------------------

    def _region(self, region: str) -> bytearray:
        buf = self._regions.get(region)
        if buf is None:
            raise OutOfRange(f"unknown region {region!r}")
        return buf

    def _check_range(self, region: str, offset: int, length: int):
        buf = self._region(region)
        if offset < 0 or length < 0 or offset + length > len(buf):
            raise OutOfRange(f"{region}[{offset}:{offset + length}] outside {len(buf)} bytes")
        return buf

    def _check_exposed(self, region: str, pages, requester):
        """For ``REQUESTER_HOST``, ``AccessDenied`` names the first of
        ``pages`` of ``region``, each in range, not exposed to the host."""
        if requester == REQUESTER_HOST:
            at = np.asarray(pages, dtype=np.int64)
            shown = self._exposed[region][at]
            if not shown.all():
                raise AccessDenied(f"host access to {region} page {at[~shown][0]} not exposed")

    def _charge_read(self, requester, nbytes: int, count: int, nvm: int):
        """Charge ``count`` reads of ``nbytes`` in all, ``nvm`` of them from
        NVM: for ``REQUESTER_HOST`` over the host link, else inside the device."""
        if requester == REQUESTER_HOST:
            self.ledger.charge(requester, device_to_host_bytes=nbytes, nvm_reads=nvm)
        else:
            self.ledger.charge(requester, "read", count, device_internal_bytes_read=nbytes,
                               nvm_reads=nvm)

    def read(self, region: str, offset: int, length: int, requester) -> bytes:
        """Read bytes; requester ``REQUESTER_HOST`` moves them over the host link."""
        buf = self._check_range(region, offset, length)
        self._check_exposed(region, np.arange(offset // PAGE_SIZE,
                                              -(-(offset + length) // PAGE_SIZE)), requester)
        self._charge_read(requester, length, 1, region == REGION_NVM)
        return bytes(memoryview(buf)[offset:offset + length])

    def write(self, region: str, offset: int, data, requester):
        buf = self._check_range(region, offset, len(data))
        self.ledger.charge(requester, "write", device_internal_bytes_written=len(data),
                           nvm_writes=1 if region == REGION_NVM else 0)
        buf[offset:offset + len(data)] = data

    def _check_pages(self, region: str, pages, nbytes: int) -> bytearray:
        """``region``'s buffer, once ``pages`` are a run of its pages that
        holds ``nbytes`` as a fragment lies: every page but the last whole,
        and 1 to ``PAGE_SIZE`` bytes on the last."""
        buf = self._region(region)
        tail = nbytes - (len(pages) - 1) * PAGE_SIZE    # bytes on the last page
        if not len(pages) or min(pages) < 0 or max(pages) >= len(buf) // PAGE_SIZE \
                or not 0 < tail <= PAGE_SIZE:
            raise OutOfRange(f"{region} pages {list(pages)} do not hold {nbytes} bytes "
                             f"within {len(buf)}")
        return buf

    def read_pages(self, region: str, pages, nbytes: int, requester) -> bytes:
        """The first ``nbytes`` of ``pages`` of ``region``, in page order: the
        pages but the last whole, and the rest off the last, as a fragment
        lies.  Moves and charges what one ``read`` per page would, with one
        range check, one host-access check and one charge, and joins the
        bytes from views of the region, with no copy per page.  A read of
        many runs is ``read_runs``, whose array set-up costs more than
        this for one run."""
        count = len(pages)
        if not count:
            return b""
        buf = self._check_pages(region, pages, nbytes)
        self._check_exposed(region, pages, requester)
        self._charge_read(requester, nbytes, count, count if region == REGION_NVM else 0)
        view = memoryview(buf)
        spans = [view[idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE] for idx in pages]
        spans[-1] = spans[-1][:nbytes - (count - 1) * PAGE_SIZE]
        return b"".join(spans)

    def read_runs(self, runs, requester, groups=None) -> list:
        """The bytes of many page runs, each ``(region, pages, nbytes)`` as
        ``read_pages`` takes it (an ``engine.Fragment`` is one): one buffer
        per group, its runs joined in order.  ``groups`` numbers each run's
        group from 0 (by default, all are one group); a run of no pages
        holds no bytes.

        Each run is range-checked, and every page found exposed to a host
        requester, before anything is charged; on a fault the runs are
        checked again one at a time, each as ``read_pages`` checks it, so
        the first faulty run raises.  Then the lot is charged once, what
        one ``read_pages`` per run charges, and each group's bytes are
        joined from views of the regions, one per page."""
        runs = list(runs)
        if not runs:
            return []
        groups = np.zeros(len(runs), dtype=np.int64) if groups is None else np.asarray(groups)
        order = np.argsort(groups, kind="stable")
        regions, pages, nbytes = zip(*map(runs.__getitem__, order.tolist()))  # group by group
        counts = np.fromiter(map(len, pages), np.int64, len(runs))
        total = int(counts.sum())
        flat = np.fromiter(chain.from_iterable(pages), np.int64, total)
        held = counts > 0
        first = (np.cumsum(counts) - counts)[held]
        nbytes = np.array(nbytes, dtype=np.int64)[held]
        tail = nbytes - (counts[held] - 1) * PAGE_SIZE
        code = np.fromiter(map(_REGION_CODES.get, regions, repeat(UNRESOLVED)), int, len(runs))
        on = np.repeat(code, counts)            # each page's region code
        limit = np.array([len(self._regions[name]) // PAGE_SIZE for name in REGIONS] + [-1])
        fault = total and ((np.minimum.reduceat(flat, first) < 0).any()
                           or (np.maximum.reduceat(flat, first) >= limit[code[held]]).any()
                           or (tail <= 0).any() or (tail > PAGE_SIZE).any())
        if not fault and requester == REQUESTER_HOST:
            fault = not all(self._exposed[name][flat[on == k]].all()
                            for k, name in enumerate(REGIONS))
        if fault:
            for region, run, size in runs:
                if len(run):
                    self._check_pages(region, run, size)
                    self._check_exposed(region, run, requester)
        per_group = np.bincount(groups[order], counts, minlength=int(groups.max()) + 1)
        if not total:
            return [b""] * len(per_group)
        nvm = code == _REGION_CODES[REGION_NVM]
        self._charge_read(requester, int(nbytes.sum()), total, int(counts[nvm].sum()))

        starts = flat * PAGE_SIZE
        stops = starts + PAGE_SIZE
        last = np.cumsum(counts)[held] - 1
        stops[last] = starts[last] + tail
        views = [memoryview(self._regions[name]) for name in REGIONS]
        slices = map(slice, starts.tolist(), stops.tolist())
        if (on == on[0]).all():
            spans = list(map(views[on[0]].__getitem__, slices))
        else:
            spans = list(map(memoryview.__getitem__, map(views.__getitem__, on.tolist()), slices))
        bounds = np.concatenate(([0], np.cumsum(per_group))).astype(np.int64).tolist()
        return [b"".join(spans[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def write_pages(self, region: str, pages, data):
        """Write ``data`` onto ``pages`` of ``region``, in page order, as a
        fragment lies: the pages but the last whole, and the rest onto the
        start of the last.  One range check for the run, then one copy per
        page.  It charges nothing: its caller charges the writes the run
        stands for in one batch (``engine.flush_partition``,
        ``engine.write_fragment``)."""
        buf = self._check_pages(region, pages, len(data))
        source = memoryview(data)
        for k, idx in enumerate(pages):
            at = idx * PAGE_SIZE
            piece = source[k * PAGE_SIZE:(k + 1) * PAGE_SIZE]
            buf[at:at + len(piece)] = piece

    def peek(self, region: str, offset: int, length: int) -> memoryview:
        """Uncharged view for host-oracle and test inspection only."""
        buf = self._check_range(region, offset, length)
        return memoryview(buf)[offset:offset + length]

    # -- in-situ navigation accessors (modeled transfer sizes) -----------------

    def _check_ranges(self, regions, offsets: np.ndarray, lengths):
        """``_check_range`` for each of ``offsets`` with its length (or one for
        all) in its region: ``regions`` is one region code for all, or one
        per range.  Reductions over the batch; on failure the ``OutOfRange``
        names the first bad range in batch order."""
        limits = np.array([len(self._regions[name]) for name in REGIONS])[regions]
        ends = offsets + lengths
        if offsets.min(initial=0) < 0 or (ends < offsets).any() or (ends > limits).any():
            codes, limits = (np.broadcast_to(a, len(offsets)) for a in (regions, limits))
            k = np.flatnonzero((offsets < 0) | (ends < offsets) | (ends > limits))[0]
            raise OutOfRange(f"{REGIONS[codes[k]]}[{offsets[k]}:{ends[k]}] outside "
                             f"{limits[k]} bytes")

    def charge_by_pe(self, pe, op, count: int, **per_access):
        """Charge ``count`` accesses of ``op`` (one operation or a tuple of
        them) made by the one PE ``pe``, or by ``pe[k]`` for access k of a
        batch pooled over several PEs.  Each keyword names a ledger counter
        and what one access adds to it: one value for all, or an array of
        one per access.  Each PE with accesses is charged once: their count
        of each op and the sum of each counter.  This is the only code that
        splits a batch's charge by PE."""
        pes = np.broadcast_to(pe, count)
        counts = np.bincount(pes)
        sums = {name: value * counts if np.ndim(value) == 0 else
                np.bincount(pes, weights=value, minlength=len(counts))
                for name, value in per_access.items()}
        for one in np.flatnonzero(counts).tolist():
            self.ledger.charge(one, op, int(counts[one]),
                               **{name: int(total[one]) for name, total in sums.items()})

    def pe_read_vid_entry(self, pe, count: int):
        self.charge_by_pe(pe, "vid_entry", count, device_internal_bytes_read=VID_ENTRY_BYTES)

    def pe_read_l2p(self, pe, count: int):
        self.charge_by_pe(pe, "l2p", count, device_internal_bytes_read=L2P_ENTRY_BYTES)

    def pe_read_slot(self, pe, region: str, page_bases: np.ndarray, slots: np.ndarray):
        """4B slot-entry reads; returns (record offsets, record lengths) in pages.

        ``page_bases`` are int64 byte offsets of pages in ``region``; each
        slot must lie below its page's slot count, and its record in the
        page's record area: past the page header and before the slot array.
        """
        self._check_ranges(REGIONS.index(region), page_bases, PAGE_SIZE)
        buf = self._regions[region]
        self.charge_by_pe(pe, "slot", len(slots), device_internal_bytes_read=SLOT_READ_BYTES,
                          nvm_reads=region == REGION_NVM)
        counts = gather_words(buf, "<u2", page_bases + SLOT_COUNT_OFFSET).astype(np.int64)
        if slots.max(initial=0) >= MAX_SLOTS or (counts - slots).min(initial=1) <= 0:
            k = np.flatnonzero((slots >= counts) | (slots >= MAX_SLOTS))[0]
            raise CorruptRecord(f"slot {slots[k]} of page at {page_bases[k]} is past its "
                                f"{counts[k]} slots")
        entries = gather_words(buf, "<u4", page_bases + PAGE_SIZE - SLOT_ENTRY_SIZE * (slots + 1))
        offsets = (entries & 0xFFFF).astype(np.int64)
        lengths = (entries >> 16).astype(np.int64)
        area_ends = PAGE_SIZE - SLOT_ENTRY_SIZE * counts
        if (offsets.min(initial=PAGE_HEADER_SIZE) < PAGE_HEADER_SIZE
                or (area_ends - offsets - lengths).min(initial=0) < 0):
            k = np.flatnonzero((offsets < PAGE_HEADER_SIZE) | (offsets + lengths > area_ends))[0]
            raise CorruptRecord(f"slot {slots[k]} of page at {page_bases[k]} points outside "
                                f"the record area: [{offsets[k]}, {offsets[k] + lengths[k]})")
        return offsets, lengths

    def pe_probe_header(self, pe, region: str, record_offsets: np.ndarray):
        """Modeled 4B header probes; yield (create_ts, packed pred, flags) arrays,
        read with one gather of each record's fixed header."""
        self._check_ranges(REGIONS.index(region), record_offsets, RECORD_HEADER_FIXED)
        buf = self._regions[region]
        self.charge_by_pe(pe, "probe", len(record_offsets),
                          device_internal_bytes_read=HEADER_PROBE_BYTES,
                          nvm_reads=region == REGION_NVM)
        header = gather_words(buf, np.dtype((np.void, RECORD_HEADER_FIXED)), record_offsets).view(
            HEADER_WORDS)
        return header["create_ts"], header["pred"], header["flags"]

    def pe_read_records(self, pe, regions: np.ndarray, offsets: np.ndarray,
                        lengths: np.ndarray):
        """Load records in one batch, read where they lie; returns the region
        buffers, indexed by region code.

        Record k is bytes [offsets[k], offsets[k] + lengths[k]) of
        ``buffers[regions[k]]``.  Nothing is copied: the caller reads the
        records in place, writes nothing and keeps no view of a buffer once
        done, as a later allocation may grow the region.  Ranges are
        checked like ``read`` before anything is charged, and the
        ``OutOfRange`` names the first bad record in batch order.  Each PE
        is charged what one ``read`` of its records plus one record load
        per record charges: the record bytes, and one NVM access per
        NVM-resident record.
        """
        self._check_ranges(regions, offsets, lengths)
        self.charge_by_pe(pe, ("read", "record_load"), len(lengths),
                          device_internal_bytes_read=lengths,
                          nvm_reads=regions == REGIONS.index(REGION_NVM), records_processed=1)
        return tuple(map(self._regions.get, REGIONS))

    # -- propagation & maintenance ---------------------------------------------

    def apply_propagation(self, snapshot) -> dict:
        """Ingest a shared-state snapshot; returns page placements as ack.

        Numbers the propagation (``propagations``) and, while a handle is
        live, logs the vids it changed, removals included; the log keeps
        only the propagations after the oldest live handle's mark.  This is
        the only code that writes the change log."""
        pages = self.allocate_pages(REGION_DDR, len(snapshot.pages), "shared-state")
        placements = {}
        for (lid, image), idx in zip(snapshot.pages, pages):
            self._regions[REGION_DDR][idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE] = image
            placements[lid] = (REGION_DDR, idx)
        lids = np.fromiter(placements, dtype=np.int64, count=len(pages))
        self.l2p = self.l2p.placed(lids, REGIONS.index(REGION_DDR), pages)
        vids, heads = snapshot.vids, snapshot.heads
        live = heads != RID_NONE
        new = np.empty(np.count_nonzero(live), VID_ENTRY)
        new["vid"] = vids[live]
        new["head"] = heads[live]
        self.vid_map = _replaced(self.vid_map, vids, new)
        self.propagations += 1
        oldest = min(self._handle_marks, default=self.propagations)
        while self.change_log and self.change_log[0][0] <= oldest:
            self.change_log.popleft()
        self._log_floor = max(self._log_floor, oldest)
        if oldest < self.propagations:          # a live handle may read it
            self.change_log.append((self.propagations, vids))
        in_flight = 0 if snapshot.in_flight is None else len(snapshot.in_flight) + 1
        self.ledger.charge(REQUESTER_HOST, host_roundtrips=1, host_to_device_bytes=(
            (PAGE_SIZE + PROP_L2P_ENTRY_BYTES) * len(pages) + PROP_VID_ENTRY_BYTES * len(vids)
            + PROP_FIXED_BYTES + PROP_TX_ENTRY_BYTES * in_flight))
        return placements

    def track_handle(self, old, new):
        """Move one live handle's mark from propagation ``old`` to ``new``:
        ``old`` None adds a handle, ``new`` None drops one.  The next
        propagation trims the change log to what follows the oldest mark."""
        marks = self._handle_marks
        if old is not None:
            marks[old] -= 1
            if not marks[old]:
                del marks[old]
        if new is not None:
            marks[new] = marks.get(new, 0) + 1

    def changed_between(self, after: int, upto: int):
        """The vids that the propagations numbered in (``after``, ``upto``]
        changed, removals included, sorted and unique.  None when the change
        log no longer holds all of them, or when ``upto`` precedes
        ``after``: no span of propagations leads from the one to the other.
        The coordinator is charged one 8-byte ``log_entry`` read per logged
        vid it reads."""
        if after < self._log_floor or upto < after:
            return None
        logged = [vids for number, vids in self.change_log if after < number <= upto]
        count = sum(map(len, logged))
        if count:
            self.ledger.charge(REQUESTER_COORD, "log_entry", count,
                               device_internal_bytes_read=LOG_ENTRY_BYTES * count)
        return sorted_unique([np.empty(0, np.uint64), *logged])

    @contextmanager
    def invocation_in_flight(self):
        """Mark an invocation as running for the body's duration."""
        self._invocations += 1
        try:
            yield
        finally:
            self._invocations -= 1

    def merge_delta_pages(self) -> dict:
        """Relocate all delta-mirror pages into cold NVM storage.

        Raises ``InvocationInFlight`` while an invocation runs: its frozen
        page map still points at the delta pages.  Logical page ids are
        stable, only physical placement changes.
        """
        if self._invocations:
            raise InvocationInFlight("delta pages cannot be merged while an invocation runs")
        l2p = self.l2p
        delta = np.flatnonzero(l2p.regions == REGIONS.index(REGION_DDR))     # ascending lids
        ddr_pages = l2p.pages[delta]
        nvm_pages = self.allocate_pages(REGION_NVM, len(delta), "cold")
        ddr, nvm = (np.frombuffer(self._regions[name], np.uint8).reshape(-1, PAGE_SIZE)
                    for name in REGIONS)
        nvm[nvm_pages] = ddr[ddr_pages]
        del ddr, nvm                            # release the regions, so that they can grow
        n = len(delta)
        self.ledger.charge(REQUESTER_COORD, device_internal_bytes_read=n * PAGE_SIZE,
                           device_internal_bytes_written=n * PAGE_SIZE, nvm_writes=n)
        self.free_pages("shared-state", REGION_DDR, ddr_pages)
        self.l2p = l2p.placed(delta, REGIONS.index(REGION_NVM), nvm_pages)
        return {lid: (REGION_NVM, nidx) for lid, nidx in zip(delta.tolist(), nvm_pages)}

    def freeze_views(self):
        """An invocation's frozen ``(vid_map, l2p)``: the read-only mirrors, not copies."""
        return self.vid_map, self.l2p
