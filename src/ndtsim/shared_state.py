"""Host shared-state: the delta buffer plus staged map changes.

New version records accumulate in host-resident pages together with the
VID-map and logical-to-physical map entries they imply; the host pages are
exactly the pages awaiting propagation.  The whole bundle is propagated to
the device either when it reaches its configured capacity or alongside an
invocation, which also ships the in-flight transaction list its snapshot
needs.

Record ids are packed rids (``page_lid << 16 | slot``, as
``layout.pack_rid`` packs them) throughout.  The VID-map delta is staged
as two lists in staging order, vids and the packed rids of their new chain
heads (``RID_NONE`` removes a vid's entry), and ships as two arrays: a
propagation sorts them by vid and keeps the last staging of each vid, so
every vid appears once.

Hand-off is two-phase: the device acknowledges a propagation by returning
the physical placements it assigned, and only then does the host clear its
buffer and repoint its logical-to-physical map, so no window exists in
which a record is reachable from neither side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DanglingReference
from .layout import (
    PAGE_SIZE,
    SLOT_ENTRY_SIZE,
    NsmPage,
    RecordID,
    page_slot_entry_at,
)

REGION_HOST = "HOST"

DEFAULT_CAPACITY_BYTES = 512 * 1024


@dataclass(frozen=True)
class SharedStateSnapshot:
    """Frozen propagation payload, holding only what the device reads;
    immutable once constructed (its arrays are made read-only here).  Each
    of ``pages`` also declares a new logical-to-physical map entry."""

    pages: tuple                 # ((page_lid, 8 KiB image bytes), ...), lids ascending
    vids: np.ndarray             # uint64 vids whose map entry changes, sorted, unique
    heads: np.ndarray            # uint64 packed new chain head of vids[k]; RID_NONE removes
    in_flight: Optional[frozenset]   # an invocation's in-flight list; None for a regular one

    def __post_init__(self):
        self.vids.flags.writeable = False
        self.heads.flags.writeable = False


def _last_staged(vids: list, heads: list):
    """The staged (vids, heads) lists as arrays sorted by vid, with only the
    last staging of each vid: the one at its largest staging position."""
    vids = np.array(vids, dtype=np.uint64)
    order = np.argsort(vids)
    vids = vids[order]
    first = np.ones(len(vids), dtype=bool)
    np.not_equal(vids[1:], vids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    last = np.maximum.reduceat(order, starts) if len(vids) else order
    return vids[starts], np.array(heads, dtype=np.uint64)[last]


class HostSharedState:
    """Accumulator, attached to ``device``, of modifications not yet merged into
    its state; ``capacity_bytes`` of buffered record bytes propagate them."""

    def __init__(self, device, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        self.device = device
        self.capacity_bytes = capacity_bytes
        self.host_pages: dict = {}        # page_lid -> NsmPage awaiting propagation, lid order
        self.l2p: dict = {}               # page_lid -> (region, page_index); HOST index -1
        self._next_page_lid = 1
        self._open_page: Optional[NsmPage] = None
        self._staged_vids: list = []      # vids of staged map changes, in staging order
        self._staged_heads: list = []     # their packed new heads; RID_NONE removes
        self.size_bytes = 0
        self.propagation_count = 0

    # -- accumulation -------------------------------------------------------

    def _new_page(self) -> NsmPage:
        lid = self._next_page_lid
        self._next_page_lid += 1
        page = NsmPage(lid)
        self.host_pages[lid] = page
        self.l2p[lid] = (REGION_HOST, -1)
        self._open_page = page
        return page

    def append_records(self, records, vids, rids: list):
        """Place version records in the delta buffer in order, page by page,
        and stage the map delta of each (record k is ``vids[k]``'s new head).

        The packed rids of the records a page takes are appended to ``rids``
        as one ``range`` (consecutive slots pack to consecutive ints), the
        heads staged for their vids, before a propagation can run, so a
        caller can link every placed record even if a propagation fails.
        Propagates (with no in-flight list) right after the record whose append
        reaches the configured capacity; the records after it start a new
        page.  The result is that of appending the records one at a time.
        """
        page, k, n = self._open_page, 0, len(records)
        room = -1 if page is None else page.free_space
        capacity = self.capacity_bytes
        staged_vids, staged_heads = self._staged_vids, self._staged_heads
        while k < n:
            if len(records[k]) + SLOT_ENTRY_SIZE > room:
                page = self._new_page()
                room = page.free_space
            # this page takes records[k:end]: those that fit, up to the one reaching capacity
            end, size = k, self.size_bytes
            while end < n:
                need = len(records[end]) + SLOT_ENTRY_SIZE
                if need > room:
                    break
                room -= need
                size += need - SLOT_ENTRY_SIZE
                end += 1
                if size >= capacity:
                    break
            slot = page.extend(records[k:end])
            head = page.page_lid << 16 | slot
            heads = range(head, head + end - k)
            rids.extend(heads)
            staged_vids.extend(vids[k:end])
            staged_heads.extend(heads)
            self.size_bytes = size
            k = end
            if size >= capacity:
                self.propagate()
                room = -1                       # the next record starts a new page

    def stage_vid_delta(self, vid: int, rid: int):
        """Stage a map correction (abort rollback) to packed ``rid``;
        ``RID_NONE`` removes the entry."""
        self._staged_vids.append(vid)
        self._staged_heads.append(rid)

    @property
    def has_pending(self) -> bool:
        return bool(self.host_pages or self._staged_vids)

    # -- propagation ----------------------------------------------------------

    def propagate(self, in_flight=None) -> SharedStateSnapshot:
        """Freeze and ship the accumulated state to the device.

        An invocation's propagation also carries the ``in_flight`` list its
        in-situ snapshot needs; a regular one carries only data.  The host
        buffer is cleared only after the device acknowledges.
        """
        vids, heads = _last_staged(self._staged_vids, self._staged_heads)
        snapshot = SharedStateSnapshot(
            pages=tuple((lid, page.to_bytes()) for lid, page in self.host_pages.items()),
            vids=vids,
            heads=heads,
            in_flight=None if in_flight is None else frozenset(in_flight),
        )
        placements = self.device.apply_propagation(snapshot)
        for lid, loc in placements.items():
            self.l2p[lid] = loc
            del self.host_pages[lid]
        self._staged_vids.clear()
        self._staged_heads.clear()
        self.size_bytes = 0
        self._open_page = None
        self.propagation_count += 1
        return snapshot

    def merge_delta_pages(self):
        """Maintenance: relocate device delta-mirror pages into cold storage.

        Exposed as an explicit operation so experiments stay deterministic.
        """
        relocations = self.device.merge_delta_pages()
        self.l2p.update(relocations)
        return relocations

    # -- host-side record access (oracle path, not performance-modeled) -------

    def page_image(self, page_lid: int):
        """Page ``page_lid`` as it is now, wherever it lives; nothing is charged."""
        loc = self.l2p.get(page_lid)
        if loc is None:
            raise DanglingReference(f"page {page_lid} not mapped")
        region, idx = loc
        if region == REGION_HOST:
            return self.host_pages[page_lid].buf
        return self.device.peek(region, idx * PAGE_SIZE, PAGE_SIZE)

    def read_record(self, rid: RecordID) -> bytes:
        """Fetch raw record bytes wherever the page currently lives."""
        page = self.page_image(rid.page_lid)
        offset, length = page_slot_entry_at(page, 0, rid.slot)
        return bytes(page[offset:offset + length])
