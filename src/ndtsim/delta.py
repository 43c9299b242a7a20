"""Incremental refresh of on-device materializations, and its read side.

A materialization remembers, per tuple, which record version produced its
current row.  A refresh at a newer snapshot is the engine's one invocation
pipeline (walk -> transform -> append) run against the existing handle,
over its *candidates* only (``engine.refresh_candidates``): the vids whose
map entry a propagation changed after the handle's snapshot, which the
device's change log names, and the vids the handle's last walk left behind
a head it could not see (its creator was in flight, or not older than the
caller).  Every other tuple is settled by construction and neither visited
nor charged: its head is the one the last walk found visible, so it is
visible still.  A refresh therefore costs what changed, not what the table
holds.  For each candidate the walk reads its map entry, probes the
identity index and resolves its head's page; a candidate whose head is the
version the handle holds is settled there, by the settle rule of
``engine``'s step 1, without a slot read or a header probe.  Changed
tuples are dealt round-robin over the PEs, transformed and appended as a
new run.
Superseded rows are never rewritten -- a positional visibility bitmap
masks them out -- so existing column bytes stay immutable until an
explicit compaction rewrites the whole materialization.  Compaction keeps
the current rows in position order, so each held vid's new position is
the rank of its old one among the current positions
(``cumsum(current)[position] - 1``), and every new position is current.

The read side pulls every fragment page of every run in one
``Device.read_runs`` (``read_back``), each (column, kind) of all segments
into one buffer, checked and charged as one read per fragment, and
checks every buffer's length and every varchar offset
(``columns.read_joined``).  ``masked_view`` views the fixed-width columns
from those fresh bytes, but decodes a segment's strings once for the life
of the segment: the handle keeps on the host the rows of the segments a
view decoded, their varchar buffers, the mask each position was decoded
under and those strings (``DecodedStrings``).  A later view reuses them
while those segments still lead the handle with byte-equal varchar buffers
and their current positions have only been lost, which holds until a
compaction because segments are only appended and a current bit is only
ever cleared; it checks both every time.  The rows after them are decoded
and checked as ``columns.read_joined`` does, for current positions only.
``compact`` decodes nothing, it gathers the current rows' bytes into its
new fragments and checks every position, outdated ones included; when the
kept strings covered every position it carries those of the current rows
to the new segment, so the view after it decodes nothing.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .columns import (
    KIND_OFFSETS,
    KIND_VALUES,
    ColumnSet,
    JoinedSegments,
    gather_buffers,
    read_joined,
)
from .device import REGION_NVM, REQUESTER_COORD, REQUESTER_HOST
from .engine import (
    MaterializationHandle,
    NdtInvocation,
    Segment,
    expose_segments,
    run_invocation,
    write_bitmap_pages,
    write_fragment,
)
from .layout import PAGE_SIZE, TC_VARCHAR


def read_back(handle: MaterializationHandle, requester=REQUESTER_HOST) -> JoinedSegments:
    """Every fragment of every segment, pulled in one ``Device.read_runs``:
    each (column, kind) of all segments joined into one buffer.  The
    fragments are checked segment after segment and charged as one
    ``read_pages`` each."""
    handle.require_live()
    segments = handle.segments
    keys = list(chain.from_iterable(seg.frags for seg in segments))         # one per fragment
    runs = list(chain.from_iterable(seg.frags.values() for seg in segments))
    code = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    groups = np.fromiter(map(code.__getitem__, keys), np.int64, len(keys))
    buffers = handle.device.read_runs(runs, requester, groups) if runs else []
    sizes = np.zeros((len(code), len(segments)), dtype=np.int64)
    sizes[groups, np.repeat(np.arange(len(segments)), [len(seg.frags) for seg in segments])] = \
        [frag.nbytes for frag in runs]
    return JoinedSegments(np.array([seg.rows for seg in segments], dtype=np.int64),
                          dict(zip(code, buffers)), dict(zip(code, sizes)))


class DecodedStrings(NamedTuple):
    """What ``masked_view`` keeps of a handle on the host: the rows of the
    segments it decoded, their varchar buffers, the mask each position's
    strings were decoded under and, per varchar column, those strings in
    position order, as one chunk per view that decoded some."""

    rows: np.ndarray              # int64, the rows of each segment decoded
    buffers: dict                 # (name, kind) -> the varchar values and offsets, joined bytes
    keep: np.ndarray              # bool per position of those segments
    strings: dict                 # name -> tuple of chunks, each a tuple of str

    @classmethod
    def of(cls, specs, segs: JoinedSegments, keep: np.ndarray, strings: dict,
           chunks=None) -> "DecodedStrings":
        """``segs``' varchar buffers and ``strings``, each column's strings of
        ``keep``'s positions as one chunk, after the ``chunks`` kept of
        the positions before them (none by default)."""
        names = [spec.name for spec in specs if spec.ftype.code == TC_VARCHAR]
        return cls(segs.rows, {(name, kind): bytes(segs.buffers.get((name, kind), b""))
                               for name in names for kind in (KIND_VALUES, KIND_OFFSETS)},
                   keep.copy(), {name: (*(chunks or {}).get(name, ()), tuple(strings[name]))
                                 for name in names})

    def under(self, segs: JoinedSegments, keep: np.ndarray):
        """``(positions, strings)``, the ``known`` of ``columns.read_joined``:
        these strings narrowed to ``keep`` (per column, a piece per chunk:
        the chunk, or an iterator over its kept strings), or None
        unless the segments decoded lead ``segs`` with the same rows and
        byte-equal varchar buffers, and ``keep`` has only lost positions
        among theirs."""
        count, decoded = len(self.rows), len(self.keep)
        if not np.array_equal(segs.rows[:count], self.rows) or len(keep) < decoded \
                or (keep[:decoded] & ~self.keep).any():
            return None
        for key, raw in self.buffers.items():
            size = int(segs.sizes[key][:count].sum()) if key in segs.sizes else 0
            if size != len(raw) or not segs.buffers.get(key, b"").startswith(raw):
                return None
        still = keep[:decoded][self.keep]
        bounds = np.cumsum([0, *map(len, next(iter(self.strings.values()), ()))]).tolist()
        pieces = {name: [] for name in self.strings}
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            kept = still[lo:hi]
            whole = kept.all()
            kept = kept.tobytes()                           # one 0 or 1 per string
            for name, chunks in self.strings.items():
                pieces[name].append(chunks[k] if whole else compress(chunks[k], kept))
        return decoded, pieces

    def then(self, specs, segs: JoinedSegments, keep: np.ndarray, view: ColumnSet):
        """What the handle keeps after ``view`` of ``segs`` under ``keep``,
        which reused these strings: them, and the strings of the positions
        after them as one more chunk; or, when there are none and positions
        were lost, the view's strings as one chunk, so that later views of
        an unchanged handle narrow nothing."""
        decoded = len(self.keep)
        if decoded == len(keep):          # nothing new: keep the narrowed strings, if narrower
            return self if np.array_equal(keep, self.keep) else \
                DecodedStrings.of(specs, segs, keep, view.data)
        known = int(np.count_nonzero(keep[:decoded]))
        return DecodedStrings.of(specs, segs, np.concatenate((self.keep, keep[decoded:])),
                                 {name: view.data[name][known:] for name in self.strings},
                                 self.strings)


def masked_view(handle: MaterializationHandle) -> ColumnSet:
    """The rows a consumer reads: bitmap-current positions, in position order.

    Every page is read, every buffer length and varchar offset checked and
    the fixed-width columns viewed from the fresh bytes.  The strings of a
    segment are decoded once for the life of the segment: while the
    segments the handle kept strings for lead the handle with byte-equal
    varchar buffers and their current positions only shrink, the kept
    strings are narrowed instead; the rows after them are decoded and
    checked as ``columns.read_joined`` does, for current positions only.
    """
    segs = read_back(handle)
    kept = handle.decoded
    known = kept and kept.under(segs, handle.current)
    view = read_joined(handle.specs, segs, handle.current, known)
    handle.decoded = (kept.then(handle.specs, segs, handle.current, view) if known else
                      DecodedStrings.of(handle.specs, segs, handle.current, view.data))
    return view


def delta_transform(handle: MaterializationHandle, inv: NdtInvocation,
                    grantor=None) -> MaterializationHandle:
    """Refresh the materialization to the invocation's snapshot.

    Change detection compares the version now visible for each tuple with
    the version the handle materialized; equality means zero transformation
    work.  Changed tuples get their old position masked out and the new row
    appended; deleted tuples are only masked out.  This is
    ``run_invocation`` with the handle: a refresh that is rejected (freed
    handle, snapshot not newer, other projection) or fails returns the
    invocation's pages to the pool.
    """
    return run_invocation(inv, handle.device, grantor, handle=handle)


def compact(handle: MaterializationHandle) -> MaterializationHandle:
    """Rewrite the materialization keeping only current rows.

    The one operation allowed to rewrite column bytes; everything is moved
    device-internally into fresh pages and the old pages are freed.  The
    new fragments and bitmap are written under a new owner before the
    handle changes, so a failure up to there frees that owner's pages and
    leaves the handle as it was.  The handle keeps its snapshot, its mark in
    the change log and its unsettled vids.
    """
    device = handle.device
    segs = read_back(handle, REQUESTER_COORD)
    buffers = gather_buffers(handle.specs, segs, handle.current)
    n_rows = int(np.count_nonzero(handle.current))
    kept = handle.decoded and handle.decoded.under(segs, handle.current)
    reusable = kept and kept[0] == len(handle.current)      # every position's strings
    new_owner = f"{handle.owner}+c"
    current = np.ones(n_rows, dtype=bool)

    frags = {}
    try:
        for key, data in buffers.items():
            pages = device.allocate_pages(REGION_NVM, -(-len(data) // PAGE_SIZE), new_owner)
            frags[key] = write_fragment(device, REGION_NVM, pages, data, REQUESTER_COORD)
        bitmap_pages = write_bitmap_pages(device, new_owner, [], current)
    except BaseException:
        device.free_pages(new_owner)
        raise

    device.free_pages(handle.owner)
    handle.owner = new_owner
    handle.segments = [Segment(handle.run_count, 0, n_rows, frags)] if n_rows else []
    handle.decoded = None
    if n_rows and reusable:               # carry the strings of the current rows over
        handle.decoded = DecodedStrings.of(
            handle.specs, JoinedSegments.of([(n_rows, buffers)]), current,
            {name: chain.from_iterable(pieces) for name, pieces in kept[1].items()})
    rank = np.cumsum(handle.current, dtype=np.int64) - 1
    handle.index = handle.index._replace(positions=rank[handle.index.positions])
    handle.current = current
    handle.bitmap_pages = bitmap_pages
    handle.run_count += 1
    expose_segments(device, handle.segments)
    return handle


def free_handle(handle: MaterializationHandle):
    """Release every page the materialization owns and its mark in the
    change log; the handle goes stale."""
    handle.device.free_pages(handle.owner)
    handle.device.track_handle(handle.propagation, None)
    handle.propagation = None
    handle.unsettled = handle.unsettled[:0]
    handle.freed = True
    handle.decoded = None
