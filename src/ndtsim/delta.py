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

The read side pulls every fragment page of every run and checks every
buffer's length.  ``masked_view`` views the fixed-width columns from those
fresh bytes, but decodes a segment's strings once for the life of the
segment: the handle keeps on the host, per segment, the varchar buffers a
view decoded, the current mask it decoded them under and the strings of
that mask (``DecodedStrings``).  A later view reuses them while the
segment's varchar buffers are byte-equal to the kept ones and its mask has
only lost positions, which holds until a compaction because a current bit
is only ever cleared; it checks both every time.  Anything else is decoded
and checked as ``columns.assemble`` does, for current positions only.
``compact`` decodes nothing, it gathers the current rows' bytes into its
new fragments and checks every position, outdated ones included; when the
kept strings of every old segment were reusable it carries those of the
current rows to the new segment, so the view after it decodes nothing.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .columns import (
    KIND_OFFSETS,
    KIND_VALUES,
    ColumnSet,
    decode_segment,
    gather_buffers,
    join_segments,
    segment_masks,
)
from .device import REGION_NVM, REQUESTER_COORD, REQUESTER_HOST
from .engine import (
    MaterializationHandle,
    NdtInvocation,
    Segment,
    expose_segments,
    read_fragment,
    run_invocation,
    write_bitmap_pages,
    write_fragment,
)
from .layout import PAGE_SIZE, TC_VARCHAR


def read_segments(handle: MaterializationHandle, requester=REQUESTER_HOST) -> list:
    """Every segment's ``(rows, buffers)``, read off all its fragment pages."""
    handle.require_live()
    return [(seg.rows, {key: read_fragment(handle.device, frag, requester)
                        for key, frag in seg.frags.items()})
            for seg in handle.segments]


class DecodedStrings(NamedTuple):
    """What ``masked_view`` keeps of one segment on the host: the varchar
    buffers it decoded, the segment's current mask then, and the strings of
    that mask's positions, per varchar column."""

    buffers: dict                 # (name, kind) -> the varchar values and offsets bytes
    keep: np.ndarray              # bool per position of the segment
    strings: dict                 # name -> [str] of keep's positions

    @classmethod
    def of(cls, specs, buffers: dict, keep: np.ndarray, strings: dict) -> "DecodedStrings":
        names = [spec.name for spec in specs if spec.ftype.code == TC_VARCHAR]
        return cls({(name, kind): buffers.get((name, kind), b"")
                    for name in names for kind in (KIND_VALUES, KIND_OFFSETS)},
                   keep.copy(), {name: strings[name] for name in names})

    def under(self, buffers: dict, keep: np.ndarray):
        """These strings narrowed to ``keep``, or None unless the segment's
        varchar ``buffers`` are byte-equal to the decoded ones and ``keep``
        has only lost positions."""
        if len(keep) != len(self.keep) or (keep & ~self.keep).any():
            return None
        if any(buffers.get(key, b"") != raw for key, raw in self.buffers.items()):
            return None
        still = keep[self.keep]
        if still.all():
            return self
        still = still.tolist()
        return DecodedStrings(self.buffers, keep.copy(),
                              {name: list(compress(values, still))
                               for name, values in self.strings.items()})


def _reused(handle: MaterializationHandle, segments) -> tuple:
    """Per segment, its kept ``DecodedStrings`` under the current mask, or
    None where they cannot be reused; and the mask slices."""
    masks = segment_masks(segments, handle.current)
    reused = []
    for seg, (_rows, buffers), keep in zip(handle.segments, segments, masks):
        kept = handle.decoded.get((seg.run, seg.pe))
        reused.append(kept and kept.under(buffers, keep))
    return reused, masks


def masked_view(handle: MaterializationHandle) -> ColumnSet:
    """The rows a consumer reads: bitmap-current positions, in position order.

    Every page is read, every buffer length checked and the fixed-width
    columns viewed from the fresh bytes.  A segment's strings are decoded
    once for the life of the segment: while its varchar buffers stay
    byte-equal to the ones the handle kept and its current positions only
    shrink, the kept strings are narrowed instead; otherwise the segment is
    decoded and checked as ``assemble`` does, for current positions only.
    """
    specs = handle.specs
    segments = read_segments(handle)
    reused, masks = _reused(handle, segments)
    decoded, parts = {}, []
    for seg, (rows, buffers), keep, kept in zip(handle.segments, segments, masks, reused):
        part = decode_segment(specs, rows, buffers, keep, kept and kept.strings)
        decoded[(seg.run, seg.pe)] = kept or DecodedStrings.of(specs, buffers, keep, part.data)
        parts.append(part)
    handle.decoded = decoded
    return join_segments(specs, parts)


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
    segments = read_segments(handle, REQUESTER_COORD)
    buffers = gather_buffers(handle.specs, segments, handle.current)
    n_rows = int(np.count_nonzero(handle.current))
    reused, _ = _reused(handle, segments)
    new_owner = f"{handle.owner}+c"
    current = np.ones(n_rows, dtype=bool)

    frags = {}
    try:
        for key, data in buffers.items():
            pages = device.allocate_pages(REGION_NVM, -(-len(data) // PAGE_SIZE),
                                          new_owner) if data else []
            frags[key] = write_fragment(device, REGION_NVM, pages, data, REQUESTER_COORD)
        bitmap_pages = write_bitmap_pages(device, new_owner, [], current)
    except BaseException:
        device.free_pages(new_owner)
        raise

    device.free_pages(handle.owner)
    handle.owner = new_owner
    handle.segments = [Segment(handle.run_count, 0, n_rows, frags)] if n_rows else []
    handle.decoded = {}
    if n_rows and all(reused):          # carry the strings of the current rows over
        strings = {name: list(chain.from_iterable(kept.strings[name] for kept in reused))
                   for name in reused[0].strings}
        handle.decoded[(handle.run_count, 0)] = DecodedStrings.of(
            handle.specs, buffers, current, strings)
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
    handle.decoded = {}
