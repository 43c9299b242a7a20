"""Incremental refresh of on-device materializations, and its read side.

A materialization remembers, per tuple, which record version produced its
current row.  A refresh at a newer snapshot is the engine's one invocation
pipeline (walk -> transform -> append) run against the existing handle:
the walk re-runs the in-situ visibility check for every tuple of the
frozen map and charges an identity-index probe for each; tuples whose
visible version is unchanged cost nothing more, while changed tuples are
dealt round-robin over the PEs, transformed and appended as a new run.
Superseded rows are never rewritten -- a positional visibility bitmap
masks them out -- so existing column bytes stay immutable until an
explicit compaction rewrites the whole materialization.  Compaction keeps
the current rows in position order, so each held vid's new position is
the rank of its old one among the current positions
(``cumsum(current)[position] - 1``), and every new position is current.

The read side pulls every fragment page of every run.  ``masked_view``
decodes strings for current positions only; ``compact`` decodes none, it
gathers the current rows' bytes into its new fragments.  Both check every
position, outdated ones included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .columns import ColumnSet, assemble, gather_buffers
from .device import REGION_NVM, REQUESTER_COORD, REQUESTER_HOST, modeled_time
from .engine import (
    FragmentWriter,
    MaterializationHandle,
    NdtInvocation,
    Segment,
    expose_segments,
    read_fragment,
    run_invocation,
    write_bitmap_pages,
)


def read_segments(handle: MaterializationHandle, requester=REQUESTER_HOST) -> list:
    """Every segment's ``(rows, buffers)``, read off all its fragment pages."""
    handle.require_live()
    return [(seg.rows, {key: read_fragment(handle.device, frag, requester)
                        for key, frag in seg.frags.items()})
            for seg in handle.segments]


def masked_view(handle: MaterializationHandle) -> ColumnSet:
    """The rows a consumer reads: bitmap-current positions, in position order.

    Every page is read and every position checked; strings are decoded for
    current positions only.
    """
    return assemble(handle.specs, read_segments(handle), handle.current)


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


@dataclass(frozen=True)
class DeltaCostReport:
    """Ledger movement attributable to one refresh."""

    appended_rows: int
    appended_bytes: int
    removed_rows: int
    ledger_delta: dict
    modeled_ns: dict


def delta_cost(handle: MaterializationHandle, inv: NdtInvocation,
               grantor=None) -> DeltaCostReport:
    """Run delta_transform while measuring the ledger around it."""
    device = handle.device
    before = device.ledger.snapshot()
    rows_before = handle.total_positions
    bytes_before = handle.column_bytes
    vids_before = handle.index.vids
    delta_transform(handle, inv, grantor)
    ledger_delta = device.ledger.delta_since(before)
    return DeltaCostReport(
        appended_rows=handle.total_positions - rows_before,
        appended_bytes=handle.column_bytes - bytes_before,
        removed_rows=len(np.setdiff1d(vids_before, handle.index.vids, assume_unique=True)),
        ledger_delta=ledger_delta,
        modeled_ns=modeled_time(ledger_delta, device.cfg),
    )


def compact(handle: MaterializationHandle) -> MaterializationHandle:
    """Rewrite the materialization keeping only current rows.

    The one operation allowed to rewrite column bytes; everything is moved
    device-internally into fresh pages and the old pages are freed.
    """
    device = handle.device
    buffers = gather_buffers(handle.specs, read_segments(handle, REQUESTER_COORD), handle.current)
    n_rows = int(np.count_nonzero(handle.current))
    new_owner = f"{handle.owner}+c"

    frags = {}
    for key, data in buffers.items():
        writer = FragmentWriter(REGION_NVM)
        if data:
            pages = device.allocate_pages(REGION_NVM, writer.pages_needed(len(data)), new_owner)
            writer.append(device, REQUESTER_COORD, data, deque(pages))
        frags[key] = writer.fragment()

    device.free_pages(handle.owner)
    handle.owner = new_owner
    handle.segments = [Segment(handle.run_count, 0, n_rows, frags)] if n_rows else []
    rank = np.cumsum(handle.current, dtype=np.int64) - 1
    handle.index = handle.index._replace(positions=rank[handle.index.positions])
    handle.current = np.ones(n_rows, dtype=bool)
    handle.bitmap_pages = []
    handle.column_bytes = sum(f.nbytes for f in frags.values())
    handle.run_count += 1
    write_bitmap_pages(handle)
    expose_segments(device, handle.segments)
    return handle


def free_handle(handle: MaterializationHandle):
    """Release every page the materialization owns; the handle goes stale."""
    handle.device.free_pages(handle.owner)
    handle.freed = True
