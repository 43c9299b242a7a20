"""Host-side multi-version concurrency control.

Version records live as bytes in the shared-state delta buffer (and later
on the device); this module maintains the logical view of them: per-tuple
new-to-old chains, the map from tuple id to chain head, and the reference
visibility rule that everything device-side is tested against.

Chains are published as immutable cons-style nodes: installing a version
swaps one dict entry, so concurrent snapshot readers never observe a
half-updated chain.  A single logical writer is assumed for mutation.

A version's record id is the packed rid, ``page_lid << 16 | slot`` as
``layout.pack_rid`` packs it (``RID_NONE`` for none), everywhere in this
module: in chain nodes, in a transaction's write list and in what an
install returns.  No ``RecordID`` or ``RecordHeader`` object is made per
version; the headers reach the encoder as columns (``encode_versions``).

A write over a head created by another transaction still in flight (a
dirty write, P0 in Berenson et al., SIGMOD 1995) is refused, so every
version below a head was committed: an abort only moves heads back, and a
record's bytes never change once written.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import NamedTuple, Optional

from .errors import AlreadyFinished, InvalidVid, LengthMismatch, StaleWrite, UnknownTx
from .layout import RID_NONE, Schema, encode_versions

VID_LIMIT = 1 << 64              # a vid is an int in [0, VID_LIMIT): the header's u64


class ChainNode(NamedTuple):
    """One version in a new-to-old chain; ``rid`` is its packed record id,
    and ``pred`` links toward older."""

    rid: int
    create_ts: int
    tombstone: bool
    pred: Optional["ChainNode"]


@dataclass(frozen=True)
class SnapshotDescriptor:
    """Visibility context shipped with an invocation: caller id plus the
    transactions that were still in-flight when it was taken."""

    caller: int
    in_flight: frozenset


# Sentinel passed to install_version(s) to create a delete marker.
TOMBSTONE = object()


def oracle_visible_version(chain: Optional[ChainNode], snap: SnapshotDescriptor) -> Optional[int]:
    """Reference visibility rule: newest version committed before the caller.

    Walks the chain new-to-old and returns the packed rid of the first
    version whose creator both precedes the caller and is not in the
    in-flight set; None when no version qualifies or the qualifying version
    is a tombstone.
    """
    node = chain
    caller = snap.caller
    in_flight = snap.in_flight
    while node is not None:
        ts = node.create_ts
        if ts < caller and ts not in in_flight:
            return None if node.tombstone else node.rid
        node = node.pred
    return None


class MvccStore:
    """Transaction lifecycle plus version-chain and map maintenance.

    ``shared`` is the host shared-state accumulator; every installed
    version is appended there and its map deltas staged for propagation.
    ``map_version`` advances whenever ``vid_map`` changes, so a reader can
    tell whether the map changed since it last read it.
    """

    def __init__(self, schema: Schema, shared):
        self.schema = schema
        self.shared = shared
        self._next_txid = 1
        self.in_flight: set = set()
        self._finished: dict = {}          # txid -> "committed" | "aborted"
        self.vid_map: dict = {}            # vid -> ChainNode (chain head)
        self.map_version = 0               # advanced by every change to vid_map
        self._tx_writes: dict = {}         # txid -> {vid: packed rid of its last version}
        self.op_count = 0                  # host-work counter (OLTP operations)

    # -- transaction lifecycle -------------------------------------------

    def begin_tx(self) -> int:
        t = self._next_txid
        self._next_txid += 1
        self.in_flight.add(t)
        self._tx_writes[t] = {}
        self.op_count += 1
        return t

    def _require_active(self, t: int):
        if t in self.in_flight:
            return
        if t in self._finished:
            raise AlreadyFinished(f"tx {t} already {self._finished[t]}")
        raise UnknownTx(f"tx {t} was never begun")

    def commit_tx(self, t: int):
        self._require_active(t)
        self.in_flight.discard(t)
        self._finished[t] = "committed"
        del self._tx_writes[t]
        self.op_count += 1

    def abort_tx(self, t: int):
        """Roll each vid ``t`` wrote back to the version ``t`` replaced: the head
        is ``t``'s last version, as no other writer stacks on it."""
        self._require_active(t)
        vid_map = self.vid_map
        for vid in self._tx_writes[t]:
            pred = vid_map[vid].pred
            if pred is None:
                del vid_map[vid]
            else:
                vid_map[vid] = pred
            self.shared.stage_vid_delta(vid, RID_NONE if pred is None else pred.rid)
        self.map_version += 1
        self.in_flight.discard(t)
        self._finished[t] = "aborted"
        del self._tx_writes[t]
        self.op_count += 1

    # -- version installation ---------------------------------------------

    def install_version(self, t: int, vid: int, values) -> int:
        """Encode a new version for ``vid`` and link it as the chain head:
        the one-row case of ``install_versions``."""
        return self.install_versions(t, [vid], [values])[0]

    def install_versions(self, t: int, vids, rows) -> list:
        """Encode a new version of ``vids[k]`` with values ``rows[k]`` for
        each k and link each as its chain head; returns their packed rids.

        The result is that of one ``install_version`` per row, in order.
        A new version's predecessor is the current head; a re-update by the
        same transaction bypasses its own earlier version, so creation
        timestamps stay strictly decreasing along the chain and a version
        never points at another of the same batch.  A head newer than ``t``
        or created by another transaction in flight is a ``StaleWrite``,
        ``vids`` and ``rows`` of other lengths a ``LengthMismatch``, and a
        vid that is not an int in [0, 2**64) (a bool included) an
        ``InvalidVid``.  Every header is computed and every record encoded
        before any state changes, so a bad value or a ``StaleWrite``
        changes nothing.
        """
        self._require_active(t)
        if len(vids) != len(rows):
            raise LengthMismatch(f"{len(vids)} vids for {len(rows)} rows")
        if vids and (set(map(type, vids)) != {int} or min(vids) < 0 or max(vids) >= VID_LIMIT):
            bad = next(vid for vid in vids if type(vid) is not int or not 0 <= vid < VID_LIMIT)
            raise InvalidVid(f"vid {bad!r} is not an int in [0, 2**64)")
        vid_map, in_flight = self.vid_map, self.in_flight
        preds = []
        for vid in vids:
            pred = vid_map.get(vid)
            if pred is not None:
                if pred.create_ts == t:
                    pred = pred.pred           # same-tx re-update: bypass own version
                elif t < pred.create_ts or pred.create_ts in in_flight:
                    raise StaleWrite(f"tx {t} may not write over tx {pred.create_ts}'s vid {vid}")
            preds.append(pred)
        tombstones = list(map(is_, rows, repeat(TOMBSTONE)))
        if any(tombstones):
            rows = [None if dead else values for dead, values in zip(tombstones, rows)]
        records = encode_versions(
            self.schema, vids, [t] * len(vids),
            [RID_NONE if pred is None else pred.rid for pred in preds], tombstones, rows)
        rids = []
        try:
            self.shared.append_records(records, vids, rids)
        finally:              # link what was placed, even if a propagation failed
            vid_map.update(zip(vids, map(ChainNode, rids, repeat(t), tombstones, preds)))
            self.map_version += 1
            self._tx_writes[t].update(zip(vids, rids))
            self.op_count += len(rids)
        return rids

    def delete_version(self, t: int, vid: int) -> int:
        return self.install_version(t, vid, TOMBSTONE)

    # -- snapshots ----------------------------------------------------------

    def snapshot_descriptor(self, caller: int) -> SnapshotDescriptor:
        return SnapshotDescriptor(caller, frozenset(self.in_flight))

    def chain_rids(self, vid: int) -> list:
        out = []
        node = self.vid_map.get(vid)
        while node is not None:
            out.append(node.rid)
            node = node.pred
        return out
