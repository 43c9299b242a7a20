"""Differential tests of a refresh's shortcuts against the full walk.

A refresh walks only its candidates (``engine.refresh_candidates``): the
vids a propagation changed after the handle's snapshot and those its last
walk left behind a head it could not see.  Of those, it settles a tuple
without walking its chain when the tuple's head in the frozen map is the
version the handle holds: the page is resolved, but no slot is read and no
header probed.  Twin systems built from the same seed run the same
history and refresh in two ways:

* the settled walk against ``pe_visibility_check`` without held rids, the
  path a first materialization takes, both over the candidates;
* the candidate walk against a refresh with every map vid as a candidate,
  both with the settled walk.

Histories hold committed updates, deletes, inserts and re-inserts after a
tombstone; aborted writes, whose heads roll back to the version they
replaced; a newer writer refused over an older one's uncommitted versions,
which writes once the older aborts; writers in flight at one refresh and
ended before the next, or in flight at both, whose tuples no other write
touches; and merges of the delta pages to cold NVM between refreshes, so
settled tuples sit in DDR and in NVM.  After every refresh both twins must have walked out the
same changed rows, removed vids and unsettled vids and hold the same
handle, and the view must equal the oracle's.  Against the settled walk,
the full walk must have charged exactly one slot read and one header probe
more per settled tuple (two NVM reads per settled cold tuple) and nothing
else.  Against the candidate walk, the full walk must have charged exactly
what it charges the tuples that are no candidate, and the candidate walk
its reads of the change log.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtsim import engine
from ndtsim.columns import canonical_compare
from ndtsim.delta import compact, masked_view
from ndtsim.device import REGION_NVM, REGIONS, REQUESTER_COORD, DeviceConfig, op_total
from ndtsim.errors import StaleWrite
from ndtsim.host import HostSystem
from ndtsim.layout import RID_NONE
from ndtsim.mvcc import TOMBSTONE

OPS = ("update", "delete", "insert", "reinsert", "abort", "refused")
NVM = REGIONS.index(REGION_NVM)
CFG = DeviceConfig(ddr_capacity_pages=512, nvm_capacity_pages=2048)
SETTLED_WALK = engine.pe_visibility_check
CANDIDATES = engine.refresh_candidates


def full_walk(device, pe, vids, heads, snap, l2p, held=None):
    """``pe_visibility_check`` without held rids: every chain is walked."""
    return SETTLED_WALK(device, pe, vids, heads, snap, l2p)


def counting_walk(settled: dict):
    """``pe_visibility_check`` that adds, per PE, the tuples whose head is the
    held rid and those of them in NVM to ``settled`` (pe -> [tuples, in NVM]);
    ``pe`` is one PE per tuple."""
    def call(device, pe, vids, heads, snap, l2p, held=None):
        if held is not None:
            hit = (heads == held) & (heads != RID_NONE)
            region, _ = l2p.resolve(heads[hit] >> np.uint64(16))
            for one in np.unique(pe[hit]).tolist():
                mine = pe[hit] == one
                counts = settled.setdefault(one, [0, 0])
                counts[0] += int(mine.sum())
                counts[1] += int((mine & (region == NVM)).sum())
        return SETTLED_WALK(device, pe, vids, heads, snap, l2p, held)
    return call


def assert_moved(full, skipping, settled: dict):
    """The full walk's ledger holds one slot read and one header probe more per
    settled tuple, so 8 bytes, and two NVM reads per settled cold tuple; every
    other counter and op is the same."""
    moved = {name: 0 for name in full.counters()}
    moved.update(device_internal_bytes_read=8 * sum(k for k, _ in settled.values()),
                 nvm_reads=2 * sum(nvm for _, nvm in settled.values()))
    assert {name: full.counters()[name] - value
            for name, value in skipping.counters().items()} == moved
    assert full.pe_ops.keys() == skipping.pe_ops.keys()
    for pe, ops in full.pe_ops.items():
        skip = settled.get(pe, [0])[0]
        assert skipping.pe_ops[pe].keys() <= ops.keys()
        assert {op: n - skipping.pe_ops[pe].get(op, 0) for op, n in ops.items()} == \
            {op: skip if op in ("slot", "probe") else 0 for op in ops}


def all_candidates(handle, inv, device):
    """Every vid of the frozen map: a refresh's full walk."""
    return inv.vid_view["vid"]


def recording_candidates(left_out: dict):
    """``refresh_candidates`` that adds to ``left_out`` what the full walk
    charges the map's tuples that are no candidate: per PE, one map entry,
    one index probe and one page resolution each, and one slot read and one
    header probe (two NVM reads when cold) each whose head is not the held
    rid, i.e. a visible tombstone; and, for the coordinator, the log entries
    the candidate walk reads."""
    def call(handle, inv, device):
        logged = op_total(device.ledger, "log_entry")
        candidates = CANDIDATES(handle, inv, device)
        coord = left_out.setdefault(REQUESTER_COORD, Counter())
        coord["log_entry"] += op_total(device.ledger, "log_entry") - logged
        vids, heads = inv.vid_view["vid"], inv.vid_view["head"]
        rows = np.flatnonzero(~np.isin(vids, candidates))
        walked = heads[rows] != handle.index.rids_of(vids[rows])
        region, _ = inv.l2p_view.resolve(heads[rows] >> np.uint64(16))
        for pe in range(inv.pe_count):
            mine = rows % inv.pe_count == pe
            ops = left_out.setdefault(pe, Counter())
            ops.update(dict.fromkeys(("vid_entry", "index_probe", "l2p"), int(mine.sum())))
            ops.update(dict.fromkeys(("slot", "probe"), int((mine & walked).sum())))
            ops["nvm_reads"] += 2 * int((mine & walked & (region == NVM)).sum())
        return candidates
    return call


def assert_left_out(full, candidate, left_out: dict):
    """The full walk's ledger holds, per PE, the charges ``left_out`` counts
    more: 8 + 8 + 4 bytes per tuple, 4 + 4 bytes and its NVM reads per
    walked one; the candidate walk's holds the coordinator's ``log_entry``
    reads more, 8 bytes each.  Every other counter and op is the same."""
    pes = [pe for pe in left_out if pe != REQUESTER_COORD]
    moved = {name: 0 for name in full.counters()}
    moved.update(
        device_internal_bytes_read=sum(20 * left_out[pe]["vid_entry"] + 8 * left_out[pe]["slot"]
                                       for pe in pes)
        - 8 * left_out[REQUESTER_COORD]["log_entry"],
        nvm_reads=sum(left_out[pe]["nvm_reads"] for pe in pes))
    assert {name: full.counters()[name] - value
            for name, value in candidate.counters().items()} == moved
    for pe in full.pe_ops.keys() | candidate.pe_ops.keys():
        ops = full.pe_ops.get(pe, {})
        mine = candidate.pe_ops.get(pe, {})
        want = {op: n for op, n in left_out.get(pe, {}).items() if op != "nvm_reads"}
        if pe == REQUESTER_COORD:
            want = {"log_entry": -want.get("log_entry", 0)}
        assert {op: ops.get(op, 0) - mine.get(op, 0) for op in ops.keys() | mine.keys()
                if ops.get(op, 0) != mine.get(op, 0)} == {op: n for op, n in want.items() if n}


class Twins:
    """Two systems from one seed that see the same history.  With
    ``candidates`` False, ``settled`` refreshes as the engine does and
    ``full`` walks every chain of the candidates; with it True, ``settled``
    refreshes as the engine does and ``full`` takes every map vid as a
    candidate."""

    def __init__(self, seed: int, rows: int, pe_count: int, candidates: bool = False):
        self.rng = random.Random(seed)
        self.settled, self.full = HostSystem(CFG), HostSystem(CFG)
        self.values = self.settled.load_orderlines(rows, seed=seed)
        assert self.full.load_orderlines(rows, seed=seed) == self.values
        self.live, self.deleted = sorted(self.values), []
        self.writers = []                       # [refreshes left to live, txids, commit?]
        self.candidates = candidates
        self.moved = {}                         # pe -> [settled tuples, settled in NVM]
        self.left_out = {}                      # pe -> Counter of charges (recording_candidates)
        self.walked = []                        # (removed, [changed rows per job]) per twin
        self.handles = [system.transform_snapshot(pe_count=pe_count)[1]
                        for system in self.systems]

    @property
    def systems(self):
        return self.settled, self.full

    # -- history -------------------------------------------------------------

    def _row(self, vid):
        row = self.values[vid]
        return row[:6] + (self.rng.randint(1, 10),) + row[7:]

    def _begin(self, vids, rows):
        txids = []
        for system in self.systems:
            t = system.store.begin_tx()
            system.store.install_versions(t, vids, rows)
            txids.append(t)
        return txids

    def _end(self, txids, commit: bool):
        for system, t in zip(self.systems, txids):
            (system.store.commit_tx if commit else system.store.abort_tx)(t)

    def _new_vid(self):
        [vid] = self.settled.new_vids(1)
        assert self.full.new_vids(1) == [vid]
        return vid

    def _pick(self, pool, count):
        """Up to ``count`` vids of ``pool`` that no writer in flight holds."""
        store = self.settled.store
        free = [vid for vid in pool if vid not in store.vid_map
                or store.vid_map[vid].create_ts not in store.in_flight]
        return self.rng.sample(free, min(count, len(free)))

    def apply(self, op: str, count: int):
        """One committed or aborted transaction of kind ``op``."""
        if op == "update" or op == "abort":
            vids = self._pick(self.live, count)
            rows = [self._row(vid) for vid in vids]
            self._end(self._begin(vids, rows), commit=op == "update")
        elif op == "delete":
            vids = self._pick(self.live, count)
            self._end(self._begin(vids, [TOMBSTONE] * len(vids)), commit=True)
            self.live = [vid for vid in self.live if vid not in vids]
            self.deleted += vids
        elif op == "reinsert":
            vids = self._pick(self.deleted, count)
            self._end(self._begin(vids, [self._row(vid) for vid in vids]), commit=True)
            self.deleted = [vid for vid in self.deleted if vid not in vids]
            self.live += vids
        elif op == "insert":
            template = self.values[self.rng.choice(sorted(self.values))]
            vids = [self._new_vid() for _ in range(count)]
            self.values.update((vid, template) for vid in vids)
            self._end(self._begin(vids, [template] * count), commit=True)
            self.live += vids
        else:                                   # refused until the older writer aborts
            vids = self._pick(self.live, count)
            older = self._begin(vids, [self._row(vid) for vid in vids])
            newer = [system.store.begin_tx() for system in self.systems]
            rows = [self._row(vid) for vid in vids]
            for system, t in zip(self.systems, newer):
                if vids:
                    with pytest.raises(StaleWrite):
                        system.store.install_versions(t, vids, rows)
            self._end(older, commit=False)
            for system, t in zip(self.systems, newer):
                system.store.install_versions(t, vids, rows)
            self._end(newer, commit=self.rng.random() < 0.5)

    def leave_in_flight(self, refreshes: int, commit: bool):
        """A writer that updates, deletes and inserts, and ends after ``refreshes``
        more refreshes."""
        vids = self._pick(self.live, 4)
        rows = [TOMBSTONE] + [self._row(vid) for vid in vids[1:]] if vids else []
        vid = self._new_vid()
        self.values[vid] = self.values[self.rng.choice(sorted(self.values))]
        self.writers.append([refreshes, self._begin(vids + [vid], rows + [self.values[vid]]),
                             commit])

    def merge_to_cold(self):
        for system in self.systems:
            system.merge_to_cold()

    def compact(self):
        for handle in self.handles:
            compact(handle)

    # -- refresh and checks ---------------------------------------------------

    def _recording(self, walk):
        def call(jobs, inv, device, held, probe):
            walked = walk(jobs, inv, device, held, probe)
            self.walked.append(walked)
            return walked
        return call

    def _patches(self):
        """Per twin, the engine functions its refresh replaces."""
        if self.candidates:
            return ({"refresh_candidates": recording_candidates(self.left_out)},
                    {"refresh_candidates": all_candidates})
        return ({"pe_visibility_check": counting_walk(self.moved)},
                {"pe_visibility_check": full_walk})

    def refresh(self, pe_count: int):
        self.walked = []
        for system, handle, patches in zip(self.systems, self.handles, self._patches()):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "walk", self._recording(engine.walk))
                for name, replacement in patches.items():
                    patch.setattr(engine, name, replacement)
                system.delta_refresh(handle, pe_count=pe_count)
        for writer in self.writers:
            writer[0] -= 1
            if not writer[0]:
                self._end(writer[1], writer[2])
        self.writers = [writer for writer in self.writers if writer[0]]
        self.check()

    def check(self):
        (changed, removed, hidden), (full_changed, full_removed, full_hidden) = self.walked
        assert np.array_equal(removed, full_removed)
        assert np.array_equal(hidden, full_hidden)
        for column, full_column in zip(changed, full_changed):
            assert np.array_equal(column, full_column)

        settled, full = self.handles
        assert settled.snapshot == full.snapshot
        assert np.array_equal(settled.unsettled, full.unsettled)
        assert settled.column_bytes == full.column_bytes
        assert np.array_equal(settled.current, full.current)
        for column, full_column in zip(settled.index, full.index):
            assert np.array_equal(column, full_column)
        view = masked_view(settled).sorted_by_vid()
        same = canonical_compare(view, masked_view(full).sorted_by_vid())
        assert same.equal, same.reason
        expected = self.settled.oracle_column_set(settled.snapshot, settled.projection)
        same = canonical_compare(view, expected.sorted_by_vid())
        assert same.equal, same.reason
        if self.candidates:
            assert_left_out(self.full.device.ledger, self.settled.device.ledger, self.left_out)
        else:
            assert_moved(self.full.device.ledger, self.settled.device.ledger, self.moved)


def _run_history(twins, data):
    """Rounds of drawn transactions, merges and writers left in flight, each
    ended by a refresh and some by a compaction."""
    for _ in range(data.draw(st.integers(1, 5))):
        for op in data.draw(st.lists(st.sampled_from(OPS), max_size=5)):
            twins.apply(op, data.draw(st.integers(1, 6)))
        if data.draw(st.booleans()):
            twins.merge_to_cold()
        life = data.draw(st.integers(0, 2))
        if life:
            twins.leave_in_flight(life, commit=data.draw(st.booleans()))
        twins.refresh(data.draw(st.integers(1, 4)))
        if data.draw(st.integers(0, 3)) == 0:
            twins.compact()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_settled_walk_equals_full_walk(seed, data):
    _run_history(Twins(seed, data.draw(st.integers(20, 120)), data.draw(st.integers(1, 4))),
                 data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_candidate_walk_equals_full_walk(seed, data):
    _run_history(Twins(seed, data.draw(st.integers(20, 120)), data.draw(st.integers(1, 4)),
                       candidates=True), data)


def test_a_fixed_history_settles_in_both_regions():
    """Every kind of step at least once; settled tuples in DDR and in NVM."""
    twins = Twins(seed=7, rows=200, pe_count=4)
    for op in OPS:
        twins.apply(op, 5)
    twins.leave_in_flight(2, commit=True)          # in flight at two refreshes
    twins.refresh(3)
    for op in ("refused", "update", "reinsert"):
        twins.apply(op, 5)
    twins.leave_in_flight(1, commit=False)         # in flight at the new snapshot only
    twins.merge_to_cold()
    twins.refresh(4)                                # the first writer ends after it
    twins.compact()
    twins.apply("delete", 5)
    twins.refresh(2)                                # the second writer was in flight at the old
    settled = sum(count for count, _ in twins.moved.values())
    cold = sum(nvm for _, nvm in twins.moved.values())
    assert 0 < cold < settled, "settled tuples in NVM and in DDR"


def test_a_fixed_history_leaves_out_settled_tuples_and_tombstones():
    """A writer in flight at two refreshes commits before a third, which
    walks its tuples though no map entry changed; deleted tuples left out
    of a later refresh are visible tombstones in NVM."""
    twins = Twins(seed=7, rows=200, pe_count=4, candidates=True)
    for op in OPS:
        twins.apply(op, 5)
    twins.leave_in_flight(2, commit=True)
    twins.refresh(3)
    assert [len(handle.unsettled) for handle in twins.handles] == [5, 5]
    twins.apply("delete", 5)
    twins.apply("update", 5)
    twins.merge_to_cold()
    twins.refresh(4)                                # the writer commits after it
    twins.compact()
    twins.apply("update", 5)
    twins.refresh(2)
    assert [len(handle.unsettled) for handle in twins.handles] == [0, 0]
    pes = [ops for pe, ops in twins.left_out.items() if pe != REQUESTER_COORD]
    assert sum(ops["vid_entry"] for ops in pes) > 0
    assert sum(ops["slot"] for ops in pes) == 5
    assert sum(ops["nvm_reads"] for ops in pes) == 10
