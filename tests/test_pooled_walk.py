"""The pooled visibility walk against a walk of each PE's slice on its own.

An invocation walks all its tuples as one frontier, one PE per tuple.  The
reference calls ``pe_visibility_check`` once per PE slice with that one PE.
Histories hold tombstones, chains of several versions, writers left in
flight and pages in both regions; the walked heads span DDR and NVM, so
one step reads slots of both.  Held rids settle some tuples in the first
step, and a refresh's candidates leave some rows out.  Both walks must
return the same arrays, and charge every PE the same.

A fault is raised by the pooled walk at its earliest faulty step, so where
two PEs meet unresolvable pages it can name another vid than the PE-by-PE
walk did; a fixed test pins which.
"""

import random
import struct
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ndtsim.device import REQUESTER_COORD, TransferLedger
from ndtsim.engine import pe_visibility_check, run_invocation, schedule
from ndtsim.errors import DanglingReference
from ndtsim.layout import (
    PAGE_SIZE,
    PRED_OFFSET,
    RID_NONE,
    RecordID,
    pack_rid,
    page_slot_entry_at,
    unpack_rid,
)
from conftest import Harness, page_of
from test_visibility_walk import SCHEMA, _random_history


def _charged(run) -> tuple:
    """What ``run()`` returns, and per requester the non-zero ops and
    counters its ledger charges add."""
    charged = defaultdict(Counter)
    charge = TransferLedger.charge

    def recording(self, requester, op=None, count=1, **counters):
        ops = (op,) if type(op) is str else op or ()
        charged[requester].update(dict.fromkeys(ops, count))
        charged[requester].update(counters)
        return charge(self, requester, op, count, **counters)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransferLedger, "charge", recording)
        out = run()
    return out, {requester: +amounts for requester, amounts in charged.items()}


def _held(store, vids, rng: random.Random) -> np.ndarray:
    """Per vid a held rid: none, the head (settled), an older version or a
    rid no version has."""
    held = []
    for vid in vids.tolist():
        chain = store.chain_rids(vid)
        held.append(rng.choice([RID_NONE, chain[0], chain[-1], pack_rid(RecordID(1, 999))]))
    return np.array(held, dtype=np.uint64)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), pe_count=st.integers(1, 8), halfway=st.booleans(),
       candidate_share=st.sampled_from([None, 0.3, 0.8]))
def test_the_pooled_walk_matches_a_walk_per_pe(seed, pe_count, halfway, candidate_share):
    h, middle = _random_history(seed, steps=300)
    inv = h.prepare(pe_count=pe_count, pages=1, caller=middle if halfway else None)
    rng = random.Random(seed)
    vids = inv.vid_view["vid"]
    candidates = None if candidate_share is None else np.sort(np.array(
        rng.sample(vids.tolist(), int(candidate_share * len(vids))), dtype=np.uint64))
    _caps, rows = schedule(inv, h.device, candidates)
    held = _held(h.store, rows.vids, rng)
    walked = rows.heads != held
    regions, _ = inv.l2p_view.resolve(rows.heads[walked] >> np.uint64(16))
    assume(set(regions.tolist()) == {0, 1})         # the first step reads both regions

    pooled, pooled_charges = _charged(lambda: pe_visibility_check(
        h.device, rows.pes, rows.vids, rows.heads, inv.descriptor, inv.l2p_view, held))

    def per_pe():
        out = []
        for pe in range(pe_count):
            mine = rows.pes == pe
            out.append(pe_visibility_check(h.device, pe, rows.vids[mine], rows.heads[mine],
                                           inv.descriptor, inv.l2p_view, held[mine]))
        return [np.concatenate(arrays) for arrays in zip(*out)]

    reference, reference_charges = _charged(per_pe)
    for got, want in zip(pooled, reference):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert pooled_charges == reference_charges
    assert set(pooled_charges) == set(np.unique(rows.pes).tolist())


def _unresolvable_pred(h, inv, vid: int):
    """Point the pred of ``vid``'s head record at a page the frozen table
    does not map."""
    head = unpack_rid(h.store.chain_rids(vid)[0])
    region, idx = page_of(inv.l2p_view, head.page_lid)
    base = idx * PAGE_SIZE
    offset, _length = page_slot_entry_at(h.device.peek(region, base, PAGE_SIZE), 0, head.slot)
    nowhere = pack_rid(RecordID(len(inv.l2p_view.regions) + 7, 0))
    h.device.write(region, base + offset + PRED_OFFSET, struct.pack("<Q", nowhere),
                   REQUESTER_COORD)


def test_unresolvable_pages_on_two_pes_name_the_earliest_step():
    """Two PEs; vid 1 is PE 0's and vid 2 PE 1's.  Vid 1's head is a writer's
    in flight, whose pred lies on an unmapped page: the walk meets it in its
    second step.  Vid 2's head lies on an unmapped page: the first step.  The
    pooled walk names vid 2, though PE 0's walk on its own names vid 1; among
    faults of one step, it names the first in table order, PE 0's first."""
    h = Harness(SCHEMA)
    h.install_rows({vid: (vid,) for vid in range(1, 9)})
    writer = h.store.begin_tx()
    h.store.install_version(writer, 1, (-1,))
    inv = h.prepare(pe_count=2, pages=4)
    _unresolvable_pred(h, inv, 1)
    nowhere = pack_rid(RecordID(len(inv.l2p_view.regions) + 3, 0))
    inv.vid_view = inv.vid_view.copy()
    inv.vid_view["head"][inv.vid_view["vid"] == 2] = nowhere
    _caps, rows = schedule(inv, h.device)
    assert rows.vids.tolist() == [1, 3, 5, 7, 2, 4, 6, 8]

    mine = rows.pes == 0
    with pytest.raises(DanglingReference, match="^vid 1:"):
        pe_visibility_check(h.device, 0, rows.vids[mine], rows.heads[mine], inv.descriptor,
                            inv.l2p_view)
    with pytest.raises(DanglingReference, match="^vid 2:"):
        run_invocation(inv, h.device, h.grantor)
    assert h.device.owner_pages(inv.owner) == set()

    # one step: vid 5 (PE 0) comes before vid 2 (PE 1) in table order
    inv = h.prepare(pe_count=2, pages=4)
    inv.vid_view = inv.vid_view.copy()
    inv.vid_view["head"][np.isin(inv.vid_view["vid"], [2, 5])] = nowhere
    with pytest.raises(DanglingReference, match="^vid 5:"):
        run_invocation(inv, h.device, h.grantor)
