"""The row generator against its stdlib reference, and the config it refuses.

``ndtsim.host`` draws the order-line rows from a bound ``getrandbits`` with
CPython's rejection loop inlined, not from ``randint``, ``randrange`` and
``choices`` one call per value, and decodes each row's ``ol_dist_info``
letters from the words one ``getrandbits(64 * n)`` takes, where ``choices``
took them, with ``random()``'s float arithmetic.  A seed's rows are
fingerprinted (result digests, setup ledgers), so the generator must make
the very draws of ``reference_rows``, in the same order: the same rows, vids
and shadows, and the same end state (every chain, every page byte, the
device mirrors, the ledger and the generator's own state) over seeds, sizes
and mixes.
"""

import math
import operator
import random
import string
from itertools import repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_rows
from ndtsim.errors import InvalidConfig
from ndtsim.host import (HostSystem, WorkloadConfig, WorkloadDriver, dist_strings, randbelow,
                         random_rows)


def end_state(system: HostSystem, shadow: dict) -> dict:
    """Everything a run leaves behind, as plain comparable values."""
    chains = {}
    for vid, node in system.store.vid_map.items():
        chain = []
        while node is not None:
            chain.append((node.rid, node.create_ts, node.tombstone))
            node = node.pred
        chains[vid] = chain
    shared, device = system.shared, system.device
    return {
        "shadow": repr(sorted(shadow.items())),     # repr: a Decimal's exponent too
        "chains": chains,
        "pages": {lid: (loc, bytes(shared.page_image(lid))) for lid, loc in shared.l2p.items()},
        "staged": (shared._staged_vids, shared._staged_heads, shared.size_bytes),
        "vid_map": device.vid_map.tobytes(),
        "l2p": [column.tobytes() for column in device.l2p],
        "ledger": device.ledger.snapshot(),
        "counters": (system._next_vid, system._next_order, system.store.op_count,
                     system.store._next_txid, shared.propagation_count),
    }


def _loaded(rows, seed, null_delivery_rate, capacity=None):
    """A system loaded by ``load_orderlines``, and its twin loaded by the reference."""
    kwargs = {} if capacity is None else {"shared_capacity": capacity}
    system, twin = HostSystem(**kwargs), HostSystem(**kwargs)
    shadow = system.load_orderlines(rows, seed=seed, null_delivery_rate=null_delivery_rate)
    assert reference_rows.load_orderlines(twin, rows, seed=seed,
                                          null_delivery_rate=null_delivery_rate) == shadow
    return system, twin, shadow


@pytest.mark.parametrize("rows", [0, 1, 999, 1000, 1001, 2345])
@pytest.mark.parametrize("seed, null_delivery_rate", [(1, 0.08), (2, 0.0), (3, 1.0), (4, 0.5)])
def test_load_makes_the_reference_rows(rows, seed, null_delivery_rate):
    system, twin, shadow = _loaded(rows, seed, null_delivery_rate)
    assert end_state(system, shadow) == end_state(twin, shadow)
    assert sorted(shadow) == list(range(1, rows + 1))


def test_the_shadow_and_the_chains_share_each_vid():
    """One int object per vid, not one per structure that holds it: 30k rows
    of distinct ints would add ~0.8 MiB to every loaded table."""
    system = HostSystem()
    shadow = system.load_orderlines(1500, seed=6)
    WorkloadDriver(system, WorkloadConfig(seed=6), shadow).run(50)
    live = [vid for vid in system.store.vid_map if vid in shadow]
    assert len(live) == len(shadow) and all(map(operator.is_, shadow, live))


def _run_both(cfg: WorkloadConfig, rows=300, load_seed=5, steps=200, null_delivery_rate=0.3):
    system, twin, shadow = _loaded(rows, load_seed, null_delivery_rate, capacity=64 * 1024)
    driver = WorkloadDriver(system, cfg, dict(shadow))
    reference = reference_rows.ReferenceDriver(twin, cfg, dict(shadow))
    for _ in range(steps):
        driver.step()
        reference.step()
    assert driver.rng.getstate() == reference.rng.getstate()     # the same draws, no more
    assert driver.report == reference.report
    assert end_state(system, driver.shadow) == end_state(twin, reference.shadow)
    return driver


MIXES = {
    "default": WorkloadConfig(seed=11),
    "aborts": WorkloadConfig(seed=12, abort_fraction=0.3),
    "all aborted": WorkloadConfig(seed=13, abort_fraction=1.0),
    "one warehouse": WorkloadConfig(seed=14, warehouses=1),
    "two warehouses": WorkloadConfig(seed=15, warehouses=2),
    "three warehouses": WorkloadConfig(seed=16, warehouses=3),
    "1000 warehouses": WorkloadConfig(seed=17, warehouses=1000),
    "one line": WorkloadConfig(seed=18, min_lines=1, max_lines=1),
    "seven lines": WorkloadConfig(seed=19, min_lines=7, max_lines=7),
    "new orders only": WorkloadConfig(seed=20, new_order_weight=1.0, delivery_weight=0.0,
                                      delete_weight=0.0, amount_update_weight=0.0),
    "deliveries only": WorkloadConfig(seed=21, new_order_weight=0.0, delivery_weight=1.0,
                                      delete_weight=0.0, amount_update_weight=0.0),
    "deletes and updates": WorkloadConfig(seed=22, new_order_weight=0.0, delivery_weight=0.0,
                                          delete_weight=0.5, amount_update_weight=0.5,
                                          abort_fraction=0.2),
    "even mix": WorkloadConfig(seed=23, new_order_weight=1, delivery_weight=1,
                               delete_weight=1, amount_update_weight=1, abort_fraction=0.1,
                               min_lines=2, max_lines=40, warehouses=7),
}


@pytest.mark.parametrize("name", MIXES)
def test_steps_make_the_reference_draws(name):
    _run_both(MIXES[name])


def test_steps_from_an_empty_table_make_the_reference_draws():
    cfg = WorkloadConfig(seed=24, new_order_weight=0.0, delivery_weight=0.5,
                         delete_weight=0.5, amount_update_weight=0.0, abort_fraction=0.5)
    _run_both(cfg, rows=0, steps=150)


@pytest.mark.parametrize("name", ["default", "aborts", "new orders only", "even mix"])
def test_bulk_bookkeeping_equals_the_per_vid_reference_over_2000_steps(name):
    """A committed new order adds its vids to the shadow, ``live`` and
    ``undelivered`` in bulk; the reference adds them one vid at a time.
    Both orders of the sets' items, and every draw, stay the same."""
    system, twin, shadow = _loaded(300, 5, 0.3, capacity=64 * 1024)
    driver = WorkloadDriver(system, MIXES[name], dict(shadow))
    reference = reference_rows.ReferenceDriver(twin, MIXES[name], dict(shadow))
    for _ in range(2000):
        driver.step()
        reference.step()
    assert driver.shadow == reference.shadow
    assert repr(driver.shadow) == repr(reference.shadow)        # insertion order too
    assert driver.live.items == reference.live.items
    assert driver.undelivered.items == reference.undelivered.items
    assert driver.report == reference.report
    assert driver.rng.getstate() == reference.rng.getstate()
    assert driver.report.new_vids > 1000


def test_every_delivery_runs_out_of_undelivered_rows():
    cfg = WorkloadConfig(seed=25, new_order_weight=0.0, delivery_weight=1.0,
                         delete_weight=0.0, amount_update_weight=0.0, abort_fraction=0.0)
    driver = _run_both(cfg, rows=40, steps=120, null_delivery_rate=1.0)
    assert not driver.undelivered.items


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32), load_seed=st.integers(0, 2**32),
       rows=st.integers(0, 400), steps=st.integers(0, 120),
       weights=st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any),
       lines=st.tuples(st.integers(1, 20), st.integers(0, 20)),
       warehouses=st.sampled_from([1, 2, 3, 4, 10, 255, 256, 1000, 2**31 - 1]),
       abort_fraction=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
       null_delivery_rate=st.sampled_from([0.0, 0.08, 1.0]))
def test_random_mixes_make_the_reference_draws(seed, load_seed, rows, steps, weights, lines,
                                               warehouses, abort_fraction,
                                               null_delivery_rate):
    min_lines, extra = lines
    cfg = WorkloadConfig(seed=seed, new_order_weight=weights[0], delivery_weight=weights[1],
                         delete_weight=weights[2], amount_update_weight=weights[3],
                         min_lines=min_lines, max_lines=min_lines + extra,
                         abort_fraction=abort_fraction, warehouses=warehouses)
    _run_both(cfg, rows=rows, load_seed=load_seed, steps=steps,
              null_delivery_rate=null_delivery_rate)


@pytest.mark.parametrize("width", [1, 2, 3, 10, 17, 999_999, 2**32, 2**32 + 1, 2**64 - 1])
def test_randbelow_is_the_stdlib_draw(width):
    rng, twin = random.Random(width), random.Random(width)
    assert [randbelow(rng.getrandbits, width) for _ in range(300)] == \
        [twin.randrange(width) for _ in range(300)]
    assert rng.getstate() == twin.getstate()


def _boundary_mantissas() -> list:
    """The 53-bit ``m`` of ``random() == m / 2**53`` within 40 of each letter
    boundary ``k * 2**53 / 26``, where float and integer floors part."""
    return [m for k in range(1, 26) for m in range((k << 53) // 26 - 40, (k << 53) // 26 + 41)]


@pytest.mark.parametrize("low_bits", [0, 1], ids=["low bits clear", "low bits set"])
def test_the_letter_decode_is_random_s_float_at_every_boundary(low_bits):
    """``dist_strings`` picks ``floor(random() * 26.0)`` of the two words
    ``random()`` takes: ``a`` keeps its top 27 bits, ``b`` its top 26.  The
    bits each shift drops must not count, and the integer floor
    ``(m * 26) >> 53`` is not the same letter next to a boundary."""
    mantissas = _boundary_mantissas()
    a = [(m >> 26) << 5 | 31 * low_bits for m in mantissas]
    b = [(m & (2**26 - 1)) << 6 | 63 * low_bits for m in mantissas]
    chunk = np.array([a, b], "<u4").T.tobytes()
    expected = [math.floor(((x >> 5) * 67108864.0 + (y >> 6)) * (1.0 / 9007199254740992.0)
                           * 26.0) for x, y in zip(a, b)]
    assert dist_strings(chunk, [len(mantissas)]) == \
        ["".join(map(string.ascii_lowercase.__getitem__, expected))]
    assert [(m * 26) >> 53 for m in mantissas] != expected
    assert expected[mantissas.index(1732153702834806)] == 5      # the product rounds up
    assert (1732153702834806 * 26) >> 53 == 4


def test_the_letter_decode_is_choices_on_the_same_words():
    """Chunks of 8 to 24 letters, each ``getrandbits(64 * n)`` as a row draws
    it, against ``choices`` on a twin generator, one string at a time."""
    sizes = list(map(random.Random(2).randint, repeat(8, 300), repeat(24)))
    rng, twin = random.Random(3), random.Random(3)
    words = b"".join(rng.getrandbits(64 * n).to_bytes(8 * n, "little") for n in sizes)
    assert dist_strings(words, sizes) == ["".join(twin.choices(string.ascii_lowercase, k=n))
                                          for n in sizes]
    assert rng.getstate() == twin.getstate() and dist_strings(b"", []) == []


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("null_delivery_rate", [None, 0.5])
def test_random_rows_of_one_row_and_of_none_are_the_reference_draws(rows, null_delivery_rate):
    for seed in range(20):
        rng, twin = random.Random(seed), random.Random(seed)
        made = random_rows(rng, zip(range(7, 7 + rows), repeat(1)), 3, null_delivery_rate)
        expected = []
        for order in range(7, 7 + rows):
            delivered = None
            if null_delivery_rate is not None and twin.random() >= null_delivery_rate:
                delivered = reference_rows.random_delivery(twin)
            expected.append(reference_rows.random_row(twin, order, 1, 3, delivered))
        assert made == expected
        assert rng.getstate() == twin.getstate()


# A config no driver can draw from is refused up front: the inlined
# rejection loop would spin forever on an empty range, where ``randint``
# raised a bare ValueError.
BAD_CONFIGS = {
    "no warehouse": {"warehouses": 0},
    "negative warehouses": {"warehouses": -3},
    "warehouses past Int32": {"warehouses": 2**31},
    "no line": {"min_lines": 0, "max_lines": 0},
    "negative lines": {"min_lines": -1},
    "min above max": {"min_lines": 9, "max_lines": 8},
    "negative weight": {"delete_weight": -0.01},
    "all weights 0": {"new_order_weight": 0.0, "delivery_weight": 0.0, "delete_weight": 0.0,
                      "amount_update_weight": 0},
    "NaN weight": {"delivery_weight": float("nan")},
    "infinite weight": {"new_order_weight": float("inf")},
    "abort below 0": {"abort_fraction": -0.1},
    "abort above 1": {"abort_fraction": 1.5},
    "NaN abort": {"abort_fraction": float("nan")},
    "float lines": {"max_lines": 15.0},
    "bool warehouses": {"warehouses": True},
    "string weight": {"delivery_weight": "0.4"},
}


@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_a_bad_config_is_refused_before_any_draw(name):
    system = HostSystem()
    shadow = system.load_orderlines(20, seed=1)
    ops = system.store.op_count
    with pytest.raises(InvalidConfig):
        WorkloadDriver(system, WorkloadConfig(seed=1, **BAD_CONFIGS[name]), shadow)
    assert system.store.op_count == ops
