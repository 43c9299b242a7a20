"""Golden ledgers: exact device counters for small fixed-seed runs.

Each scenario drives the public host API and pins every ``TransferLedger``
counter plus the per-PE operation counts.  The ledger is the model of the
hardware, so a refactor of the engine must leave these numbers exactly as
they are; a change that moves them changes the device model and must say
so.  The values were recorded once and are never regenerated to make a
change pass.

``delta_refresh`` and ``compact`` were re-recorded twice, each time for a
change of the device model.  First, a refresh no longer read the slot or
probed the header of a settled tuple, one whose map head is the version
the handle holds: each PE's ``slot`` and ``probe`` ops fell by its settled
tuples, the internal bytes read by 8 per settled tuple and the NVM reads
by 2 per settled cold tuple.  Then a refresh walked only its candidates,
the vids the device's change log names since the handle's snapshot and
those the handle's last walk could not see the head of.  Per PE, the
``vid_entry``, ``l2p`` and ``index_probe`` ops fell by the tuples left out
(298, 290, 301 and 295: PE 0 went 662 -> 364, 662 -> 364 and 331 -> 33),
and on PE 2 ``slot`` and ``probe`` fell 361 -> 359 for two deleted tuples,
visible tombstones the walk used to re-walk on every refresh.  The
internal bytes read fell by 20 per tuple left out and 8 per tombstone
(325,858 -> 302,162), the NVM reads by 2 per cold tombstone (4,370 ->
4,366), and the coordinator's reads of the change log added a
``log_entry`` op and 8 bytes for each of the 137 logged vids (302,162 ->
303,258).  Every other counter and op stayed as it was.
``test_refresh_skips_only_the_settled_reads`` pins the second move against
a refresh that takes every map vid as a candidate.
"""

import random

import pytest

from ndtsim import engine
from ndtsim.delta import compact, masked_view
from ndtsim.device import REQUESTER_COORD, DeviceConfig
from ndtsim.engine import MODE_MATERIALIZE, MODE_STREAM
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver
from ndtsim.mvcc import TOMBSTONE
from test_settled_walk import all_candidates, assert_left_out, recording_candidates

PE_COUNT = 4


def _system(rows=600, seed=3, **cfg):
    system = HostSystem(DeviceConfig(**cfg))
    shadow = system.load_orderlines(rows, seed=seed)
    return system, shadow


def _bump_quantity(system, shadow, vids):
    t = system.store.begin_tx()
    for vid in vids:
        old = shadow[vid]
        row = old[:6] + (old[6] + 1,) + old[7:]
        system.store.install_version(t, vid, row)
        shadow[vid] = row
    system.store.commit_tx(t)


def _delete(system, shadow, vids):
    t = system.store.begin_tx()
    for vid in vids:
        system.store.install_version(t, vid, TOMBSTONE)
        shadow.pop(vid)
    system.store.commit_tx(t)


def _materialized():
    system, shadow = _system()
    WorkloadDriver(system, WorkloadConfig(seed=5), shadow).run(120)
    system.merge_to_cold()
    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE, pe_count=PE_COUNT)
    return system, shadow, handle


def scenario_materialize():
    system, _, handle = _materialized()
    assert masked_view(handle).n_rows == handle.visible_rows
    return system


def scenario_stream():
    system, shadow = _system(rows=1500, stream_buffer_bytes=16 * 1024)
    WorkloadDriver(system, WorkloadConfig(seed=6), shadow).run(150)
    writer = system.store.begin_tx()        # in flight across the stream
    for vid in random.Random(8).sample(sorted(shadow), 40):
        old = shadow[vid]
        system.store.install_version(writer, vid, old[:6] + (old[6] + 3,) + old[7:])
    system.transform_snapshot(mode=MODE_STREAM, pe_count=PE_COUNT)
    system.store.abort_tx(writer)
    return system


def _refreshed():
    system, shadow, handle = _materialized()
    rng = random.Random(9)
    vids = sorted(shadow)
    _bump_quantity(system, shadow, rng.sample(vids, len(vids) // 10))
    _delete(system, shadow, rng.sample(sorted(shadow), 6))
    system.merge_to_cold()
    system.delta_refresh(handle, pe_count=PE_COUNT)
    return system, handle


def scenario_delta_refresh():
    system, _ = _refreshed()
    return system


def scenario_compact():
    system, handle = _refreshed()
    compact(handle)
    return system


def scenario_abort_heavy():
    system, shadow = _system(rows=400, seed=4)
    WorkloadDriver(system, WorkloadConfig(seed=11, abort_fraction=0.5), shadow).run(300)
    system.transform_snapshot(mode=MODE_MATERIALIZE, pe_count=PE_COUNT)
    return system


SCENARIOS = {
    "materialize": scenario_materialize,
    "stream": scenario_stream,
    "delta_refresh": scenario_delta_refresh,
    "compact": scenario_compact,
    "abort_heavy": scenario_abort_heavy,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ledger_matches_golden(name):
    ledger = SCENARIOS[name]().device.ledger
    assert ledger.counters() == GOLDEN[name]["counters"]
    assert ledger.pe_ops == GOLDEN[name]["pe_ops"]


@pytest.mark.parametrize("name", ["delta_refresh", "compact"])
def test_refresh_skips_only_the_settled_reads(name, monkeypatch):
    """Full walk minus candidate walk: per tuple left out, one map entry,
    one index probe and one page resolution (20 bytes), and for each of
    them that is a visible tombstone one slot read and one header probe
    more (8 bytes, 2 NVM reads when cold); less the candidate walk's 8-byte
    read of each logged vid.  Every other counter and op of the scenario is
    the same."""
    left_out = {}
    monkeypatch.setattr(engine, "refresh_candidates", recording_candidates(left_out))
    candidate = SCENARIOS[name]().device.ledger
    monkeypatch.setattr(engine, "refresh_candidates", all_candidates)
    full = SCENARIOS[name]().device.ledger
    assert [(left_out[pe]["vid_entry"], left_out[pe]["slot"], left_out[pe]["nvm_reads"])
            for pe in range(PE_COUNT)] == [(298, 0, 0), (290, 0, 0), (301, 2, 4), (295, 0, 0)]
    assert left_out[REQUESTER_COORD] == {"log_entry": 137}
    assert_left_out(full, candidate, left_out)


GOLDEN = {'abort_heavy': {'counters': {'device_internal_bytes_read': 116577,
                              'device_internal_bytes_written': 75707,
                              'device_to_host_bytes': 800,
                              'host_to_device_bytes': 229026,
                              'nvm_reads': 0,
                              'nvm_writes': 49,
                              'host_roundtrips': 12,
                              'records_processed': 1107},
                 'pe_ops': {0: {'flush': 12,
                                'l2p': 278,
                                'probe': 278,
                                'read': 277,
                                'record_load': 277,
                                'slot': 278,
                                'space_request': 2,
                                'vid_entry': 278,
                                'write': 12},
                            1: {'flush': 12,
                                'l2p': 278,
                                'probe': 278,
                                'read': 277,
                                'record_load': 277,
                                'slot': 278,
                                'space_request': 2,
                                'vid_entry': 278,
                                'write': 12},
                            2: {'flush': 12,
                                'l2p': 278,
                                'probe': 278,
                                'read': 275,
                                'record_load': 275,
                                'slot': 278,
                                'space_request': 3,
                                'vid_entry': 278,
                                'write': 12},
                            3: {'flush': 12,
                                'l2p': 278,
                                'probe': 278,
                                'read': 278,
                                'record_load': 278,
                                'slot': 278,
                                'space_request': 3,
                                'vid_entry': 278,
                                'write': 12},
                            'COORD': {'write': 1}}},
 'compact': {'counters': {'device_internal_bytes_read': 402330,
                          'device_internal_bytes_written': 336698,
                          'device_to_host_bytes': 1600,
                          'host_to_device_bytes': 171788,
                          'nvm_reads': 4462,
                          'nvm_writes': 137,
                          'host_roundtrips': 26,
                          'records_processed': 1450},
             'pe_ops': {0: {'flush': 25,
                            'index_probe': 33,
                            'l2p': 364,
                            'probe': 364,
                            'read': 364,
                            'record_load': 364,
                            'slot': 364,
                            'space_request': 5,
                            'vid_entry': 364,
                            'write': 25},
                        1: {'flush': 25,
                            'index_probe': 40,
                            'l2p': 370,
                            'probe': 370,
                            'read': 363,
                            'record_load': 363,
                            'slot': 370,
                            'space_request': 5,
                            'vid_entry': 370,
                            'write': 25},
                        2: {'flush': 25,
                            'index_probe': 29,
                            'l2p': 359,
                            'probe': 359,
                            'read': 361,
                            'record_load': 361,
                            'slot': 359,
                            'space_request': 5,
                            'vid_entry': 359,
                            'write': 25},
                        3: {'flush': 24,
                            'index_probe': 35,
                            'l2p': 365,
                            'probe': 365,
                            'read': 362,
                            'record_load': 362,
                            'slot': 365,
                            'space_request': 5,
                            'vid_entry': 365,
                            'write': 24},
                        'COORD': {'log_entry': 137, 'read': 96, 'write': 20}}},
 'delta_refresh': {'counters': {'device_internal_bytes_read': 303258,
                                'device_internal_bytes_written': 246880,
                                'device_to_host_bytes': 1600,
                                'host_to_device_bytes': 171788,
                                'nvm_reads': 4366,
                                'nvm_writes': 119,
                                'host_roundtrips': 26,
                                'records_processed': 1450},
                   'pe_ops': {0: {'flush': 25,
                                  'index_probe': 33,
                                  'l2p': 364,
                                  'probe': 364,
                                  'read': 364,
                                  'record_load': 364,
                                  'slot': 364,
                                  'space_request': 5,
                                  'vid_entry': 364,
                                  'write': 25},
                              1: {'flush': 25,
                                  'index_probe': 40,
                                  'l2p': 370,
                                  'probe': 370,
                                  'read': 363,
                                  'record_load': 363,
                                  'slot': 370,
                                  'space_request': 5,
                                  'vid_entry': 370,
                                  'write': 25},
                              2: {'flush': 25,
                                  'index_probe': 29,
                                  'l2p': 359,
                                  'probe': 359,
                                  'read': 361,
                                  'record_load': 361,
                                  'slot': 359,
                                  'space_request': 5,
                                  'vid_entry': 359,
                                  'write': 25},
                              3: {'flush': 24,
                                  'index_probe': 35,
                                  'l2p': 365,
                                  'probe': 365,
                                  'read': 362,
                                  'record_load': 362,
                                  'slot': 365,
                                  'space_request': 5,
                                  'vid_entry': 365,
                                  'write': 24},
                              'COORD': {'log_entry': 137, 'write': 2}}},
 'materialize': {'counters': {'device_internal_bytes_read': 270658,
                              'device_internal_bytes_written': 221331,
                              'device_to_host_bytes': 90891,
                              'host_to_device_bytes': 152994,
                              'nvm_reads': 4009,
                              'nvm_writes': 68,
                              'host_roundtrips': 11,
                              'records_processed': 1319},
                 'pe_ops': {0: {'flush': 13,
                                'l2p': 331,
                                'probe': 331,
                                'read': 331,
                                'record_load': 331,
                                'slot': 331,
                                'space_request': 2,
                                'vid_entry': 331,
                                'write': 13},
                            1: {'flush': 13,
                                'l2p': 330,
                                'probe': 330,
                                'read': 330,
                                'record_load': 330,
                                'slot': 330,
                                'space_request': 2,
                                'vid_entry': 330,
                                'write': 13},
                            2: {'flush': 13,
                                'l2p': 330,
                                'probe': 330,
                                'read': 328,
                                'record_load': 328,
                                'slot': 330,
                                'space_request': 2,
                                'vid_entry': 330,
                                'write': 13},
                            3: {'flush': 12,
                                'l2p': 330,
                                'probe': 330,
                                'read': 330,
                                'record_load': 330,
                                'slot': 330,
                                'space_request': 2,
                                'vid_entry': 330,
                                'write': 12},
                            'COORD': {'write': 1}}},
 'stream': {'counters': {'device_internal_bytes_read': 241813,
                         'device_internal_bytes_written': 153445,
                         'device_to_host_bytes': 153445,
                         'host_to_device_bytes': 257854,
                         'nvm_reads': 0,
                         'nvm_writes': 0,
                         'host_roundtrips': 2,
                         'records_processed': 2254},
            'pe_ops': {0: {'flush': 13,
                           'l2p': 576,
                           'probe': 576,
                           'read': 565,
                           'record_load': 565,
                           'slot': 576,
                           'vid_entry': 565,
                           'write': 17},
                       1: {'flush': 13,
                           'l2p': 571,
                           'probe': 571,
                           'read': 562,
                           'record_load': 562,
                           'slot': 571,
                           'vid_entry': 565,
                           'write': 18},
                       2: {'flush': 13,
                           'l2p': 576,
                           'probe': 576,
                           'read': 562,
                           'record_load': 562,
                           'slot': 576,
                           'vid_entry': 565,
                           'write': 18},
                       3: {'flush': 13,
                           'l2p': 577,
                           'probe': 577,
                           'read': 565,
                           'record_load': 565,
                           'slot': 577,
                           'vid_entry': 565,
                           'write': 17}}}}
