"""The joined column reader, against the per-segment read-back it replaced.

``columns.read_joined`` (behind ``assemble``, ``masked_view`` and
``columns_from_batches``) and ``gather_buffers`` check, view and decode
each column of all segments at once; ``reference_readback`` keeps the
per-segment reader.  On random specs (NULLs, empty and non-ASCII
varchars), 1-40 segments (some empty), keep masks and corrupt buffers (a
length, an offset, invalid UTF-8, an offset that splits a character), both
return equal column sets or raise the same error with the same message.

``delta.read_back`` pulls a handle's fragments in one ``Device.read_runs``:
a view, an export and a compaction charge what one ``read_pages`` per
fragment (one ``read`` per page) charged, a faulty fragment is named as
the per-fragment read names it and nothing is charged, and both regions
can still grow after a read-back that raised.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    VID_COLUMN,
    ColumnSet,
    ColumnSpec,
    JoinedSegments,
    assemble,
    column_buffers,
    gather_buffers,
    result_specs,
)
from ndtsim.delta import compact, masked_view
from ndtsim.device import REGION_DDR, REGION_NVM
from ndtsim.engine import MODE_STREAM, Batch, Fragment, columns_from_batches
from ndtsim.errors import AccessDenied, CorruptDescriptor, NdtError, OutOfRange
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver, orderline_schema
from ndtsim.layout import PAGE_SIZE, Decimal, Int32, Int64, TimestampPg, VarChar
from ndtsim.result_file import write_handle
import reference_readback
from reference_readback import read_segments
from test_columns import _assert_identical

TEXTS = {"ascii": st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=5),
         "unicode": st.text(alphabet=st.one_of(st.characters(max_codepoint=0x7F),
                                               st.characters(min_codepoint=0x80, codec="utf-8")),
                            max_size=4)}
FIXED = {"int32": (Int32(), st.integers(-2**31, 2**31 - 1)),
         "int64": (Int64(), st.integers(-2**63, 2**63 - 1)),
         "decimal": (Decimal(12, 2), st.integers(-10**12 + 1, 10**12 - 1)),
         "timestamp": (TimestampPg(), st.integers(-2**40, 2**40))}
CORRUPTIONS = ("length", "offset", "utf8", "split")


def _outcome(call):
    """``call()``'s result, or the type and message of the ``NdtError`` it raised."""
    try:
        return call(), None
    except NdtError as exc:
        return None, (type(exc), str(exc))


def _corrupt(draw, specs, segments):
    """One corruption of one segment's buffers, in place: a buffer's length,
    an offset, a payload byte made a UTF-8 lead or continuation byte, or an
    offset moved inside a multibyte character (the payload stays UTF-8)."""
    varchars = [s.name for s in specs if isinstance(s.ftype, VarChar)]
    kind = draw(st.sampled_from(CORRUPTIONS if varchars else ("length",)))
    at = draw(st.one_of(st.integers(0, len(segments) - 1),
                        st.sampled_from([1 % len(segments), len(segments) - 1])))
    rows, buffers = segments[at]
    if kind == "length":
        key = draw(st.sampled_from(sorted(buffers) or [(VID_COLUMN, KIND_VALUES)]))
        raw = buffers.get(key, b"")
        size = draw(st.integers(0, len(raw) + 9).filter(lambda n: n != len(raw)))
        buffers[key] = raw[:size] + bytes(max(size - len(raw), 0))
        return
    name = draw(st.sampled_from(varchars))
    payload = buffers.get((name, KIND_VALUES), b"")
    offsets = buffers.get((name, KIND_OFFSETS), b"")
    if len(offsets) % 4:                     # cut by an earlier length corruption
        return
    offsets = np.frombuffer(offsets, dtype="<u4").copy()
    if kind == "offset" and len(offsets):
        offsets[draw(st.integers(0, len(offsets) - 1))] = draw(
            st.one_of(st.integers(0, len(payload) + 2), st.integers(0, 2**32 - 1)))
    elif kind == "utf8" and payload:
        byte = draw(st.integers(0, len(payload) - 1))
        payload = payload[:byte] + bytes([draw(st.integers(0x80, 0xFF))]) + payload[byte + 1:]
    elif kind == "split" and len(offsets) == rows + 1:
        inside = [(row, p) for row in range(rows)
                  for p in range(int(offsets[row]) + 1, min(int(offsets[row + 1]), len(payload)))
                  if payload[p] & 0xC0 == 0x80]
        if not inside:
            return
        row, p = draw(st.sampled_from(inside))
        offsets[row + 1] = p
    buffers[(name, KIND_VALUES)] = payload
    if len(offsets):
        buffers[(name, KIND_OFFSETS)] = offsets.tobytes()


@st.composite
def _cases(draw, max_segments=40):
    """(specs, segments, keep): 1-40 segments of random columns, some of
    them empty, then up to three corruptions."""
    kinds = draw(st.lists(st.sampled_from([*TEXTS, *FIXED]), min_size=1, max_size=3))
    specs = [ColumnSpec(VID_COLUMN, Int64(), False)]
    for i, kind in enumerate(kinds):
        ftype = VarChar(24) if kind in TEXTS else FIXED[kind][0]
        specs.append(ColumnSpec(f"c{i}", ftype, draw(st.booleans())))
    specs = tuple(specs)
    segments = []
    count = draw(st.integers(1, max_segments))
    for rows in draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 9]), min_size=count,
                              max_size=count)):
        data, validity = {}, {}
        for spec, kind in zip(specs[1:], kinds):
            if kind in TEXTS:
                data[spec.name] = draw(st.lists(TEXTS[kind], min_size=rows, max_size=rows))
            else:
                data[spec.name] = np.array(draw(st.lists(FIXED[kind][1], min_size=rows,
                                                         max_size=rows)),
                                           dtype=f"<i{spec.ftype.width}")
            validity[spec.name] = (np.array(draw(st.lists(st.booleans(), min_size=rows,
                                                          max_size=rows)), dtype=bool)
                                   if spec.nullable else None)
        vids = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows,
                                      max_size=rows)), dtype="<u8")
        segments.append((rows, column_buffers(ColumnSet(specs, vids, data, validity, rows))))
    for _ in range(draw(st.integers(0, 3))):
        _corrupt(draw, specs, segments)
    total = sum(rows for rows, _ in segments)
    keep = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=total, max_size=total)))
    return specs, segments, None if keep is None else np.array(keep, dtype=bool)


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_the_joined_reader_reads_as_the_per_segment_reader(case):
    """Equal column sets, or the same error with the same message; the
    buffers ``gather_buffers`` moves are those of the reference's set."""
    specs, segments, keep = case
    got, got_error = _outcome(lambda: assemble(specs, segments, keep))
    want, want_error = _outcome(lambda: reference_readback.assemble(specs, segments, keep))
    assert got_error == want_error
    if want is not None:
        _assert_identical(got, want)
    moved, moved_error = _outcome(
        lambda: gather_buffers(specs, JoinedSegments.of(segments), keep))
    assert moved_error == want_error
    if want is not None:
        assert list(moved.items()) == list(column_buffers(want).items())


@pytest.mark.parametrize("key", [(VID_COLUMN, KIND_VALUES), ("ol_quantity", KIND_VALUES),
                                 ("ol_dist_info", KIND_OFFSETS),
                                 ("ol_delivery_d", KIND_VALIDITY)])
@pytest.mark.parametrize("grow", [-1, 1])
def test_a_length_fault_in_any_segment_is_named_as_the_reference_names_it(key, grow):
    """One buffer of one of six segments a byte short or long, at each
    segment in turn, with and without a keep mask."""
    system, driver, handle = _system(8, 120, pe_count=3)
    driver.run(20)
    system.delta_refresh(handle, pe_count=3)
    segments = read_segments(handle)
    assert len(segments) == 6
    for at in range(len(segments)):
        faulty = [(rows, dict(buffers)) for rows, buffers in segments]
        raw = faulty[at][1][key]
        faulty[at][1][key] = raw[:-1] if grow < 0 else raw + b"\x01"
        for keep in (None, handle.current):
            got = _outcome(lambda: assemble(handle.specs, faulty, keep))
            want = _outcome(lambda: reference_readback.assemble(handle.specs, faulty, keep))
            assert got[0] is None and got[1] == want[1], (at, keep is None)
            moved = _outcome(lambda: gather_buffers(handle.specs, JoinedSegments.of(faulty),
                                                    keep))
            assert moved[1] == want[1]


def test_empty_segments_and_no_segments_read_as_no_rows():
    specs = result_specs(orderline_schema(), ("ol_dist_info", "ol_delivery_d"))
    empty = column_buffers(ColumnSet(specs, np.zeros(0, dtype="<u8"),
                                     {"ol_dist_info": [], "ol_delivery_d": np.zeros(0, "<i8")},
                                     {"ol_dist_info": None,
                                      "ol_delivery_d": np.zeros(0, dtype=bool)}, 0))
    for segments in ([], [(0, empty)], [(0, {})] * 3):
        _assert_identical(assemble(specs, segments),
                          reference_readback.assemble(specs, segments))


# -- a handle's read-back ----------------------------------------------------------------


def _system(seed: int, rows: int, pe_count: int = 4):
    system = HostSystem()
    shadow = system.load_orderlines(rows, seed=seed)
    system.merge_to_cold()
    driver = WorkloadDriver(system, WorkloadConfig(seed=seed), shadow)
    _, handle = system.transform_snapshot(pe_count=pe_count)
    return system, driver, handle


def _per_page_reads(device):
    """``Device.read_runs`` as one ``Device.read`` per page, run after run,
    each group's bytes joined: what one ``read_pages`` per fragment moved
    and charged."""
    def read_runs(runs, requester, groups=None):
        runs = list(runs)
        groups = [0] * len(runs) if groups is None else list(groups)
        out = [[] for _ in range(max(groups, default=-1) + 1)]
        for (region, pages, nbytes), group in zip(runs, groups):
            for k, idx in enumerate(pages):
                size = min(PAGE_SIZE, nbytes - k * PAGE_SIZE)
                out[group].append(device.read(region, idx * PAGE_SIZE, size, requester))
        return [b"".join(parts) for parts in out]
    return read_runs


@pytest.mark.parametrize("seed", [3, 4])
def test_views_exports_and_compactions_charge_what_per_fragment_reads_did(seed, tmp_path):
    """Two twin systems, one of them reading every page with its own
    ``Device.read``: after each step both ledgers, results and exports are
    equal."""
    twins = [_system(seed, 400) for _ in range(2)]
    twins[1][0].device.read_runs = _per_page_reads(twins[1][0].device)

    def step(name, call):
        results = [call(system, driver, handle) for system, driver, handle in twins]
        ledgers = [system.device.ledger.snapshot() for system, _, _ in twins]
        assert ledgers[0] == ledgers[1], name
        return results

    def exported(system, driver, handle):
        path = tmp_path / f"{id(system)}.ndtc"
        write_handle(path, handle)
        return path.read_bytes()

    for _ in range(3):
        for _ in range(2):
            _assert_identical(*step("view", lambda s, d, h: masked_view(h)))
        step("oltp", lambda s, d, h: d.run(25))
        step("refresh", lambda s, d, h: s.delta_refresh(h))
        _assert_identical(*step("view", lambda s, d, h: masked_view(h)))
        files = step("export", exported)
        assert files[0] == files[1]
        step("compact", lambda s, d, h: compact(h))
    _assert_identical(*step("view", lambda s, d, h: masked_view(h)))


def _unexpose(handle, frag):
    handle.device.free_pages(handle.owner, frag.region, [frag.pages[-1]])   # freed, hidden


def _out_of_range(handle, frag):
    return frag._replace(pages=frag.pages[:-1] + (len(handle.device._regions[frag.region]) //
                                                  PAGE_SIZE,))


FAULTS = {"unexposed": (_unexpose, AccessDenied), "out_of_range": (_out_of_range, OutOfRange)}


@pytest.mark.parametrize("first, second", [("unexposed", None), ("out_of_range", None),
                                           ("unexposed", "out_of_range"),
                                           ("out_of_range", "unexposed")])
def test_a_faulty_fragment_is_named_first_and_nothing_is_charged(first, second):
    """The faults sit in two fragments, the first in an earlier segment and
    a later column; the read names the earlier one as the per-fragment read
    does, charges nothing, and both regions can grow while the error (and
    its traceback) is still held."""
    system, driver, handle = _system(6, 300)
    driver.run(20)
    system.delta_refresh(handle)
    device = handle.device
    for (seg_at, key), fault in zip([(1, ("ol_dist_info", KIND_VALUES)),
                                     (len(handle.segments) - 1, (VID_COLUMN, KIND_VALUES))],
                                    (first, second)):
        if fault is None:
            continue
        seg = handle.segments[seg_at]
        replaced = FAULTS[fault][0](handle, seg.frags[key])
        if replaced is not None:
            seg.frags[key] = replaced
    before = device.ledger.snapshot()
    with pytest.raises(FAULTS[first][1]) as raised:
        masked_view(handle)
    assert device.ledger.snapshot() == before
    with pytest.raises(FAULTS[first][1]) as want:
        read_segments(handle)
    assert str(raised.value) == str(want.value)
    for region, capacity in ((REGION_DDR, device.cfg.ddr_capacity_pages),
                             (REGION_NVM, device.cfg.nvm_capacity_pages)):
        grown = len(device._regions[region])
        freed = device.free_page_count(region) - (capacity - grown // PAGE_SIZE)   # in the region
        device.allocate_pages(region, freed + 3, "grows")
        assert len(device._regions[region]) == grown + 3 * PAGE_SIZE
    assert raised.traceback                  # held until here


def test_a_read_of_fragments_in_both_regions_joins_each_group_in_order():
    system = HostSystem()
    device = system.device
    runs, data = [], {}
    for k, (region, nbytes) in enumerate([(REGION_NVM, 5), (REGION_DDR, PAGE_SIZE + 3),
                                          (REGION_NVM, 0), (REGION_DDR, 2 * PAGE_SIZE)]):
        pages = device.allocate_pages(region, -(-nbytes // PAGE_SIZE), f"o{k}")
        payload = bytes([k + 1]) * nbytes
        if pages:
            device.write_pages(region, pages, payload)
        device.expose_to_host(region, pages)
        runs.append(Fragment(region, tuple(pages), nbytes))
        data[k] = payload
    before = device.ledger.snapshot()
    got = device.read_runs(runs, "HOST", [1, 0, 1, 0])
    assert got == [data[1] + data[3], data[0] + data[2]]
    charged = device.ledger.delta_since(before)
    assert charged["device_to_host_bytes"] == sum(map(len, data.values()))
    assert charged["nvm_reads"] == 1


# -- a stream's chunks --------------------------------------------------------------------


def _stream(pe_count: int = 4):
    system = HostSystem()
    system.load_orderlines(200, seed=2)
    system.merge_to_cold()
    inv, batches = system.transform_snapshot(mode=MODE_STREAM, pe_count=pe_count)
    return system, inv, batches


def test_a_stream_reads_as_its_pes_segments():
    system, inv, batches = _stream()
    segments = {}
    for batch in batches:
        for pe, name, kind, payload in batch.chunks:
            buffers = segments.setdefault(pe, {})
            buffers[(name, kind)] = buffers.get((name, kind), b"") + payload
    segments = [(len(b[(VID_COLUMN, KIND_VALUES)]) // 8, b) for _, b in sorted(segments.items())]
    specs = result_specs(system.schema, inv.projection)
    _assert_identical(columns_from_batches(system.schema, inv.projection, batches, inv.pe_count),
                      reference_readback.assemble(specs, segments))


def test_a_chunk_of_a_pe_past_the_count_is_refused():
    system, inv, batches = _stream(pe_count=4)
    with pytest.raises(CorruptDescriptor, match=r"chunk \(3, '\w+', '\w+'\) is of no buffer of "
                                                r"3 PEs"):
        columns_from_batches(system.schema, inv.projection, batches, 3)


@pytest.mark.parametrize("name, kind", [("ol_amount", KIND_OFFSETS), ("ol_quantity",
                                                                      KIND_VALIDITY),
                                        ("nosuch", KIND_VALUES)])
def test_a_chunk_of_no_buffer_of_the_projection_is_refused(name, kind):
    system, inv, batches = _stream()
    foreign = Batch([(0, name, kind, struct.pack("<I", 7))], 4)
    with pytest.raises(CorruptDescriptor, match=rf"chunk \(0, '{name}', '{kind}'\)"):
        columns_from_batches(system.schema, inv.projection, [*batches, foreign], inv.pe_count)
