"""Decoding device segments into column sets, and moving their bytes.

The read-back decodes each varchar column with one UTF-8 decode and one
split; compaction and export gather bytes without building strings.  Both
are pinned here to the per-row decoder they replaced (one ``bytes.decode``
per value, kept below as the reference), on random specs, segments and
keep masks, and so is the NDTC file written from the reference and read
back.  ``decode_varchar`` alone is pinned to a per-value slicing reference
with the read-back's errors, on values with NULs and multibyte characters.
Corrupt segments raise only typed errors.
"""

import os
import struct
import tempfile
from decimal import Decimal as PyDecimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtsim import columns
from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    VID_COLUMN,
    ColumnSet,
    ColumnSpec,
    JoinedSegments,
    assemble,
    canonical_compare,
    column_buffers,
    decode_varchar,
    gather_buffers,
    result_specs,
)
from ndtsim.errors import CorruptDescriptor, LengthMismatch, NdtError
from ndtsim.layout import Decimal, Int32, Int64, Schema, TimestampPg, VarChar
from ndtsim.result_file import read_file, write_file


def gather(specs, segments, keep=None) -> dict:
    """``gather_buffers`` of segments given as ``assemble`` takes them."""
    return gather_buffers(specs, JoinedSegments.of(segments), keep)


def _varchar_segment(payload: bytes, offsets):
    specs = result_specs(Schema("t", [("s", VarChar(8), False)]), ("s",))
    rows = len(offsets) - 1
    buffers = {
        (VID_COLUMN, KIND_VALUES): np.arange(rows, dtype="<u8").tobytes(),
        ("s", KIND_VALUES): payload,
        ("s", KIND_OFFSETS): np.array(offsets, dtype="<u4").tobytes(),
    }
    return specs, buffers, rows


def test_decode_segment_rejects_non_utf8_varchar():
    specs, buffers, rows = _varchar_segment(b"\xff", [0, 1])
    with pytest.raises(CorruptDescriptor):
        assemble(specs, [(rows, buffers)])


@pytest.mark.parametrize("offsets", [[0, 5, 3, 6], [2, 4, 6, 6]],
                         ids=["decreasing", "not_from_zero"])
def test_decode_segment_rejects_bad_offsets(offsets):
    specs, buffers, rows = _varchar_segment(b"abcdef", offsets)
    with pytest.raises(CorruptDescriptor):
        assemble(specs, [(rows, buffers)])


@pytest.mark.parametrize("key", [(VID_COLUMN, KIND_VALUES), ("n", KIND_VALUES),
                                 ("s", KIND_OFFSETS)],
                         ids=["identity", "fixed_width", "offsets"])
def test_ragged_buffer_lengths_raise_typed_errors(key):
    """A buffer that is not a whole number of its elements is corrupt, and
    every reader says so with ``CorruptDescriptor``."""
    specs = result_specs(Schema("t", [("n", Int32(), False), ("s", VarChar(8), False)]),
                         ("n", "s"))
    buffers = column_buffers(ColumnSet(specs, np.arange(3, dtype="<u8"),
                                       {"n": np.arange(3, dtype="<i4"), "s": ["a", "bc", ""]},
                                       {"n": None, "s": None}, 3))
    buffers[key] = buffers[key][:-1]
    for call in (lambda: assemble(specs, [(3, buffers)]),
                 lambda: gather(specs, [(3, buffers)])):
        with pytest.raises(CorruptDescriptor):
            call()


def test_a_keep_mask_of_another_length_is_a_length_mismatch():
    specs = result_specs(Schema("t", [("n", Int32(), False)]), ("n",))
    buffers = column_buffers(ColumnSet(specs, np.arange(3, dtype="<u8"),
                                       {"n": np.arange(3, dtype="<i4")}, {"n": None}, 3))
    for keep in (np.ones(2, dtype=bool), np.ones(4, dtype=bool)):
        for call in (assemble, gather):
            with pytest.raises(LengthMismatch, match=f"{len(keep)} entries for 3 positions"):
                call(specs, [(3, buffers)], keep)


# -- canonical comparison ----------------------------------------------------------

_COMPARED = result_specs(Schema("t", [("i", Int32(), True), ("d", Decimal(10, 2), False),
                                      ("s", VarChar(8), True)]), ("i", "d", "s"))


def _compared(vids=(3, 1, 2), i=(10, 20, 30), i_valid=(True, True, False), d=(1234, 5678, 9),
              s=("x", "yy", ""), s_valid=(True, False, True)) -> ColumnSet:
    """Three rows out of vid order; vid 2's ``i`` and vid 1's ``s`` are NULL."""
    return ColumnSet(_COMPARED, np.array(vids, dtype="<u8"),
                     {"i": np.array(i, dtype="<i4"), "d": np.array(d, dtype="<i8"), "s": list(s)},
                     {"i": np.array(i_valid), "d": None, "s": np.array(s_valid)}, len(vids))


@pytest.mark.parametrize("other, expected", [
    (_compared().take(np.array([0, 1])), ("row count 3 vs 2", None, None, None, None)),
    (_compared(vids=(4, 1, 2)), ("row identity sets differ", 3, VID_COLUMN, 3, 4)),
    (_compared(i_valid=(True, False, False)), ("validity differs", 1, "i", True, False)),
    (_compared(i=(11, 20, 30)), ("value differs", 3, "i", 10, 11)),
    (_compared(d=(1234, 5679, 9)),
     ("value differs", 1, "d", PyDecimal("56.78"), PyDecimal("56.79"))),
    (_compared(s=("z", "yy", "")), ("value differs", 3, "s", "x", "z")),
], ids=["row_count", "identity_set", "validity", "int32_value", "decimal_value",
        "varchar_value"])
def test_canonical_compare_reports_the_first_divergence(other, expected):
    result = canonical_compare(_compared(), other)
    assert not result.equal
    assert (result.reason, result.vid, result.attr, result.left, result.right) == expected
    assert [type(value) for value in (result.left, result.right)] == [type(expected[3])] * 2


@pytest.mark.parametrize("other", [_compared(i=(10, 20, 99)), _compared(s=("x", "zz", ""))],
                         ids=["fixed_under_null", "varchar_under_null"])
def test_canonical_compare_ignores_values_under_a_null(other):
    assert canonical_compare(_compared(), other).equal
    assert canonical_compare(_compared().sorted_by_vid(), other).equal


def _argsorted(view: ColumnSet) -> ColumnSet:
    """``view``'s rows by a stable argsort of its vids, always copied, a row
    at a time: what ``sorted_by_vid`` returned for every set."""
    index = np.argsort(view.vids, kind="stable").tolist()
    data = {name: [col[k] for k in index] if isinstance(col, list) else col[index]
            for name, col in view.data.items()}
    validity = {name: None if v is None else v[index] for name, v in view.validity.items()}
    return ColumnSet(view.specs, view.vids[index], data, validity, len(index))


@pytest.mark.parametrize("rows, kept", [([0, 1, 2], False), ([1, 2, 0], True), ([], True),
                                        ([2, 2, 1], False)],
                         ids=["unsorted", "sorted", "empty", "repeated_vid"])
def test_sorted_by_vid_keeps_a_sorted_set_as_it_is(rows, kept):
    """A set whose vids strictly increase comes back as it is; any other is
    sorted as before.  Either way the sorted rows, their dtypes and
    validity (all a result digest reads) and every comparison are as
    before."""
    view = _compared().take(np.array(rows, dtype=np.int64))
    got, want = view.sorted_by_vid(), _argsorted(view)
    assert (got is view) == kept
    assert got.vids.dtype == want.vids.dtype and np.array_equal(got.vids, want.vids)
    assert got.n_rows == want.n_rows == len(rows)
    for name in want.column_names():
        a, b = got.data[name], want.data[name]
        assert a == b if isinstance(b, list) else a.dtype == b.dtype and np.array_equal(a, b)
        a, b = got.validity[name], want.validity[name]
        assert (a is b is None) or np.array_equal(a, b)
    assert canonical_compare(view, want).equal and canonical_compare(want, view).equal
    if rows:
        other = _compared(s=("z", "yy", "")).take(np.array(rows, dtype=np.int64))
        assert canonical_compare(view, other) == canonical_compare(want, other)


# -- the per-row reference -----------------------------------------------------------


def _reference_segment(specs, buffers: dict, rows: int):
    """One segment decoded a value at a time, as the read-back used to."""
    vids = np.frombuffer(buffers.get((VID_COLUMN, KIND_VALUES), b""), dtype="<u8")
    data, validity = {}, {}
    for spec in specs[1:]:
        values = buffers.get((spec.name, KIND_VALUES), b"")
        if isinstance(spec.ftype, VarChar):
            offsets = np.frombuffer(buffers.get((spec.name, KIND_OFFSETS), b""), dtype="<u4")
            data[spec.name] = [values[offsets[i]:offsets[i + 1]].decode("utf-8")
                               for i in range(rows)]
        else:
            width = 4 if isinstance(spec.ftype, Int32) else 8
            data[spec.name] = np.frombuffer(values, dtype=f"<i{width}")
        validity[spec.name] = None
        if spec.nullable:
            bits = np.frombuffer(buffers.get((spec.name, KIND_VALIDITY), b""), dtype=np.uint8)
            validity[spec.name] = np.unpackbits(bits, bitorder="little")[:rows].astype(bool)
    return vids, data, validity


def _reference(specs, segments) -> ColumnSet:
    parts = [_reference_segment(specs, bufs, rows) for rows, bufs in segments or [(0, {})]]
    data, validity = {}, {}
    for spec in specs[1:]:
        cols = [p[1][spec.name] for p in parts]
        data[spec.name] = (sum(cols, []) if isinstance(spec.ftype, VarChar)
                           else np.concatenate(cols))
        validity[spec.name] = (np.concatenate([p[2][spec.name] for p in parts])
                               if spec.nullable else None)
    vids = np.concatenate([p[0] for p in parts])
    return ColumnSet(specs, vids, data, validity, len(vids))


def _assert_identical(got: ColumnSet, want: ColumnSet):
    assert got.specs == want.specs and got.n_rows == want.n_rows
    assert got.vids.dtype == want.vids.dtype and np.array_equal(got.vids, want.vids)
    assert list(got.data) == list(want.data) and list(got.validity) == list(want.validity)
    for name, col in want.data.items():
        if isinstance(col, list):
            assert type(got.data[name]) is list and got.data[name] == col, name
        else:
            assert got.data[name].dtype == col.dtype and np.array_equal(got.data[name], col)
        bits = want.validity[name]
        if bits is None:
            assert got.validity[name] is None
        else:
            assert got.validity[name].dtype == bits.dtype
            assert np.array_equal(got.validity[name], bits), name


# -- random specs, segments and keep masks -------------------------------------------

ASCII = st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=6)
UNICODE = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
_FIXED = {
    "int32": (Int32(), st.integers(-2**31, 2**31 - 1)),
    "int64": (Int64(), st.integers(-2**63, 2**63 - 1)),
    "decimal": (Decimal(12, 2), st.integers(-10**12 + 1, 10**12 - 1)),
    "timestamp": (TimestampPg(), st.integers(-2**40, 2**40)),
}


@st.composite
def _readbacks(draw):
    """(specs, segments, keep): device segments of random columns, some empty."""
    kinds = draw(st.lists(st.sampled_from(["ascii", "unicode", *_FIXED]), min_size=1,
                          max_size=4))
    specs = [ColumnSpec(VID_COLUMN, Int64(), False)]
    for i, kind in enumerate(kinds):
        ftype = VarChar(24) if kind in ("ascii", "unicode") else _FIXED[kind][0]
        specs.append(ColumnSpec(f"c{i}", ftype, draw(st.booleans())))
    specs = tuple(specs)
    segments = []
    for rows in draw(st.lists(st.sampled_from([0, 0, 1, 2, 5, 9]), max_size=4)):
        data, validity = {}, {}
        for spec, kind in zip(specs[1:], kinds):
            if kind in ("ascii", "unicode"):
                texts = ASCII if kind == "ascii" else UNICODE
                data[spec.name] = draw(st.lists(texts, min_size=rows, max_size=rows))
            else:
                width = 4 if kind == "int32" else 8
                data[spec.name] = np.array(draw(st.lists(_FIXED[kind][1], min_size=rows,
                                                         max_size=rows)), dtype=f"<i{width}")
            validity[spec.name] = None
            if spec.nullable:             # a NULL varchar is "" on the device, or any value
                present = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
                validity[spec.name] = np.array(present, dtype=bool)
                if kind in ("ascii", "unicode"):
                    data[spec.name] = [s if p else "" for s, p in zip(data[spec.name], present)]
        vids = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows,
                                      max_size=rows)), dtype="<u8")
        segments.append((rows, column_buffers(ColumnSet(specs, vids, data, validity, rows))))
    total = sum(rows for rows, _ in segments)
    keep = np.array(draw(st.one_of(st.just([False] * total),
                                   st.lists(st.booleans(), min_size=total, max_size=total))),
                    dtype=bool)
    return specs, segments, keep


@settings(max_examples=200, deadline=None)
@given(case=_readbacks())
def test_readback_matches_the_per_row_decoder(case):
    specs, segments, keep = case
    reference = _reference(specs, segments)
    _assert_identical(assemble(specs, segments), reference)
    _assert_identical(assemble(specs, segments, keep), reference.mask(keep))
    for got, want in ((gather(specs, segments), column_buffers(reference)),
                      (gather(specs, segments, keep),
                       column_buffers(reference.mask(keep)))):
        assert list(got.items()) == list(want.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "readback.ndtc")
        write_file(path, reference)
        from_file, bits = read_file(path)
    _assert_identical(from_file, reference)
    assert bits.dtype == bool and len(bits) == reference.n_rows and bits.all()


# -- corruption confined to rows the mask drops --------------------------------------


def _corrupt(kind: str, values: list, row: int):
    """(payload, offsets) of ``values`` with rows ``row`` and ``row + 1`` corrupted."""
    encoded = [v.encode("utf-8") for v in values]
    if kind == "non_utf8":
        encoded[row] = b"\xff" + encoded[row]
    elif kind == "split_character":
        encoded[row], encoded[row + 1] = "é".encode("utf-8"), b""
    else:
        encoded[row], encoded[row + 1] = b"", b"ab"
    ends = np.cumsum([0] + [len(e) for e in encoded])
    if kind == "split_character":
        ends[row + 1] -= 1           # the payload stays UTF-8, the offset splits a character
    elif kind == "decreasing":
        ends[row + 1] += 3           # past the offset after it
    return b"".join(encoded), ends


@settings(max_examples=100, deadline=None)
@given(values=st.lists(UNICODE, min_size=2, max_size=8), data=st.data(),
       kind=st.sampled_from(["non_utf8", "split_character", "decreasing"]))
def test_corrupt_dropped_rows_still_raise(values, data, kind):
    row = data.draw(st.integers(0, len(values) - 2))
    payload, offsets = _corrupt(kind, values, row)
    specs, buffers, rows = _varchar_segment(payload, offsets)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    keep[row:row + 2] = False
    for call in (lambda: assemble(specs, [(rows, buffers)], keep),
                 lambda: gather(specs, [(rows, buffers)], keep),
                 lambda: assemble(specs, [(rows, buffers)])):
        with pytest.raises(CorruptDescriptor):
            call()


# -- one varchar column, against the per-value slicing reference ----------------------


def _reference_varchar(payload: bytes, offsets, what: str, keep=None) -> list:
    """One varchar column decoded a slice at a time, with the checks and
    errors of the read-back: offsets, then the payload's UTF-8, then the
    character boundaries, for dropped rows too."""
    ends = [int(end) for end in offsets]
    if ends[0] != 0 or ends[-1] != len(payload) or any(b < a for a, b in zip(ends, ends[1:])):
        raise CorruptDescriptor(f"{what}: offsets from {ends[0]} to {ends[-1]} not monotone "
                                f"over a payload of {len(payload)}")
    try:
        payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptDescriptor(f"{what}: value is not UTF-8 ({exc})") from None
    try:
        values = [payload[a:b].decode("utf-8") for a, b in zip(ends, ends[1:])]
    except UnicodeDecodeError:
        raise CorruptDescriptor(f"{what}: an offset splits a multibyte character") from None
    return values if keep is None else [v for v, k in zip(values, keep) if k]


# Empty strings, NUL and characters of one to four UTF-8 bytes.
VARCHARS = st.text(alphabet=st.one_of(st.sampled_from("a\x00é€😀"),
                                      st.characters(codec="utf-8")), max_size=5)


def _keeps(rows: int):
    return st.one_of(st.none(), st.just(np.ones(rows, dtype=bool)),
                     st.just(np.zeros(rows, dtype=bool)),
                     st.lists(st.booleans(), min_size=rows, max_size=rows).map(
                         lambda flags: np.array(flags, dtype=bool)))


def _decode_spied(payload: bytes, offsets, keep) -> tuple:
    """``decode_varchar``'s result (or ``CorruptDescriptor``), and whether
    it went through ``columns._sliced_values``."""
    sliced = []
    helper = columns._sliced_values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columns, "_sliced_values",
                      lambda *args: sliced.append(1) or helper(*args))
        try:
            got = decode_varchar(payload, np.asarray(offsets, dtype="<u4"), "s", keep)
        except CorruptDescriptor as exc:
            got = exc
    return got, bool(sliced)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(st.lists(VARCHARS, max_size=2), st.lists(VARCHARS, max_size=12)),
       data=st.data())
@example(values=["ab", "", "c"], data=None).via("the split path")
@example(values=["a\x00b", "é"], data=None).via("the NUL helper")
def test_decode_varchar_matches_per_value_slicing(values, data):
    encoded = [v.encode("utf-8") for v in values]
    payload, offsets = b"".join(encoded), np.cumsum([0] + [len(e) for e in encoded])
    keep = data.draw(_keeps(len(values))) if data else None
    got, sliced = _decode_spied(payload, offsets, keep)
    assert type(got) is list and got == _reference_varchar(payload, offsets, "s", keep)
    assert sliced == (b"\x00" in payload)        # else one decode and one split


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VARCHARS, min_size=2, max_size=8), data=st.data(),
       kind=st.sampled_from(["non_utf8", "split_character", "decreasing"]))
def test_decode_varchar_raises_as_the_reference(values, data, kind):
    """A corrupt column raises the reference's ``CorruptDescriptor``, with
    its message, wherever the fault sits and whichever rows are kept."""
    row = data.draw(st.integers(0, len(values) - 2))
    payload, offsets = _corrupt(kind, values, row)
    keep = data.draw(_keeps(len(values)))
    if keep is not None and data.draw(st.booleans()):
        keep = keep.copy()
        keep[row:row + 2] = False               # the fault sits in dropped rows
    with pytest.raises(CorruptDescriptor) as want:
        _reference_varchar(payload, offsets, "s", keep)
    got, _ = _decode_spied(payload, offsets, keep)
    assert isinstance(got, CorruptDescriptor) and str(got) == str(want.value)


# -- corrupt segments ------------------------------------------------------------------

BUFFER_KINDS = {"offsets": KIND_OFFSETS, "utf8": KIND_VALUES, "validity": KIND_VALIDITY}
WIDTHS = {"offsets": 4, "utf8": 1, "validity": 1}


def _sites(kind: str, segments, varchars) -> list:
    """The places a corruption of ``kind`` can hit: (segment, buffer key).
    A value corruption needs one whole value in the buffer, which an earlier
    length corruption may have cut short."""
    if kind == "rows":
        return [(segment, None) for segment in segments]
    return [(segment, key) for segment in segments for key in sorted(segment[1])
            if kind == "length" or (key[1] == BUFFER_KINDS[kind]
                                    and len(segment[1][key]) >= WIDTHS[kind]
                                    and (kind != "utf8" or key[0] in varchars))]


@st.composite
def _corrupted(draw):
    """A ``_readbacks`` case with one to three corruptions of its segments:
    a buffer's length, a varchar offset, a varchar payload byte (made a
    UTF-8 continuation or lead byte), a validity byte, or a row count.  The
    keep mask, when there is one, has an entry per declared row, as a
    handle's does; with a negative row count there is none."""
    specs, segments, _ = draw(_readbacks().filter(lambda case: case[1]))
    varchars = {spec.name for spec in specs if isinstance(spec.ftype, VarChar)}
    segments = [[rows, dict(buffers)] for rows, buffers in segments]
    for _ in range(draw(st.integers(1, 3))):
        kinds = [kind for kind in ("rows", "length", *BUFFER_KINDS)
                 if _sites(kind, segments, varchars)]
        kind = draw(st.sampled_from(kinds))
        segment, key = draw(st.sampled_from(_sites(kind, segments, varchars)))
        rows, buffers = segment
        if kind == "rows":
            segment[0] = draw(st.integers(-2, rows + 3).filter(lambda n: n != rows))
            continue
        raw = buffers[key]
        if kind == "length":
            size = draw(st.integers(0, len(raw) + 9).filter(lambda n: n != len(raw)))
            buffers[key] = raw[:size] + bytes(max(size - len(raw), 0))
            continue
        width = WIDTHS[kind]
        at = width * draw(st.integers(0, len(raw) // width - 1))
        if kind == "offsets":
            payload = len(buffers.get((key[0], KIND_VALUES), b""))
            value = struct.pack("<I", draw(st.one_of(st.integers(0, payload + 2),
                                                     st.integers(0, 2**32 - 1))))
        else:
            value = bytes([draw(st.integers(0x80 if kind == "utf8" else 0, 0xFF))])
        buffers[key] = raw[:at] + value + raw[at + width:]
    declared = [rows for rows, _ in segments]
    keep = None
    if min(declared) >= 0 and draw(st.booleans()):
        keep = np.array(draw(st.lists(st.booleans(), min_size=sum(declared),
                                      max_size=sum(declared))), dtype=bool)
    return specs, [tuple(segment) for segment in segments], keep


@settings(max_examples=150, deadline=None)
@given(case=_corrupted())
def test_corrupt_segments_raise_only_typed_errors(case):
    """``assemble``, and ``gather_buffers`` which checks as it does, return
    or raise an ``NdtError`` on any corruption; nothing else escapes."""
    specs, segments, keep = case
    for read in (assemble, gather):
        try:
            read(specs, segments, keep)
        except NdtError:
            pass
