"""NDTC result files: pinned bytes, round trip, and typed errors on corruption."""

import hashlib
import random
import re

import numpy as np
import pytest

from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    ColumnSet,
    assemble,
    canonical_compare,
    column_buffers,
    result_specs,
)
from ndtsim.engine import MODE_MATERIALIZE
from ndtsim.errors import (
    BadMagic,
    CorruptDescriptor,
    LengthMismatch,
    NdtError,
    SchemaMismatch,
    UnsupportedVersion,
)
from ndtsim.host import HostSystem
from ndtsim.layout import Int32, Int64, Schema, VarChar
from ndtsim.result_file import _write_buffers, read_file, write_file, write_handle
from reference_readback import read_segments


def _refreshed_handle():
    """A materialization with outdated positions, NULLs and varchars."""
    system = HostSystem()
    shadow = system.load_orderlines(120, seed=41)
    system.merge_to_cold()
    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE, pe_count=3)
    t = system.store.begin_tx()
    for vid in random.Random(42).sample(sorted(shadow), 20):
        old = shadow[vid]
        system.store.install_version(t, vid, old[:8] + ("",))
    system.store.commit_tx(t)
    system.delta_refresh(handle, pe_count=3)
    return handle


def test_write_handle_bytes_are_pinned(tmp_path):
    handle = _refreshed_handle()
    path = tmp_path / "handle.ndtc"
    write_handle(path, handle)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HANDLE_SHA256

    column_set, bits = read_file(path)
    every_position = assemble(handle.specs, read_segments(handle))
    assert canonical_compare(column_set, every_position).equal
    assert np.array_equal(bits, handle.current)
    assert list(column_set.vids) == list(every_position.vids)


def test_empty_file_bytes_are_pinned(tmp_path):
    handle = _refreshed_handle()
    empty = assemble(handle.specs, read_segments(handle)).mask(np.zeros(handle.total_positions, dtype=bool))
    path = tmp_path / "empty.ndtc"
    write_file(path, empty, snapshot_ts=7)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EMPTY_SHA256
    column_set, bits = read_file(path)
    assert column_set.n_rows == 0 and len(bits) == 0


@pytest.mark.parametrize("key, data", [(("n", KIND_VALIDITY), b"\x00"),
                                       (("s", KIND_OFFSETS), bytes(4))],
                         ids=["validity_byte", "single_offset"])
def test_empty_file_with_column_bytes_is_rejected(tmp_path, key, data):
    """A file of no rows stores no validity bits and no offsets: not even
    the one offset 0 that ``rows + 1`` would give."""
    specs = result_specs(Schema("t", [("n", Int32(), True), ("s", VarChar(8), False)]),
                         ("n", "s"))
    empty = ColumnSet(specs, np.zeros(0, dtype="<u8"), {"n": np.zeros(0, dtype="<i4"), "s": []},
                      {"n": np.zeros(0, dtype=bool), "s": None}, 0)
    path = tmp_path / "empty.ndtc"
    write_file(path, empty)
    column_set, bits = read_file(path)
    assert column_set.n_rows == 0 and len(bits) == 0
    buffers = {**column_buffers(empty), key: data}
    _write_buffers(path, specs, 0, buffers, np.zeros(0, dtype=bool), 0)
    with pytest.raises(CorruptDescriptor):
        read_file(path)


def test_a_visibility_of_another_length_is_a_length_mismatch(tmp_path):
    specs = result_specs(Schema("t", [("n", Int32(), False)]), ("n",))
    column_set = ColumnSet(specs, np.arange(3, dtype="<u8"), {"n": np.arange(3, dtype="<i4")},
                           {"n": None}, 3)
    path = tmp_path / "short.ndtc"
    with pytest.raises(LengthMismatch, match="visibility has 2 bits for 3 rows"):
        write_file(path, column_set, visibility=np.ones(2, dtype=bool))
    assert not path.exists()


def test_corrupt_files_raise_only_typed_errors(tmp_path):
    """Flip 1-4 bits in the header, schema and descriptor region, 3000 times:
    every failure must be an NdtError, never a bare Python exception."""
    path = tmp_path / "handle.ndtc"
    write_handle(path, _refreshed_handle())
    good = path.read_bytes()
    rng = random.Random(2601)
    failures = 0
    for _ in range(3000):
        raw = bytearray(good)
        for _ in range(rng.randint(1, 4)):
            raw[rng.randrange(600)] ^= 1 << rng.randrange(8)
        path.write_bytes(raw)
        try:
            read_file(path)
        except NdtError:
            failures += 1
    assert failures > 0


def _empty_set(*columns) -> ColumnSet:
    """A result of no rows with the non-nullable ``(name, type)`` columns."""
    specs = result_specs(Schema("t", [(name, ftype, False) for name, ftype in columns]),
                         [name for name, _ftype in columns])
    return ColumnSet(specs, np.zeros(0, dtype="<u8"),
                     {name: np.zeros(0, dtype="<i8") for name, _ftype in columns},
                     {name: None for name, _ftype in columns}, 0)


def _read_patched(tmp_path, at: int, data: bytes):
    """``read_file`` of a written file whose bytes from ``at`` are ``data``."""
    path = tmp_path / "patched.ndtc"
    write_file(path, _empty_set(("n", Int32())))
    raw = bytearray(path.read_bytes())
    raw[at:at + len(data)] = data
    path.write_bytes(raw)
    return read_file(path)


INT_N = ("n", Int32())
NAMED_ERRORS = {
    "magic": (BadMagic, "magic b'XDTC'", lambda tmp: _read_patched(tmp, 0, b"XDTC")),
    "version 2": (UnsupportedVersion, "format version 2",
                  lambda tmp: _read_patched(tmp, 4, (2).to_bytes(4, "little"))),
    "column count": (SchemaMismatch, "2 vs 3 columns", lambda tmp: canonical_compare(
        _empty_set(INT_N), _empty_set(INT_N, ("m", Int32())))),
    "column name": (SchemaMismatch, "column 'n' vs 'm'", lambda tmp: canonical_compare(
        _empty_set(INT_N), _empty_set(("m", Int32())))),
    "column type": (SchemaMismatch, "column 'n': ", lambda tmp: canonical_compare(
        _empty_set(INT_N), _empty_set(("n", Int64())))),
}


@pytest.mark.parametrize("case", NAMED_ERRORS)
def test_a_foreign_file_or_schema_raises_its_named_error(tmp_path, case):
    """A file with another magic or format version, and results whose
    columns differ in count, name or type, each raise their own error."""
    error, message, call = NAMED_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


HANDLE_SHA256 = "352d4a8faab533cdefd118d84d08a2a2c12b292c2e3556e6acd2bb97307fba33"
EMPTY_SHA256 = "ca9dee13490cff6c0e46c913abd9b60c724b757b45cc3f3fd7aff96b1516c930"
