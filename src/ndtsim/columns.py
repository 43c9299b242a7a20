"""Logical columnar results: typed buffers plus row identity.

A ColumnSet is the in-memory form of a transformation result: one numpy
array (or string list) per projected attribute, optional validity arrays
for nullable attributes, and the per-row tuple identity vector that makes
order-insensitive comparison possible.  Buffer encodings mirror what the
device writes:

* Int32 -> little-endian i4; Int64 / Decimal (scaled) / converted
  timestamps (seconds since the UNIX epoch) -> little-endian i8
* varchar -> UTF-8 payload plus a u4 offsets vector of length rows+1
* validity -> LSB-first bitmap, 1 = value present
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal as PyDecimal
from typing import NamedTuple, Optional

import numpy as np

from .errors import CorruptDescriptor, SchemaMismatch
from .layout import (
    TC_DECIMAL,
    TC_INT32,
    TC_VARCHAR,
    Int64,
    Schema,
)

KIND_VALUES = "values"
KIND_VALIDITY = "validity"
KIND_OFFSETS = "offsets"

VID_COLUMN = "__vid"


def value_width(ftype) -> int:
    """Byte width of one value slot in a result buffer (varchar excluded)."""
    return 4 if ftype.code == TC_INT32 else 8


class ColumnSpec(NamedTuple):
    name: str
    ftype: object
    nullable: bool


def result_specs(schema: Schema, projection) -> tuple:
    """Column specs for a projection, with the implicit row-identity column."""
    specs = [ColumnSpec(VID_COLUMN, Int64(), False)]
    for name in projection:
        attr = schema.attribute(name)
        specs.append(ColumnSpec(attr.name, attr.ftype, attr.nullable))
    return tuple(specs)


@dataclass
class ColumnSet:
    """One logical result: aligned arrays keyed by attribute name."""

    specs: tuple                  # ColumnSpec per column, __vid first
    vids: np.ndarray              # u8, row identity
    data: dict                    # name -> np.ndarray | list[str]
    validity: dict                # name -> np.ndarray(bool) | None
    n_rows: int

    def column_names(self):
        return [s.name for s in self.specs if s.name != VID_COLUMN]

    def mask(self, keep: np.ndarray) -> "ColumnSet":
        data = {}
        for name, arr in self.data.items():
            if isinstance(arr, list):
                data[name] = [arr[i] for i in np.flatnonzero(keep)]
            else:
                data[name] = arr[keep]
        validity = {n: (v[keep] if v is not None else None) for n, v in self.validity.items()}
        return ColumnSet(self.specs, self.vids[keep], data, validity, int(keep.sum()))

    def sorted_by_vid(self) -> "ColumnSet":
        order = np.argsort(self.vids, kind="stable")
        data = {}
        for name, arr in self.data.items():
            if isinstance(arr, list):
                data[name] = [arr[i] for i in order]
            else:
                data[name] = arr[order]
        validity = {n: (v[order] if v is not None else None) for n, v in self.validity.items()}
        return ColumnSet(self.specs, self.vids[order], data, validity, self.n_rows)

    def logical_value(self, name: str, row: int):
        """Decoded value at a row: None when invalid, Decimal for decimals."""
        v = self.validity.get(name)
        if v is not None and not v[row]:
            return None
        spec = next(s for s in self.specs if s.name == name)
        raw = self.data[name][row]
        if isinstance(raw, str):
            return raw
        raw = int(raw)
        if spec.ftype.code == TC_DECIMAL:
            return PyDecimal(raw).scaleb(-spec.ftype.scale)
        return raw


def _empty_arrays(specs):
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        if spec.name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            data[spec.name] = []
        else:
            width = value_width(spec.ftype)
            data[spec.name] = np.zeros(0, dtype=f"<i{width}")
        validity[spec.name] = np.zeros(0, dtype=bool) if spec.nullable else None
    return data, validity


def column_buffers(column_set: ColumnSet) -> dict:
    """Encode a column set into device buffers, {(name, kind): bytes}.

    The inverse of ``decode_segment``: values, then offsets (varchar, only
    when there are rows), then validity (nullable) per column, after the
    identity column.
    """
    out = {(VID_COLUMN, KIND_VALUES): column_set.vids.astype("<u8").tobytes()}
    for spec in column_set.specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        col = column_set.data[name]
        if spec.ftype.code == TC_VARCHAR:
            encoded = [s.encode("utf-8") for s in col]
            out[(name, KIND_VALUES)] = b"".join(encoded)
            if column_set.n_rows:
                ends = np.cumsum([0] + [len(e) for e in encoded])
                out[(name, KIND_OFFSETS)] = ends.astype("<u4").tobytes()
        else:
            out[(name, KIND_VALUES)] = col.astype(f"<i{value_width(spec.ftype)}").tobytes()
        if spec.nullable:
            bits = column_set.validity[name].astype(np.uint8)
            out[(name, KIND_VALIDITY)] = np.packbits(bits, bitorder="little").tobytes()
    return out


def decode_segment(specs, buffers: dict, rows: int):
    """Decode one device output segment (raw buffers for a run of rows)."""
    vid_buf = buffers.get((VID_COLUMN, KIND_VALUES), b"")
    vids = np.frombuffer(vid_buf, dtype="<u8")
    if len(vids) != rows:
        raise CorruptDescriptor(f"identity column has {len(vids)} entries for {rows} rows")
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        values = buffers.get((name, KIND_VALUES), b"")
        if spec.ftype.code == TC_VARCHAR:
            off_buf = buffers.get((name, KIND_OFFSETS), b"")
            offsets = np.frombuffer(off_buf, dtype="<u4")
            if rows == 0:
                if len(offsets) not in (0, 1):
                    raise CorruptDescriptor(f"{name}: offsets present for empty segment")
                data[name] = []
            else:
                if len(offsets) != rows + 1:
                    raise CorruptDescriptor(
                        f"{name}: {len(offsets)} offsets for {rows} rows"
                    )
                payload = bytes(values)
                if offsets[-1] != len(payload):
                    raise CorruptDescriptor(f"{name}: offsets end at {offsets[-1]}, payload {len(payload)}")
                try:
                    data[name] = [
                        payload[offsets[i]:offsets[i + 1]].decode("utf-8") for i in range(rows)
                    ]
                except UnicodeDecodeError as exc:
                    raise CorruptDescriptor(f"{name}: value is not UTF-8 ({exc})") from exc
        else:
            width = value_width(spec.ftype)
            arr = np.frombuffer(values, dtype=f"<i{width}")
            if len(arr) != rows:
                raise CorruptDescriptor(f"{name}: {len(arr)} values for {rows} rows")
            data[name] = arr
        if spec.nullable:
            bits_buf = buffers.get((name, KIND_VALIDITY), b"")
            if len(bits_buf) != (rows + 7) // 8:
                raise CorruptDescriptor(f"{name}: validity bitmap length {len(bits_buf)}")
            bits = np.unpackbits(np.frombuffer(bits_buf, dtype=np.uint8), bitorder="little")
            validity[name] = bits[:rows].astype(bool)
        else:
            validity[name] = None
    return vids, data, validity


def assemble(specs, segments) -> ColumnSet:
    """Concatenate decoded segments (list of (rows, buffers)) in order."""
    if not segments:
        data, validity = _empty_arrays(specs)
        return ColumnSet(specs, np.zeros(0, dtype="<u8"), data, validity, 0)
    parts = [decode_segment(specs, bufs, rows) for rows, bufs in segments]
    vids = np.concatenate([p[0] for p in parts])
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        cols = [p[1][name] for p in parts]
        if isinstance(cols[0], list):
            merged: list = []
            for c in cols:
                merged.extend(c)
            data[name] = merged
        else:
            data[name] = np.concatenate(cols)
        if spec.nullable:
            validity[name] = np.concatenate([p[2][name] for p in parts])
        else:
            validity[name] = None
    return ColumnSet(specs, vids, data, validity, len(vids))


@dataclass(frozen=True)
class CompareResult:
    equal: bool
    reason: str = ""
    vid: Optional[int] = None
    attr: Optional[str] = None
    left: object = None
    right: object = None

    def __bool__(self):
        return self.equal


def _specs_compatible(a: ColumnSet, b: ColumnSet):
    if len(a.specs) != len(b.specs):
        raise SchemaMismatch(f"{len(a.specs)} vs {len(b.specs)} columns")
    for sa, sb in zip(a.specs, b.specs):
        if sa.name != sb.name or sa.nullable != sb.nullable:
            raise SchemaMismatch(f"column {sa.name!r} vs {sb.name!r}")
        if sa.ftype != sb.ftype:
            raise SchemaMismatch(f"column {sa.name!r}: {sa.ftype} vs {sb.ftype}")


def canonical_compare(a: ColumnSet, b: ColumnSet) -> CompareResult:
    """Order-insensitive exact comparison: rows sorted by identity, then
    compared field by field; reports the first divergence."""
    _specs_compatible(a, b)
    if a.n_rows != b.n_rows:
        return CompareResult(False, f"row count {a.n_rows} vs {b.n_rows}")
    sa, sb = a.sorted_by_vid(), b.sorted_by_vid()
    if a.n_rows and not np.array_equal(sa.vids, sb.vids):
        idx = int(np.flatnonzero(sa.vids != sb.vids)[0])
        return CompareResult(False, "row identity sets differ",
                             vid=int(sa.vids[idx]), attr=VID_COLUMN,
                             left=int(sa.vids[idx]), right=int(sb.vids[idx]))
    for name in sa.column_names():
        va, vb = sa.validity.get(name), sb.validity.get(name)
        if va is not None and not np.array_equal(va, vb):
            idx = int(np.flatnonzero(va != vb)[0])
            return CompareResult(False, "validity differs", vid=int(sa.vids[idx]), attr=name,
                                 left=bool(va[idx]), right=bool(vb[idx]))
        ca, cb = sa.data[name], sb.data[name]
        if isinstance(ca, list):
            for i, (xa, xb) in enumerate(zip(ca, cb)):
                if va is not None and not va[i]:
                    continue
                if xa != xb:
                    return CompareResult(False, "value differs", vid=int(sa.vids[i]),
                                         attr=name, left=xa, right=xb)
        else:
            neq = ca != cb
            if va is not None:
                neq &= va
            if neq.any():
                idx = int(np.flatnonzero(neq)[0])
                return CompareResult(False, "value differs", vid=int(sa.vids[idx]), attr=name,
                                     left=sa.logical_value(name, idx),
                                     right=sb.logical_value(name, idx))
    return CompareResult(True)
