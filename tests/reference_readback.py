"""The per-segment read-back the joined column reader replaced, kept as the
reference it is checked against.

``read_segments`` pulls every fragment of a handle with its own
``Device.read_pages``, segment after segment.  ``assemble`` then checks
and decodes each segment alone (``decode_segment``: every buffer length
first, then each varchar column's offsets and UTF-8 in one
``decode_varchar``) and concatenates the kept rows of all of them
(``join_segments``).  A fault raises as the first faulty segment raises
it, and a read names the first fragment that is out of range or not
exposed to the host.
"""

from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from ndtsim.columns import (
    KIND_OFFSETS,
    KIND_VALIDITY,
    KIND_VALUES,
    OFFSETS_DTYPE,
    VALIDITY_DTYPE,
    VID_COLUMN,
    VID_DTYPE,
    ColumnSet,
    decode_varchar,
    unpack_bits,
    varchar_offsets,
)
from ndtsim.device import REQUESTER_HOST
from ndtsim.errors import CorruptDescriptor, LengthMismatch
from ndtsim.layout import TC_VARCHAR


def read_fragment(device, frag, requester=REQUESTER_HOST) -> bytes:
    """Pull one fragment's bytes off its pages, in order, in one
    ``Device.read_pages``."""
    return device.read_pages(frag.region, frag.pages, frag.nbytes, requester)


def read_segments(handle, requester=REQUESTER_HOST) -> list:
    """Every segment's ``(rows, buffers)``, read off all its fragment pages."""
    handle.require_live()
    return [(seg.rows, {key: read_fragment(handle.device, frag, requester)
                        for key, frag in seg.frags.items()})
            for seg in handle.segments]


def _array(raw, dtype, count: int, what: str) -> np.ndarray:
    width = np.dtype(dtype).itemsize
    if len(raw) != count * width:
        raise CorruptDescriptor(f"{what}: {len(raw)} bytes for {count} entries of {width}")
    return np.frombuffer(raw, dtype=dtype)


def split_segment(specs, buffers: dict, rows: int):
    """Check the buffer sizes of one segment and view its columns as arrays,
    decoding no value: ``(vids, data, validity)``, where ``data`` maps a
    varchar column to ``(payload, offsets)``."""
    def buffer(name, kind, dtype, count):
        return _array(buffers.get((name, kind), b""), dtype, count, f"{name} {kind}")

    vids = buffer(VID_COLUMN, KIND_VALUES, VID_DTYPE, rows)
    data: dict = {}
    validity: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        if spec.ftype.code == TC_VARCHAR:
            offsets = buffer(name, KIND_OFFSETS, OFFSETS_DTYPE, rows + 1 if rows else 0)
            data[name] = (bytes(buffers.get((name, KIND_VALUES), b"")),
                          offsets if rows else varchar_offsets([]))    # none stored for no rows
        else:
            data[name] = buffer(name, KIND_VALUES, f"<i{spec.ftype.width}", rows)
        validity[name] = (unpack_bits(buffer(name, KIND_VALIDITY, VALIDITY_DTYPE,
                                             (rows + 7) // 8), rows)
                          if spec.nullable else None)
    return vids, data, validity


def segment_masks(segments, keep) -> list:
    """Each segment's slice of the keep mask (None throughout when ``keep``
    is None); a mask of another length than the positions is a
    ``LengthMismatch``."""
    bounds = np.cumsum([0] + [rows for rows, _ in segments]).tolist()
    if keep is None:
        return [None] * len(segments)
    if len(keep) != bounds[-1]:
        raise LengthMismatch(f"keep mask has {len(keep)} entries for {bounds[-1]} positions")
    return [keep[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _joined(arrays) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class DecodedSegment(NamedTuple):
    vids: np.ndarray
    data: dict                    # name -> values array, or [str] of the kept rows
    validity: dict                # name -> bool array | None
    keep: Optional[np.ndarray]


def decode_segment(specs, rows: int, buffers: dict, keep=None) -> DecodedSegment:
    """Check one segment's buffers and decode the strings of the rows
    ``keep`` marks (all when None)."""
    vids, data, validity = split_segment(specs, buffers, rows)
    for spec in specs:
        if spec.ftype.code == TC_VARCHAR:
            data[spec.name] = decode_varchar(*data[spec.name], spec.name, keep)
    return DecodedSegment(vids, data, validity, keep)


def join_segments(specs, parts) -> ColumnSet:
    """The kept rows of decoded segments, concatenated in order (none reads
    as one empty segment)."""
    parts = parts or [decode_segment(specs, 0, {})]
    vids, data, validity, keeps = zip(*parts)
    take = slice(None) if keeps[0] is None else _joined(keeps)
    columns: dict = {}
    valid: dict = {}
    for spec in specs:
        name = spec.name
        if name == VID_COLUMN:
            continue
        column = tuple(map(itemgetter(name), data))
        columns[name] = (list(chain.from_iterable(column)) if spec.ftype.code == TC_VARCHAR
                         else _joined(column)[take])
        valid[name] = (_joined(tuple(map(itemgetter(name), validity)))[take]
                       if spec.nullable else None)
    vids = _joined(vids)[take]
    return ColumnSet(specs, vids, columns, valid, len(vids))


def assemble(specs, segments, keep=None) -> ColumnSet:
    """``decode_segment`` of each segment (a list of ``(rows, buffers)``),
    then ``join_segments``."""
    masks = segment_masks(segments, keep)
    return join_segments(specs, [decode_segment(specs, rows, buffers, mask)
                                 for (rows, buffers), mask in zip(segments, masks)])


def cache_free_view(handle) -> ColumnSet:
    """A handle's current rows, read and decoded segment by segment."""
    return assemble(handle.specs, read_segments(handle), handle.current)
