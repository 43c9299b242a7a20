"""The batch transform: physical output and order, and a differential check.

``PINS`` (``batch_path_pins.json``) holds the physical output of two runs:
which pages every fragment of a materialization occupies and the bytes it
holds, and the chunk list of every pulled stream batch (sha256 values are
cut to 16 hex digits).  The values were
recorded from the per-record transform that the batch transform replaced,
so they pin the order in which flushes reach the sinks, not only the
logical result.  The Hypothesis test compares random schemas, PE counts and
scratchpads against a reference decoded record by record.
"""

import hashlib
import json
import random
from decimal import Decimal as D
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndtsim.columns import ColumnSet, canonical_compare, result_specs
from ndtsim.delta import masked_view
from ndtsim.device import DeviceConfig, op_total
from ndtsim.engine import (
    MODE_MATERIALIZE,
    MODE_STREAM,
    RECORD_LOAD_BYTES,
    columns_from_batches,
    plan_scratchpad,
    run_invocation,
)
from ndtsim.errors import CorruptRecord
from ndtsim.host import orderline_schema
from ndtsim.layout import (
    PAGE_SIZE,
    TC_DECIMAL,
    TC_TIMESTAMP,
    TC_VARCHAR,
    Decimal,
    Int32,
    Int64,
    Schema,
    TimestampPg,
    VarChar,
    decimal_to_scaled,
    pg_timestamp_to_unix_epoch,
)
from conftest import Harness, page_of, random_orderline
from reference import decode_values
from reference_readback import read_fragment

PINS = json.loads((Path(__file__).parent / "batch_path_pins.json").read_text())


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def _orderline_rows(n: int, seed: int) -> dict:
    """Order lines with NULL deliveries, empty and multi-byte varchars."""
    rng = random.Random(seed)
    rows = {}
    for vid in range(1, n + 1):
        row = random_orderline(rng, order_id=vid, null_delivery=rng.random() < 0.2)
        if rng.random() < 0.15:
            row = row[:8] + ("é€"[rng.randrange(2)] * rng.randint(1, 8),)
        rows[vid] = row
    return rows


def materialize_case() -> dict:
    """3 PEs, 40 bytes of partitions (varchars spill oversize), 4 pages (grants)."""
    h = Harness(orderline_schema(), DeviceConfig(scratchpad_bytes=8 * 1024 + 40))
    h.install_rows(_orderline_rows(300, seed=41))
    h.shared.propagate()
    h.shared.merge_delta_pages()
    inv = h.prepare(projection=("ol_delivery_d", "ol_quantity", "ol_dist_info"),
                    pe_count=3, pages=4)
    handle = run_invocation(inv, h.device, grantor=h.grantor)
    frags = {}
    for seg in handle.segments:
        for (name, kind), frag in seg.frags.items():
            frags[f"{seg.pe}/{name}/{kind}"] = {
                "pages": list(frag.pages),
                "sha256_16": _sha(read_fragment(h.device, frag, "COORD")),
            }
    return {
        "rows": [seg.rows for seg in handle.segments],
        "space_requests": op_total(h.device.ledger, "space_request"),
        "fragments": frags,
    }


def stream_case() -> dict:
    """4 PEs, 16 KiB stream buffers, small partitions (many mid-run flushes)."""
    cfg = DeviceConfig(stream_buffer_bytes=16 * 1024, scratchpad_bytes=8 * 1024 + 1024)
    h = Harness(orderline_schema(), cfg)
    h.install_rows(_orderline_rows(600, seed=42))
    inv = h.prepare(mode=MODE_STREAM, pe_count=4)
    batches = run_invocation(inv, h.device, grantor=h.grantor)
    return {
        "batches": [[[pe, name, kind, len(payload), _sha(payload)]
                     for pe, name, kind, payload in batch.chunks]
                    for batch in batches],
        "writes": {str(pe): ops.get("write", 0)
                   for pe, ops in sorted(h.device.ledger.pe_ops.items())},
    }


def test_materialize_pages_and_bytes_pinned():
    assert materialize_case() == PINS["materialize"]


def test_stream_chunk_order_pinned():
    assert stream_case() == PINS["stream"]


# -- differential check against record-by-record decoding --------------------------

_TYPES = {
    "int32": (Int32(), st.integers(-2**31, 2**31 - 1)),
    "int64": (Int64(), st.integers(-2**63, 2**63 - 1)),
    "decimal": (Decimal(9, 3), st.integers(-10**9 + 1, 10**9 - 1).map(lambda n: D(n).scaleb(-3))),
    "timestamp": (TimestampPg(), st.integers(-2**63, 2**63 - 1)),
    "varchar": (VarChar(24), st.text(st.sampled_from("ab€é\U0001f600"), max_size=12)
                .filter(lambda s: len(s.encode()) <= 24)),
}


@st.composite
def _tables(draw):
    """A schema and its rows.  Wide schemas of 9 to 16 or 65 to 72 attributes
    give null bitmaps of 2 or 9 bytes.  Few of their attributes are nullable,
    the last always, and each other attribute holds one value in every row,
    so many rows share a null mask but for a NULL past the 64th attribute."""
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from(sorted(_TYPES)), min_size=1, max_size=4))
        nullable = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
        rows = draw(st.lists(st.tuples(*[st.one_of(st.none(), _TYPES[k][1]) if n
                                         else _TYPES[k][1] for k, n in zip(kinds, nullable)]),
                             max_size=40))
    else:
        n = draw(st.one_of(st.integers(9, 16), st.integers(65, 72)))
        kinds = draw(st.lists(st.sampled_from(sorted(_TYPES)), min_size=n, max_size=n))
        nulls = sorted(draw(st.sets(st.integers(0, n - 1), max_size=3)) | {n - 1})
        nullable = [i in nulls for i in range(n)]
        base = [draw(_TYPES[k][1]) for k in kinds]
        varied = draw(st.lists(st.tuples(*[st.one_of(st.none(), _TYPES[kinds[i]][1])
                                           for i in nulls]), min_size=16, max_size=40))
        rows = []
        for values in varied:
            row = list(base)
            for i, value in zip(nulls, values):
                row[i] = value
            rows.append(tuple(row))
    attrs = [(f"c{i}", _TYPES[k][0], n) for i, (k, n) in enumerate(zip(kinds, nullable))]
    return Schema("t", attrs), rows


def _reference(schema: Schema, projection, records: dict) -> ColumnSet:
    """Expected result, decoded one record at a time by ``decode_values``."""
    specs = result_specs(schema, projection)
    vids = sorted(records)
    decoded = [decode_values(schema, records[vid]) for vid in vids]
    data, validity = {}, {}
    for name in projection:
        i = schema.index_of[name]
        ftype = schema.attributes[i].ftype
        values = [row[i] for row in decoded]
        if schema.attributes[i].nullable:
            validity[name] = np.array([v is not None for v in values], dtype=bool)
        else:
            validity[name] = None
        if ftype.code == TC_VARCHAR:
            data[name] = ["" if v is None else v for v in values]
            continue
        if ftype.code == TC_DECIMAL:
            values = [None if v is None else decimal_to_scaled(v, ftype) for v in values]
        elif ftype.code == TC_TIMESTAMP:
            values = [None if v is None else pg_timestamp_to_unix_epoch(v) for v in values]
        width = 4 if isinstance(ftype, Int32) else 8
        data[name] = np.array([0 if v is None else v for v in values], dtype=f"<i{width}")
    return ColumnSet(specs, np.array(vids, dtype="<u8"), data, validity, len(vids))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables(), pe_count=st.integers(1, 8), tiny=st.booleans(),
       mode=st.sampled_from([MODE_MATERIALIZE, MODE_STREAM]), pages=st.integers(1, 6))
def test_batch_transform_matches_record_decoding(table, pe_count, tiny, mode, pages):
    schema, rows = table
    projection = tuple(a.name for a in schema.attributes)
    scratchpad = 64 * 1024
    if tiny:
        parts = len(plan_scratchpad(schema, projection, 64 * 1024))
        scratchpad = RECORD_LOAD_BYTES + 8 * parts
    h = Harness(schema, DeviceConfig(scratchpad_bytes=scratchpad))
    rids = h.install_rows({vid: row for vid, row in enumerate(rows, start=1)})
    records = {vid: h.shared.read_record(rid) for vid, rid in rids.items()}
    inv = h.prepare(projection, mode=mode, pe_count=pe_count, pages=pages)
    if mode == MODE_STREAM:
        got = columns_from_batches(schema, projection,
                                   run_invocation(inv, h.device, grantor=h.grantor), pe_count)
    else:
        got = masked_view(run_invocation(inv, h.device, grantor=h.grantor))
    result = canonical_compare(got, _reference(schema, projection, records))
    assert result, result


def test_corrupt_varlen_prefix_raises_and_frees_pages():
    schema = Schema("t", [("a", Int32(), False), ("s", VarChar(16), False)])
    h = Harness(schema)
    h.install_rows({vid: (vid, "x" * vid) for vid in range(1, 9)})
    inv = h.prepare(pe_count=2, pages=4)
    head = dict(inv.vid_view.tolist())[5]
    region, idx = page_of(inv.l2p_view, head >> 16)
    page = h.device.peek(region, idx * PAGE_SIZE, PAGE_SIZE)
    slot = head & 0xFFFF
    off = int.from_bytes(page[PAGE_SIZE - 4 * (slot + 1):PAGE_SIZE - 4 * slot - 2], "little")
    # header 26 bytes, int32 at 28, the varchar's u16 length prefix at 32
    page[off + 32:off + 34] = (0xFFFF).to_bytes(2, "little")
    del page
    with pytest.raises(CorruptRecord):
        run_invocation(inv, h.device, grantor=h.grantor)
    assert h.device.owner_pages(inv.owner) == set()
