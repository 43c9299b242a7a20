"""Near-storage row-to-columnar transformations over MVCC snapshots.

The package models a host DBMS (row store, version chains, shared-state
delta buffer) attached to an emulated smart-storage device that builds
transactionally consistent snapshots in place and rewrites row data into
columnar form without moving it to the host.  Results stream up in
batches or stay materialized on-device, where they can be refreshed
incrementally as the row store changes.
"""

from .columns import ColumnSet, canonical_compare
from .device import Device, DeviceConfig, TransferLedger, configure, modeled_time
from .delta import compact, delta_cost, delta_transform, free_handle, masked_view
from .engine import (
    MODE_MATERIALIZE,
    MODE_STREAM,
    MaterializationHandle,
    NdtInvocation,
    materialize_results,
    plan_scratchpad,
    run_invocation,
    schedule,
    stream_results,
)
from .host import (
    HostSystem,
    Q6Params,
    WorkloadConfig,
    WorkloadDriver,
    orderline_schema,
    q6_columnar,
    q6_default_params,
)
from .layout import (
    Decimal,
    Int32,
    Int64,
    NsmPage,
    RecordHeader,
    RecordID,
    Schema,
    TimestampPg,
    VarChar,
    decode_field,
    decode_values,
    encode_record,
    encode_records,
    pg_timestamp_to_unix_epoch,
)
from .mvcc import MvccStore, SnapshotDescriptor, TOMBSTONE, oracle_visible_version
from .result_file import read_file, write_file, write_handle
from .shared_state import HostSharedState, SharedStateSnapshot

__version__ = "0.1.0"

__all__ = [
    "ColumnSet", "canonical_compare",
    "Device", "DeviceConfig", "TransferLedger", "configure", "modeled_time",
    "compact", "delta_cost", "delta_transform", "free_handle", "masked_view",
    "MODE_MATERIALIZE", "MODE_STREAM", "MaterializationHandle", "NdtInvocation",
    "materialize_results", "plan_scratchpad", "run_invocation", "schedule",
    "stream_results",
    "HostSystem", "Q6Params", "WorkloadConfig", "WorkloadDriver",
    "orderline_schema", "q6_columnar", "q6_default_params",
    "Decimal", "Int32", "Int64", "NsmPage", "RecordHeader", "RecordID",
    "Schema", "TimestampPg", "VarChar", "decode_field", "decode_values",
    "encode_record", "encode_records", "pg_timestamp_to_unix_epoch",
    "MvccStore", "SnapshotDescriptor", "TOMBSTONE", "oracle_visible_version",
    "read_file", "write_file", "write_handle",
    "HostSharedState", "SharedStateSnapshot",
]
