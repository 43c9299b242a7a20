"""Near-storage row-to-columnar transformations over MVCC snapshots.

The package models a host DBMS (row store, version chains, shared-state
delta buffer) attached to an emulated smart-storage device that builds
transactionally consistent snapshots in place and rewrites row data into
columnar form without moving it to the host.  Results stream up in
batches or stay materialized on-device, where they can be refreshed
incrementally as the row store changes.
"""
