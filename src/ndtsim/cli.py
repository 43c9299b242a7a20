"""Benchmark command line: htap, transform, and delta experiments.

Exit codes: 0 ok, 1 configuration error, 2 runtime error, 3 verification
failure.  NDT_LOG controls verbosity (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import random
import sys

import numpy as np

from .columns import canonical_compare
from .delta import masked_view
from .device import GIB, DeviceConfig, ledger_csv_rows, modeled_time
from .engine import (
    MODE_MATERIALIZE,
    MODE_STREAM,
    columns_from_batches,
    plan_scratchpad,
    run_invocation,
)
from .errors import InvalidConfig, NdtError, ScratchpadTooSmall
from .host import (
    HostSystem,
    WorkloadConfig,
    WorkloadDriver,
    orderline_schema,
    q6_columnar,
    q6_default_params,
)
from .layout import PAGE_SIZE
from .result_file import read_file, write_handle
from .shared_state import REGION_HOST

log = logging.getLogger("ndtsim")

ROWS_PER_SF = 3000


class VerificationFailure(Exception):
    pass


def _device_config(args) -> DeviceConfig:
    """The device of ``--pe`` and ``--scratchpad-bytes``: every command transforms
    the whole orderline table, so a scratchpad too small for it is a config error."""
    cfg = DeviceConfig()
    if getattr(args, "pe", None):
        cfg.pe_count = args.pe
    if getattr(args, "scratchpad_bytes", None) is not None:
        cfg.scratchpad_bytes = args.scratchpad_bytes
    cfg.validate()
    schema = orderline_schema()
    try:
        plan_scratchpad(schema, [a.name for a in schema.attributes], cfg.scratchpad_bytes)
    except ScratchpadTooSmall as exc:
        raise InvalidConfig(f"--scratchpad-bytes: {exc}") from None
    return cfg


def _table_rows(args) -> int:
    """Rows to load: ``--rows`` where the command takes it and it is set, else
    ``--sf`` units.  A negative size is a configuration error."""
    rows = getattr(args, "rows", 0)
    for flag, value in (("--sf", args.sf), ("--rows", rows)):
        if value < 0:
            raise InvalidConfig(f"{flag} {value} is negative")
    return rows or args.sf * ROWS_PER_SF


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s (%d rows)", path, len(rows))


def _require_equal(got, expected, what: str):
    result = canonical_compare(got, expected)
    if not result.equal:
        raise VerificationFailure(f"{what}: {result.reason} (vid {result.vid}, {result.attr}: "
                                  f"{result.left!r} vs {result.right!r})")


def _committed_table(system):
    """Every committed row, read by the host oracle at a fresh reader snapshot."""
    with system.reader() as reader:
        return system.oracle_column_set(system.store.snapshot_descriptor(reader))


def cmd_htap(args) -> int:
    """Foreground-impact experiment: OLTP alone vs OLTP with a concurrent
    transformation.

    The co-executed materialization must equal the host oracle at its
    snapshot, and both runs must end with the same committed table.
    """
    if not 1 <= args.intervals <= args.tx_count:
        raise InvalidConfig(f"need 1 <= --intervals ({args.intervals}) <= --tx-count "
                            f"({args.tx_count})")
    rows = _table_rows(args)
    intervals = args.intervals
    per_interval = args.tx_count // intervals
    ndt_interval = max(intervals // 2 - 1, 0)     # the interval the transformation runs in

    def run(with_ndt: bool):
        system = HostSystem(_device_config(args))
        shadow = system.load_orderlines(rows, seed=args.seed)
        system.merge_to_cold()
        driver = WorkloadDriver(system, WorkloadConfig(seed=args.seed), shadow)
        counters = []
        ndt_rows = 0
        for i in range(intervals):
            before = system.store.op_count
            driver.run(per_interval)
            counters.append(system.store.op_count - before)
            if with_ndt and i == ndt_interval:
                inv, handle = system.transform_snapshot(mode=MODE_MATERIALIZE,
                                                        pe_count=args.pe or None)
                _require_equal(masked_view(handle), system.oracle_column_set(inv.descriptor),
                               "co-executed materialization vs host oracle")
                ndt_rows = handle.visible_rows
        return counters, ndt_rows, system

    base_counters, _, base_system = run(False)
    co_counters, ndt_rows, system = run(True)
    _require_equal(_committed_table(system), _committed_table(base_system),
                   "committed table with vs without the transformation")

    out_rows = [
        (i, base_counters[i], co_counters[i], ndt_rows if i == ndt_interval else 0)
        for i in range(intervals)
    ]
    if args.csv:
        _write_csv(args.csv, ["interval", "oltp_ops_baseline", "oltp_ops_coexec", "ndt_rows"],
                   out_rows)
    print(f"htap: {intervals} intervals x {per_interval} tx, table {rows} rows")
    print(f"  baseline oltp ops: {sum(base_counters)}")
    print(f"  co-exec  oltp ops: {sum(co_counters)} (ndt transformed {ndt_rows} rows)")
    print(f"  admin ops (invocation + grants): {system.admin_ops}")
    print("  materialization equals the host oracle; committed tables equal: PASS")
    return 0


def cmd_transform(args) -> int:
    """One transformation with movement split, against an export baseline."""
    if args.out and args.mode == MODE_STREAM:
        raise InvalidConfig("--out exports a materialization: it needs --mode materialize")
    rows = _table_rows(args)
    system = HostSystem(_device_config(args))
    system.load_orderlines(rows, seed=args.seed)
    system.merge_to_cold()

    before = system.device.ledger.snapshot()
    inv, result = system.transform_snapshot(mode=args.mode, pe_count=args.pe or None)
    delta = system.device.ledger.delta_since(before)
    times = modeled_time(delta, system.device.cfg)

    nsm_pages = sum(1 for loc in system.shared.l2p.values() if loc[0] != REGION_HOST)
    baseline_bytes = nsm_pages * PAGE_SIZE
    baseline_ns = baseline_bytes / (system.device.cfg.host_read_gib_s * GIB) * 1e9

    if args.mode == MODE_MATERIALIZE:
        result_bytes = result.column_bytes
        out_rows = result.visible_rows
    else:
        result_bytes = sum(b.payload_bytes for b in result)
        view = columns_from_batches(system.schema, inv.projection, result, inv.pe_count)
        out_rows = view.n_rows

    print(f"transform: {rows} rows loaded, mode={args.mode}, pe={inv.pe_count}, "
          f"scratchpad={system.device.cfg.scratchpad_bytes}")
    print(f"  result rows: {out_rows}, result bytes: {result_bytes}")
    print(f"  device-internal read/write: {delta['device_internal_bytes_read']}/"
          f"{delta['device_internal_bytes_written']}")
    print(f"  device-to-host: {delta['device_to_host_bytes']} bytes "
          f"(export baseline would move {baseline_bytes})")
    print(f"  modeled total: {times['total_ns'] / 1e6:.3f} ms "
          f"(baseline link time {baseline_ns / 1e6:.3f} ms)")

    if args.q6:
        params = q6_default_params()
        if args.mode == MODE_MATERIALIZE:
            view = masked_view(result)
        expected = system.q6_rowstore(inv.descriptor, params)
        got = q6_columnar(view, params)
        print(f"  q6 columnar: {got}  rowstore: {expected}")
        if got != expected:
            raise VerificationFailure(f"q6 mismatch: {got} vs {expected}")

    if args.csv:
        _write_csv(args.csv, ["category", "bytes", "ops", "modeled_ns"],
                   ledger_csv_rows(delta, system.device.cfg))
    if args.out:
        write_handle(args.out, result)
        exported, current = read_file(args.out)
        _require_equal(exported.mask(current), masked_view(result), f"export {args.out}")
        print(f"  exported {args.out}; read back, it equals the view")
    return 0


def _parse_fractions(text: str) -> list:
    """Percentages from ``10,20,50`` or ``lo..hi[:step]``, each in 0..100."""
    text = text.strip()
    try:
        if ".." in text:
            span, _, step = text.partition(":")
            lo, _, hi = span.partition("..")
            fractions = list(range(int(lo), int(hi) + 1, int(step) if step else 10))
        else:
            fractions = [int(p) for p in text.split(",") if p]
    except ValueError as exc:          # an unparseable entry, or a zero step
        raise InvalidConfig(f"--delta-fractions {text!r}: {exc}") from None
    if not all(0 <= f <= 100 for f in fractions):
        raise InvalidConfig(f"--delta-fractions {text!r}: need values in 0..100")
    return fractions


def cmd_delta(args) -> int:
    """Incremental-refresh experiment over increasing modification fractions;
    every refreshed materialization must equal the host oracle."""
    fractions = _parse_fractions(args.delta_fractions)
    rows = _table_rows(args)
    modified = [rows * fraction // 100 for fraction in fractions]
    if len(set(modified)) < 2:          # the linearity check fits a line through them
        raise InvalidConfig(f"--delta-fractions {args.delta_fractions!r} of {rows} rows modify "
                            f"{sorted(set(modified))} rows: need two or more distinct counts")
    system = HostSystem(_device_config(args))
    shadow = system.load_orderlines(rows, seed=args.seed)
    system.merge_to_cold()

    _, handle = system.transform_snapshot(mode=MODE_MATERIALIZE, pe_count=args.pe or None)
    initial_bytes = handle.column_bytes
    print(f"delta: table {rows} rows, initial materialization {initial_bytes} bytes")

    rng = random.Random(args.seed + 1)
    out_rows = []
    vids = list(shadow)
    for fraction, n_mod in zip(fractions, modified):
        targets = rng.sample(vids, n_mod)
        t = system.store.begin_tx()
        updated = [shadow[vid][:6] + (shadow[vid][6] + 1,) + shadow[vid][7:] for vid in targets]
        system.store.install_versions(t, targets, updated)
        shadow.update(zip(targets, updated))
        system.store.commit_tx(t)
        system.merge_to_cold()

        rows_before, bytes_before = handle.total_positions, handle.column_bytes
        with system.reader() as caller:
            inv = system.prepare_invocation(caller, handle.projection, MODE_MATERIALIZE,
                                            args.pe or None, prior_handle=handle)
            # measured from here, so propagation and the command are not the refresh's cost
            before = system.device.ledger.snapshot()
            run_invocation(inv, system.device, system.grant_space, handle=handle)
            cost = system.device.ledger.delta_since(before)
        appended_rows = handle.total_positions - rows_before
        appended_bytes = handle.column_bytes - bytes_before
        total_ns = modeled_time(cost, system.device.cfg)["total_ns"]

        _require_equal(masked_view(handle),
                       system.oracle_column_set(handle.snapshot, handle.projection),
                       f"fraction {fraction}%")
        out_rows.append((fraction, appended_rows, appended_bytes,
                         cost["device_internal_bytes_read"], cost["device_internal_bytes_written"],
                         round(total_ns)))
        print(f"  {fraction:3d}%: appended {appended_rows} rows / "
              f"{appended_bytes} bytes, modeled {total_ns / 1e6:.3f} ms")

    mods = np.array([r[1] for r in out_rows], dtype=float)
    appended = np.array([r[2] for r in out_rows], dtype=float)
    slope, intercept = np.polyfit(mods, appended, 1)
    predicted = slope * mods + intercept
    ss_res = float(np.sum((appended - predicted) ** 2))
    ss_tot = float(np.sum((appended - appended.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    print(f"  linear fit: appended_bytes = {slope:.2f} * rows + {intercept:.1f}, R^2 = {r2:.6f}")
    if 100 in fractions:
        full_bytes = out_rows[fractions.index(100)][2]
        ratio = full_bytes / initial_bytes
        print(f"  100% refresh vs initial bytes: {ratio:.4f}")
        if abs(ratio - 1.0) > 0.05:
            raise VerificationFailure(f"100% refresh bytes off initial by {ratio:.3f}")
    if r2 < 0.99:
        raise VerificationFailure(f"linear fit R^2 {r2:.4f} < 0.99")

    if args.csv:
        _write_csv(args.csv, ["fraction", "modified_rows", "appended_bytes",
                              "internal_read", "internal_write", "modeled_ns"], out_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndtsim",
        description="Near-storage row-to-columnar transformation benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--sf", type=int, default=10, help="scale factor (3000 rows per unit)")
        p.add_argument("--pe", type=int, default=0, help="processing elements (default: device max)")
        p.add_argument("--scratchpad-bytes", type=int, default=None,
                       help="bytes of each PE's scratchpad (default: 65536)")
        p.add_argument("--csv", help="write per-row results to this CSV file")

    p = sub.add_parser("htap", help="foreground-impact experiment")
    common(p)
    p.add_argument("--tx-count", type=int, default=2000)
    p.add_argument("--intervals", type=int, default=10)
    p.set_defaults(func=cmd_htap)

    p = sub.add_parser("transform", help="one transformation with movement accounting")
    common(p)
    p.add_argument("--mode", choices=[MODE_STREAM, MODE_MATERIALIZE], default=MODE_MATERIALIZE)
    p.add_argument("--out", help="export the materialized result to this file")
    p.add_argument("--q6", action="store_true", help="verify the aggregate against the row store")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("delta", help="incremental-refresh cost experiment")
    common(p)
    p.add_argument("--rows", type=int, default=0, help="override table row count")
    p.add_argument("--delta-fractions", default="10..100:10", help="e.g. 10,20,50 or 10..100:10")
    p.set_defaults(func=cmd_delta)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("NDT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except InvalidConfig as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NdtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
