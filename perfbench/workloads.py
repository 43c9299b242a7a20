"""The ndtsim benchmark workloads and the checks that gate them.

Each workload is a setup followed by a fixed number of timed units (a
scan, or an OLTP round plus an invocation).  The unit count is derived from
``--seconds`` and a nominal unit cost on the reference machine, not from a
deadline: a deadline would let a faster commit do more rounds on a table
that grows with every round, so its counters, results and memory would no
longer be comparable with the parent's.  See README.md for why each
workload exists and what each metric means.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import Decimal as PyDecimal

import numpy as np

from ndtsim import columns, delta, engine, result_file
from ndtsim.device import modeled_time
from ndtsim.engine import MODE_STREAM
from ndtsim.host import HostSystem, WorkloadConfig, WorkloadDriver, q6_columnar, q6_default_params

ROWS_PER_SF = 3000


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload."""

    sf: int                    # table size, in units of ROWS_PER_SF rows
    unit_s: float              # nominal host seconds of one unit (2-core reference)
    min_units: int
    tx_per_round: int          # OLTP transactions per unit
    setups: int                # set-ups per run; setup_s is their median


SIZES = {
    "full": {
        "cold_scan": Size(sf=10, unit_s=0.625, min_units=2, tx_per_round=500, setups=3),
        "htap_refresh": Size(sf=10, unit_s=0.8, min_units=3, tx_per_round=500, setups=3),
        "htap_stream": Size(sf=10, unit_s=1.25, min_units=3, tx_per_round=500, setups=3),
    },
    "smoke": {
        "cold_scan": Size(sf=1, unit_s=1.0, min_units=2, tx_per_round=100, setups=2),
        "htap_refresh": Size(sf=1, unit_s=1.0, min_units=3, tx_per_round=100, setups=2),
        "htap_stream": Size(sf=1, unit_s=1.0, min_units=3, tx_per_round=100, setups=2),
    },
}

COMPACT_EVERY = 4              # htap_refresh: compact after every 4th refresh
WRITER_SHARE = 0.05            # htap_stream: share of live tuples the in-flight writer updates


ORACLE_UNITS = 5               # units per run compared with the oracle, spread evenly


def oracle_unit(i: int, units: int) -> bool:
    """Whether unit i of a run is compared with the oracle (the first and last always are)."""
    return i in {round(j * (units - 1) / (ORACLE_UNITS - 1)) for j in range(ORACLE_UNITS)}


class BenchFailure(Exception):
    """A correctness check failed."""


# -- machine speed ----------------------------------------------------------------

# Median host seconds of one reference_kernel() on the reference machine.
REFERENCE_KERNEL_S = 0.12

_KERNEL_RECORD = struct.Struct("<QQB")


def kernel_data() -> tuple:
    """The kernel's 16 MiB buffer and 200k-entry dict (about 41 MiB resident)."""
    return bytes(range(256)) * (64 * 1024), {i: i * 3 for i in range(200_000)}


def reference_kernel(buf: bytes, table: dict) -> float:
    """Host seconds of a fixed pure-Python job that shares no code with ndtsim.

    It unpacks records from scattered offsets of a 16 MiB buffer, looks keys
    up in a 200k-entry dict and appends byte slices, much as the emulator
    does.  A shared host's changing speed therefore slows it about as much
    as it slows the workloads.  Over twelve processes on a shared 2-core VM,
    a kernel like this one cut the spread of a streamed invocation's time
    from 18% to 10%; one whose data fit in cache reached only 17%.
    """
    span = len(buf) - _KERNEL_RECORD.size
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out, total = bytearray(), 0
        for i in range(60_000):
            offset = (i * 104_729) % span
            a, b, c = _KERNEL_RECORD.unpack_from(buf, offset)
            total += table[(i * 7919) % 200_000] + c
            out += buf[offset:offset + 12]
            if len(out) > 65_536:
                del out[:]
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Kernel timings ("marks") taken between a run's timed pieces.

    On a shared 2-core VM the host's speed switched between two levels,
    about 1.5x apart, often within a second, more than the program's own
    run-to-run noise.  A timing taken between marks j-1 and j (segment j)
    scaled by REFERENCE_KERNEL_S / (mean of those two marks) reads as host
    seconds on the reference machine at its nominal speed.  A mark closes
    every set-up, OLTP block, invocation phase and verification, so each
    piece is scaled by the speed measured just before and just after it.

    Each mark also starts with a full garbage collection, so that no timed
    piece pays for collecting the garbage an earlier piece left behind.  A
    gen-2 collection of a workload's heap takes about 60 ms, half of an
    OLTP block; landing in some blocks and not others, such collections
    spread `oltp_tx_per_s` by 14% over ten runs of `cold_scan`.
    """

    def __init__(self):
        # Built once, before any set-up, so that it adds the same ~41 MiB to
        # every run's peak memory instead of landing on some runs' peaks.
        self.data = kernel_data()
        self.marks: list = []

    def mark(self):
        gc.collect()
        self.marks.append(reference_kernel(*self.data))

    def segment(self) -> int:
        """The segment a timing taken now belongs to."""
        return len(self.marks)

    def scale(self, segment: int) -> float:
        return REFERENCE_KERNEL_S / statistics.fmean(self.marks[segment - 1:segment + 1])


# -- exact checks -------------------------------------------------------------


def ledger_totals(system: HostSystem) -> dict:
    """Ledger counters plus per-operation totals summed over PEs."""
    ledger = system.device.ledger
    out = ledger.counters()
    ops: dict = {}
    for pe_ops in ledger.pe_ops.values():
        for op, n in pe_ops.items():
            ops[op] = ops.get(op, 0) + n
    out.update({f"op.{op}": ops[op] for op in sorted(ops)})
    return out


def propagated_pages(system: HostSystem) -> int:
    return sum(1 for region, _ in system.shared.l2p.values() if region != "HOST")


def result_digest(view) -> str:
    """sha256 of a result's logical content, rows sorted by identity."""
    ordered = view.sorted_by_vid()
    h = hashlib.sha256(ordered.vids.astype("<u8").tobytes())
    for spec in ordered.specs[1:]:
        h.update(spec.name.encode())
        col = ordered.data[spec.name]
        valid = ordered.validity.get(spec.name)
        if isinstance(col, list):
            if valid is not None:
                col = [s if ok else "" for s, ok in zip(col, valid)]
            h.update(json.dumps(col).encode())
        else:
            if valid is not None:
                col = np.where(valid, col, 0)
            h.update(str(col.dtype).encode())
            h.update(np.ascontiguousarray(col).tobytes())
        if valid is not None:
            h.update(np.packbits(valid).tobytes())
    return h.hexdigest()


def require_equal(got, expected, what: str):
    result = columns.canonical_compare(got, expected)
    if not result.equal:
        raise BenchFailure(f"{what}: {result.reason} (vid {result.vid}, {result.attr}: "
                           f"{result.left!r} vs {result.right!r})")


# -- one pass over a workload ---------------------------------------------------


class Pass:
    """One set-up plus the timed units, with the host-time samples they gave."""

    def __init__(self, size: Size, seed: int, tracer=None, verify: bool = True):
        self.size = size
        rng = random.Random(seed)
        self.load_seed, self.oltp_seed, self.pick_seed = (rng.getrandbits(32) for _ in range(3))
        self.tracer = tracer
        self.verify = verify
        self.speed = None              # SpeedProbe; marks close every timed piece
        self.system = None
        self.setup_s = 0.0
        self.setup_segment = 0
        self.setup_ledger = None
        self.setup_pages = 0
        # Timings below are (seconds, speed segment) pairs; see SpeedProbe.
        self.invocation_phase_s = 0.0
        self.phase_s: list = []        # one per unit, summing to invocation_phase_s
        self.invocation_s: list = []
        self.oltp_s = 0.0
        self.tx_s: list = []           # step latencies, in blocks of tx_blocks
        self.tx_blocks: list = []      # (transactions, segment) per oltp() call
        self.verify_s: list = []
        self.attempted = 0
        self.walked = 0
        self.visible = 0
        self.changed = 0
        self.positions = 0
        self.outdated = 0
        self.export_bytes = 0
        self.digests: list = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    # -- phases --

    def set_up(self, workload: str):
        rows = self.size.sf * ROWS_PER_SF
        with self.span("bench.setup"):
            start = time.perf_counter()
            system = HostSystem()
            shadow = system.load_orderlines(rows, seed=self.load_seed)
            system.merge_to_cold()
            self.driver = WorkloadDriver(system, WorkloadConfig(seed=self.oltp_seed), shadow)
            if workload == "htap_refresh":
                _, self.handle = system.transform_snapshot()
            self.setup_s = time.perf_counter() - start
        self.setup_segment = self.segment()
        self.system = system
        self.setup_ledger = ledger_totals(system)
        self.setup_pages = propagated_pages(system)

    def segment(self) -> int:
        return self.speed.segment() if self.speed is not None else 0

    def mark(self):
        if self.speed is not None:
            self.speed.mark()

    def invocation_done(self, phase_s: float):
        self.invocation_phase_s += phase_s
        self.phase_s.append((phase_s, self.segment()))
        self.mark()

    def oltp(self, n_tx: int):
        step = self.driver.step
        samples = self.tx_s
        with self.span("bench.oltp"):
            start = time.perf_counter()
            for _ in range(n_tx):
                t0 = time.perf_counter()
                step()
                samples.append(time.perf_counter() - t0)
            self.oltp_s += time.perf_counter() - start
        self.tx_blocks.append((n_tx, self.segment()))
        self.mark()
        self.attempted += n_tx

    def check(self, inv, view, oracle: bool):
        """q6 on every invocation; oracle comparison and digest on selected ones."""
        with self.span("bench.verify"):
            start = time.perf_counter()
            if self.verify:
                params = q6_default_params()
                got = q6_columnar(view, params)
                expected = self.system.q6_rowstore(inv.descriptor, params)
                if got != expected:
                    raise BenchFailure(f"q6 {got} != row store {expected} at {inv.owner}")
                if oracle:
                    require_equal(view, self.system.oracle_column_set(inv.descriptor),
                                  f"{inv.owner} vs oracle")
            if oracle:
                self.digests.append(result_digest(view))
                if self.verify:
                    self.verify_s.append((time.perf_counter() - start, self.segment()))

    # -- workloads --

    def cold_scan(self, units: int, out_dir):
        """Scans of a table no transaction writes to.

        Each unit's OLTP block goes to self.driver, which the caller points
        at a second, identical set-up, so that the OLTP samples are spread
        over the run in short blocks as in the other workloads.
        """
        system = self.system
        path = out_dir / "cold_scan.ndtc"
        first_view = first_delta = None
        for i in range(units):
            self.oltp(self.size.tx_per_round)
            before = system.device.ledger.snapshot()
            with self.span("bench.invocation"):
                start = time.perf_counter()
                inv, handle = system.transform_snapshot()
                view = delta.masked_view(handle)
                self.invocation_s.append((time.perf_counter() - start, self.segment()))
                result_file.write_handle(path, handle)
                exported, current = result_file.read_file(path)
                delta.free_handle(handle)
                phase_s = time.perf_counter() - start
            self.attempted += 1
            self.walked += len(inv.vid_view)
            self.visible += view.n_rows
            self.export_bytes += path.stat().st_size
            ledger_delta = system.device.ledger.delta_since(before)
            self.invocation_done(phase_s)
            self.check(inv, view, oracle=oracle_unit(i, units))
            if self.verify:
                with self.span("bench.verify"):
                    require_equal(exported.mask(current), view, "exported file")
                    if i == 0:
                        first_view, first_delta = view, ledger_delta
                    else:
                        require_equal(view, first_view, f"scan {i} vs scan 0")
                        if ledger_delta != first_delta:
                            raise BenchFailure(f"scan {i} ledger delta differs from scan 0")
            self.mark()

    def htap_refresh(self, units: int, out_dir):
        system = self.system
        handle = self.handle
        for i in range(units):
            self.oltp(self.size.tx_per_round)
            with self.span("bench.invocation"):
                start = time.perf_counter()
                system.merge_to_cold()
                positions_before = handle.total_positions
                t0 = time.perf_counter()
                inv, handle = system.delta_refresh(handle)
                view = delta.masked_view(handle)
                self.invocation_s.append((time.perf_counter() - t0, self.segment()))
                self.positions += handle.total_positions
                self.outdated += handle.total_positions - view.n_rows
                self.changed += handle.total_positions - positions_before
                if (i + 1) % COMPACT_EVERY == 0:
                    delta.compact(handle)
                phase_s = time.perf_counter() - start
            self.attempted += 1
            self.walked += len(inv.vid_view)
            self.visible += view.n_rows
            self.invocation_done(phase_s)
            self.check(inv, view, oracle=oracle_unit(i, units))
            self.mark()
        self.handle = handle

    def htap_stream(self, units: int, out_dir):
        system = self.system
        store = system.store
        rng = random.Random(self.pick_seed)
        for i in range(units):
            self.oltp(self.size.tx_per_round)
            live = list(self.driver.shadow)
            picks = rng.sample(live, max(1, int(len(live) * WRITER_SHARE)))
            amounts = [PyDecimal(rng.randint(1, 999_999)).scaleb(-2) for _ in picks]
            with self.span("bench.writer"):
                writer = store.begin_tx()
                for vid, amount in zip(picks, amounts):
                    old = self.driver.shadow[vid]
                    store.install_version(writer, vid, old[:7] + (amount,) + old[8:])
            with self.span("bench.invocation"):
                start = time.perf_counter()
                inv, batches = system.transform_snapshot(mode=MODE_STREAM)
                view = engine.columns_from_batches(system.schema, inv.projection, batches,
                                                   inv.pe_count)
                elapsed = time.perf_counter() - start
                self.invocation_s.append((elapsed, self.segment()))
            self.attempted += 1
            self.walked += len(inv.vid_view)
            self.visible += view.n_rows
            if writer not in inv.descriptor.in_flight:
                raise BenchFailure("stream snapshot does not see the writer in flight")
            self.invocation_done(elapsed)
            self.check(inv, view, oracle=oracle_unit(i, units))
            with self.span("bench.writer"):
                store.abort_tx(writer)
            self.attempted += 1
            self.mark()

    # -- results --

    def timed_s(self) -> float:
        return self.setup_s + self.oltp_s + self.invocation_phase_s

    def fingerprint(self) -> dict:
        system = self.system
        out = {
            "setup_ledger": self.setup_ledger,
            "ledger": ledger_totals(system),
            "serial_modeled_ns": modeled_time(system.device.ledger, system.device.cfg)["total_ns"],
            "results": self.digests,
        }
        if self.driver.system is not system:
            # cold_scan: the table its OLTP blocks wrote to.
            out["oltp_ledger"] = ledger_totals(self.driver.system)
        return out

    def counts(self) -> dict:
        """Exact per-layer counts of the timed phase (ledger and returned objects)."""
        system = self.system
        now = ledger_totals(system)
        d = {k: now[k] - self.setup_ledger.get(k, 0) for k in now}
        modeled = modeled_time({k: d[k] for k in system.device.ledger.counters()},
                               system.device.cfg)
        walked = max(self.walked, 1)
        return {
            "engine.flushes": (d.get("op.flush", 0), "count"),
            "engine.space_requests": (d.get("op.space_request", 0), "count"),
            "engine.chain_visits_per_tuple": (d.get("op.l2p", 0) / max(d.get("op.vid_entry", 0), 1),
                                              "ratio"),
            "engine.visible_share": (self.visible / walked, "ratio"),
            "delta.changed_share": (self.changed / walked, "ratio"),
            "delta.outdated_share": (self.outdated / max(self.positions, 1), "ratio"),
            "result_file.bytes": (self.export_bytes, "B"),
            "shared_state.propagated_pages": (propagated_pages(system) - self.setup_pages, "count"),
            "device.internal_bytes_read": (d["device_internal_bytes_read"], "B"),
            "device.internal_bytes_written": (d["device_internal_bytes_written"], "B"),
            "device.to_host_bytes": (d["device_to_host_bytes"], "B"),
            "device.from_host_bytes": (d["host_to_device_bytes"], "B"),
            "device.nvm_reads": (d["nvm_reads"], "count"),
            "device.nvm_writes": (d["nvm_writes"], "count"),
            "device.host_roundtrips": (d["host_roundtrips"], "count"),
            "device.records_processed": (d["records_processed"], "count"),
            "device.modeled_ms": (modeled["total_ns"] / 1e6, "ms"),
        }


def unit_count(size: Size, seconds: int) -> int:
    return max(size.min_units, round(seconds / size.unit_s))


def run_pass(workload: str, size: Size, seed: int, units: int, out_dir,
             tracer=None, verify: bool = True) -> Pass:
    p = Pass(size, seed, tracer, verify)
    p.set_up(workload)
    if workload == "cold_scan":
        spare = Pass(size, seed, tracer, verify)
        spare.set_up(workload)
        p.driver = spare.driver
    getattr(p, workload)(units, out_dir)
    return p


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation (q=0.5 is the median)."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


TX_CHUNK = 1000                # OLTP latencies per chunk: 10 beyond each chunk's p99


def tx_chunks(tx_s: list) -> list:
    """Consecutive equal chunks of about TX_CHUNK latencies, in run order.

    OLTP metrics are medians over chunks, so a burst of load from a
    neighbour on a shared host spoils one chunk rather than the run.
    """
    count = max(1, len(tx_s) // TX_CHUNK)
    size = len(tx_s) // count
    return [tx_s[i * size:(i + 1) * size] for i in range(count)]


def figures(setups: list, p: Pass, scale) -> dict:
    """The end-to-end figures, each timing multiplied by scale(its segment)."""
    def scaled(samples):
        return [seconds * scale(segment) for seconds, segment in samples]

    tx_s, offset = [], 0
    for n_tx, segment in p.tx_blocks:
        tx_s += [t * scale(segment) for t in p.tx_s[offset:offset + n_tx]]
        offset += n_tx
    chunks = tx_chunks(tx_s)
    return {
        "setup_s": (statistics.median(scaled(setups)), "s"),
        "tuples_per_s": (p.walked / sum(scaled(p.phase_s)), "1/s"),
        "invocation_s.mean": (statistics.fmean(scaled(p.invocation_s)), "s"),
        "oltp_tx_per_s": (statistics.median(len(c) / sum(c) for c in chunks), "1/s"),
        "oltp_tx_s.p99": (statistics.median(quantile(c, 0.99) for c in chunks), "s"),
        "verify_s": (statistics.fmean(scaled(p.verify_s)), "s"),
    }


def end_to_end(workload: str, size: Size, seed: int, units: int, out_dir) -> tuple:
    """Untraced run: `size.setups` set-ups, timed units on the last one.

    Times are scaled to the reference machine's speed, piece by piece (see
    SpeedProbe); the unscaled values are returned in the info dict.
    """
    speed = SpeedProbe()
    setups = []
    setup_ledger = None
    p = spare = None
    for k in range(size.setups):
        # cold_scan keeps the previous set-up as the table its OLTP writes to.
        spare = p if workload == "cold_scan" else None
        p = None
        speed.mark()
        p = Pass(size, seed)
        p.speed = speed
        p.set_up(workload)
        setups.append((p.setup_s, p.setup_segment))
        if setup_ledger is not None and p.setup_ledger != setup_ledger:
            raise BenchFailure("repeated set-ups left different ledgers")
        setup_ledger = p.setup_ledger
    if workload == "cold_scan":
        p.driver = spare.driver
    spare = None
    speed.mark()
    getattr(p, workload)(units, out_dir)
    metrics = figures(setups, p, speed.scale)
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    info = {
        "samples": {"setup_s": len(setups), "invocation_s": len(p.invocation_s),
                    "oltp_tx_s": len(p.tx_s), "oltp_chunks": len(tx_chunks(p.tx_s)),
                    "verify_s": len(p.verify_s), "speed_marks": len(speed.marks)},
        "scale": {"min": min(map(speed.scale, range(1, len(speed.marks)))),
                  "max": max(map(speed.scale, range(1, len(speed.marks))))},
        "unscaled": {name: value for name, (value, _) in
                     figures(setups, p, lambda segment: 1.0).items()},
    }
    return p, metrics, info


# Functions whose self time and call count the traced run reports.
TRACED_SELF = (
    "engine.transform_record", "engine.flush_partition", "engine.pe_visibility_check",
    "engine.run_jobs", "engine.run_invocation", "engine.columns_from_batches",
    "engine.record_field_slices",
    "device.pe_read_slot", "device.pe_probe_header", "device.ledger.pe_op",
    "device.read", "device.write", "device.allocate_pages",
    "delta.delta_transform", "delta.masked_view", "delta.compact",
    "columns.assemble", "columns.canonical_compare",
    "result_file.write_file", "result_file.read_file",
    "layout.encode_record", "mvcc.install_version", "mvcc.abort_tx",
    "shared_state.propagate", "shared_state.merge_delta_pages",
    "host.load_orderlines", "host.WorkloadDriver.step", "host.prepare_invocation",
    "host.grant_space", "host.record_field_slices", "host.oracle_column_set",
    "host.q6_rowstore",
)
TRACED_CALLS = ("layout.encode_record", "host.grant_space", "shared_state.propagate")


def per_layer(workload: str, size: Size, seed: int, units: int, out_dir) -> tuple:
    """Traced run: one untraced pass for reference, then the same work traced."""
    from tracing import Tracer

    reference = run_pass(workload, size, seed, units, out_dir, verify=False)
    reference_s = reference.timed_s()
    reference_fp = reference.fingerprint()
    reference_counts = reference.counts()
    reference = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        p = run_pass(workload, size, seed, units, out_dir, tracer=tracer)
    finally:
        tracer.uninstall()
    if p.fingerprint() != reference_fp or p.counts() != reference_counts:
        raise BenchFailure("traced and untraced passes differ in counters or results")

    totals = tracer.totals()
    metrics = {}
    for name in TRACED_SELF:
        metrics[f"{name}.self_s"] = (totals.get(name, (0.0, 0))[0], "s")
    for name in TRACED_CALLS:
        metrics[f"{name}.calls"] = (totals.get(name, (0.0, 0))[1], "count")
    metrics.update(p.counts())
    metrics["trace.overhead_share"] = (p.timed_s() / reference_s - 1.0, "ratio")
    metrics["trace.unattributed_s"] = (tracer.unattributed_seconds(), "s")
    metrics["trace.traced_s"] = (tracer.traced_seconds(), "s")
    tracer.write(out_dir / f"trace_{workload}.npz")
    return p, metrics, {"spans": len(tracer.span_name)}
