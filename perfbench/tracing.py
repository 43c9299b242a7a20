"""Span tracing of ndtsim's public functions, from outside the package.

A traced function is replaced in every ``ndtsim`` namespace that holds it,
because modules bind imported names at import time: patching only
``layout.record_field_slices`` would miss the copies that ``engine`` and
``host`` call.  Spans are kept in memory (name, parent, start, end) and
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans.

Generator functions (``transform_record``, ``flush_partition``) are timed
per resume: a span opens when the generator is resumed and closes when it
yields or returns, so the time a job spends suspended inside the
coordinator is not charged to it.  Their ``calls`` therefore count
resumes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (defining module, qualified name, span name).  A span name containing
# "{caller}" gets one name per importing module, so callers stay apart.
TRACED = (
    ("layout", "encode_record", "layout.encode_record"),
    ("layout", "record_field_slices", "{caller}.record_field_slices"),
    ("mvcc", "MvccStore.install_version", "mvcc.install_version"),
    ("mvcc", "MvccStore.abort_tx", "mvcc.abort_tx"),
    ("shared_state", "HostSharedState.propagate", "shared_state.propagate"),
    ("shared_state", "HostSharedState.merge_delta_pages", "shared_state.merge_delta_pages"),
    ("device", "Device.pe_read_slot", "device.pe_read_slot"),
    ("device", "Device.pe_probe_header", "device.pe_probe_header"),
    ("device", "Device.read", "device.read"),
    ("device", "Device.write", "device.write"),
    ("device", "Device.allocate_pages", "device.allocate_pages"),
    ("device", "TransferLedger.pe_op", "device.ledger.pe_op"),
    ("engine", "pe_visibility_check", "engine.pe_visibility_check"),
    ("engine", "transform_record", "engine.transform_record"),
    ("engine", "flush_partition", "engine.flush_partition"),
    ("engine", "run_jobs", "engine.run_jobs"),
    ("engine", "run_invocation", "engine.run_invocation"),
    ("engine", "columns_from_batches", "engine.columns_from_batches"),
    ("delta", "delta_transform", "delta.delta_transform"),
    ("delta", "masked_view", "delta.masked_view"),
    ("delta", "compact", "delta.compact"),
    ("columns", "assemble", "columns.assemble"),
    ("columns", "canonical_compare", "columns.canonical_compare"),
    ("result_file", "write_file", "result_file.write_file"),
    ("result_file", "read_file", "result_file.read_file"),
    ("host", "HostSystem.load_orderlines", "host.load_orderlines"),
    ("host", "HostSystem.prepare_invocation", "host.prepare_invocation"),
    ("host", "HostSystem.grant_space", "host.grant_space"),
    ("host", "HostSystem.oracle_column_set", "host.oracle_column_set"),
    ("host", "HostSystem.q6_rowstore", "host.q6_rowstore"),
    ("host", "WorkloadDriver.step", "host.WorkloadDriver.step"),
)

# Spans the benchmark opens around its own phases; their self time is the
# time no traced layer claimed.
BENCH_PREFIX = "bench."


class Tracer:
    """In-memory span recorder with running self-time totals per name."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list = []
        self.calls: list = []
        self._stack: list = []       # [span index, start, child seconds]
        self._saved: list = []       # (owner, attribute, original)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int):
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        stack.append([idx, start, 0.0])

    def leave(self):
        end = time.perf_counter()
        stack = self._stack
        idx, start, child = stack.pop()
        self.span_end[idx] = end
        duration = end - start
        nid = self.span_name[idx]
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.leave()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                sent = None
                while True:
                    enter(nid)
                    try:
                        signal = gen.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()
                    sent = yield signal
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    def install(self):
        """Patch every traced function in every ndtsim namespace holding it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ndtsim" or name.startswith("ndtsim.")}
        for module_name, qualname, span_name in TRACED:
            owner = modules[f"ndtsim.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, span_name))
                continue
            original = getattr(owner, qualname)
            for mod_name, mod in modules.items():
                if vars(mod).get(qualname) is not original:
                    continue
                caller = mod_name.rpartition(".")[2]
                if mod_name == "ndtsim":
                    caller = module_name          # package re-export
                self._saved.append((mod, qualname, original))
                setattr(mod, qualname, self._wrap(original, span_name.format(caller=caller)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict:
        """{name: (self seconds, calls)} over every recorded span."""
        return {name: (self.self_s[i], self.calls[i]) for i, name in enumerate(self.names)}

    def traced_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        roots = parent == -1
        return float(np.sum(end[roots] - start[roots]))

    def unattributed_seconds(self) -> float:
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.startswith(BENCH_PREFIX))

    def write(self, path):
        """Save every span (name id, parent index, start, end) as .npz."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
