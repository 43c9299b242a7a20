"""Import hygiene, by AST scan.

No module of the package or its tests imports a name it never uses: every
name an import statement binds must be read somewhere in the module
(string annotations included).  Import lines marked ``# noqa: F401`` are
exempt, but no module of the package, its ``__init__.py`` included,
carries that mark or assigns ``__all__`` (whose strings would count as
uses): the package re-exports nothing.

No module of the package imports another ``ndtsim`` module's private
(underscore-prefixed) names.

The host oracle imports nothing of the device path (its strided gather
included), the tests' per-record reference decoder nothing of the oracle,
and only ``engine.run_invocation`` marks an invocation in flight.
``encode_record`` and ``install_version`` are one call into their batch
forms, and only ``layout.encode_versions``, the encoder that
``encode_records`` wraps, packs a record header.
The device's batch accessors, page-table lookup and propagation merge,
the engine's extraction and flush planning, and the read-back's column
reader and varchar decoder hold no comprehension.

The transfer ledger changes only through ``TransferLedger.charge``: no
package code outside class ``TransferLedger`` stores to a counter or to
``pe_ops``, and none outside ``charge`` calls ``pe_op``.

A materialization's page queues change, and its space grantor is called,
only in ``engine.MaterializeSink``.

The page pool is called with a region and an array of pages: no package
code builds a (region, page) tuple outside ``Device.owner_pages`` and the
page maps' entries, or passes a comprehension to ``expose_to_host`` or
``free_pages``.

The host's vid map changes only where the map version advances: every
store to, deletion from or changing dict call on a ``vid_map`` item is in
a method of ``MvccStore`` that advances ``self.map_version``, the key of
the oracle's kept walk.

No package code draws with ``Random.choices``: the row generator decodes
its letters from the generator's words in one numpy pass.

The package holds only what the system runs: every function, class and
method it defines is named somewhere in the package or in the benchmark
(``perfbench/*.py``, whose traced targets count), not only in the tests.
The few exceptions are listed, each with its reason.
"""

import ast
from pathlib import Path

import pytest

from ndtsim.device import TransferLedger

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ndtsim").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _bound_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.asname:
            names.append(alias.asname)
        elif isinstance(node, ast.Import):
            names.append(alias.name.partition(".")[0])
        else:
            names.append(alias.name)
    return names


def _used_names(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:                                # a string annotation such as "Fragment"
                expr = ast.parse(node.value, mode="eval")
            except (SyntaxError, UnicodeEncodeError):     # e.g. a lone surrogate
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        unused.extend(f"line {node.lineno}: {name}"
                      for name in _bound_names(node) if name not in used)
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport sys  # noqa: F401\nfrom a import b as c\nprint(c)\n")
    assert unused_imports(probe) == ["line 1: os"]


def test_scan_reads_past_a_string_that_is_no_annotation(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('import os\nimport re\nSEP = "\\udcff"\nHINT = "re.Pattern"\n')
    assert unused_imports(probe) == ["line 1: os"]


def reexport_marks(path: Path) -> list:
    """Lines of ``path`` marked ``# noqa: F401`` or assigning ``__all__``."""
    source = path.read_text()
    numbers = {number for number, line in enumerate(source.splitlines(), 1)
               if "# noqa: F401" in line}
    numbers.update(node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == "__all__"
                   and isinstance(node.ctx, ast.Store))
    return [f"line {number}" for number in sorted(numbers)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_modules_do_not_reexport(path):
    assert reexport_marks(path) == []


def test_scan_finds_a_reexport_mark(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom .device import REGION_DDR  # noqa: F401\nprint(os)\n")
    assert reexport_marks(probe) == ["line 2"]


def test_scan_finds_an_all_list(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .device import REGION_DDR\n"
                     "__all__ = ['REGION_DDR']\n"
                     "print(__all__)\n")
    assert reexport_marks(probe) == ["line 2"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list:
    """Private names ``path`` imports from the package (relatively or as ``ndtsim``)."""
    private = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").partition(".")[0] != "ndtsim":
            continue
        private.extend(f"line {node.lineno}: {alias.name}"
                       for alias in node.names if _is_private(alias.name))
    return private


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_imports(path):
    assert private_imports(path) == []


def test_scan_finds_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "from .engine import _NOTHING, walk\n"
                     "from ndtsim.device import _check_range\n"
                     "from . import __version__\n"
                     "from numpy import _core\n")
    assert private_imports(probe) == ["line 2: _NOTHING", "line 3: _check_range"]


# The host oracle is the reference every device path is compared with, so it
# shares no code with the device path: one bug must not sit on both sides.
ORACLE = ROOT / "src" / "ndtsim" / "oracle.py"
DEVICE_PATH_MODULES = {"engine", "delta", "device"}
# The device result's varchar decoder and the device path's strided gather
# count as device path too.
DEVICE_PATH_NAMES = {"extract_fields", "range_indexes", "Extracted", "decode_varchar",
                     "gather_words"}


def device_path_imports(path: Path) -> list:
    """Imports in ``path`` of the device-path modules or of the batch field extractor."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
            if node.level and not node.module:          # from . import engine
                modules = names
        else:
            continue
        found.extend(f"line {node.lineno}: {module}" for module in modules
                     if DEVICE_PATH_MODULES & set(module.split(".")))
        found.extend(f"line {node.lineno}: {name}" for name in names
                     if name in DEVICE_PATH_NAMES)
    return found


def test_oracle_is_independent_of_the_device_path():
    assert device_path_imports(ORACLE) == []


def test_scan_finds_a_device_path_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .engine import walk\n"
                     "from . import delta, layout\n"
                     "import ndtsim.engine\n"
                     "from ndtsim.layout import PAGE_SIZE, extract_fields\n"
                     "from .layout import Extracted as F, range_indexes\n"
                     "from .mvcc import oracle_visible_version\n"
                     "from .columns import ColumnSet, decode_varchar\n"
                     "from ndtsim.columns import decode_varchar as decode\n"
                     "from .device import Device\n"
                     "from .layout import Schema, gather_words as gather\n")
    assert device_path_imports(probe) == [
        "line 1: engine", "line 2: delta", "line 3: ndtsim.engine", "line 4: extract_fields",
        "line 5: Extracted", "line 5: range_indexes", "line 7: decode_varchar",
        "line 8: decode_varchar", "line 9: device", "line 10: gather_words"]


# The tests' per-record reference decoder checks the device path beside the
# oracle, so it shares no code with the oracle either.
REFERENCE = ROOT / "tests" / "reference.py"


def oracle_imports(path: Path) -> list:
    """Imports in ``path`` of ``ndtsim.oracle`` or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend(f"line {node.lineno}: {module}" for module in modules
                     if "oracle" in module.split("."))
    return found


def test_reference_decoder_is_independent_of_the_oracle():
    assert oracle_imports(REFERENCE) == []


def test_scan_finds_an_oracle_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ndtsim.oracle import read_columns\n"
                     "from ndtsim import layout, oracle\n"
                     "import ndtsim.oracle as reference\n"
                     "from .oracle import read_records\n"
                     "from ndtsim.mvcc import oracle_visible_version\n"
                     "from ndtsim.layout import record_field_slices\n")
    assert oracle_imports(probe) == [
        "line 1: ndtsim.oracle.read_columns", "line 2: ndtsim.oracle",
        "line 3: ndtsim.oracle", "line 4: oracle.read_records"]


# An invocation is marked in flight in one place, the lifecycle every
# materialization, stream and refresh enters.
IN_FLIGHT_MARK = "invocation_in_flight"


def in_flight_marks(path: Path) -> list:
    """The functions (dotted, by their enclosing definitions) of ``path``
    that call ``invocation_in_flight``, once per call."""
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == IN_FLIGHT_MARK:
                    found.append(scope)
            scan(child, scope)

    scan(ast.parse(path.read_text()), path.stem)
    return found


def test_invocations_are_marked_in_flight_in_one_place():
    assert [mark for path in PACKAGE for mark in in_flight_marks(path)] == [
        "engine.run_invocation"]


def test_scan_finds_every_in_flight_mark(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def invocation_in_flight():\n"
                     "    pass\n"
                     "with device.invocation_in_flight():\n"
                     "    pass\n"
                     "class Handle:\n"
                     "    def refresh(self):\n"
                     "        def inner():\n"
                     "            return run(invocation_in_flight())\n"
                     "        with self.device.invocation_in_flight(), other():\n"
                     "            inner()\n"
                     "text = 'device.invocation_in_flight()'\n")
    assert in_flight_marks(probe) == ["probe", "probe.Handle.refresh.inner",
                                      "probe.Handle.refresh"]


# One record encoder and one version install: the one-row forms are single
# calls into the batch forms, and only the batch encoder packs a record
# header.  A record header format is a struct format that starts with the
# vid, create_ts and pred words and the flags byte (or its zero padding).
ONE_ROW_FORMS = {("layout", "encode_record"): "encode_records",
                 ("mvcc", "MvccStore.install_version"): "install_versions"}
HEADER_FORMATS = ("<QQQB", "<QQQx")


def _definition(path: Path, qualname: str):
    """The AST of definition ``qualname`` (dotted) of ``path``."""
    node = ast.parse(path.read_text())
    for name in qualname.split("."):
        node = next(child for child in node.body if getattr(child, "name", None) == name)
    return node


def delegated_calls(path: Path, qualname: str):
    """The functions that definition ``qualname`` of ``path`` calls, if its
    body (after the docstring) is one return statement; None otherwise."""
    node = _definition(path, qualname)
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None
    return [getattr(call.func, "attr", getattr(call.func, "id", None))
            for call in ast.walk(body[0]) if isinstance(call, ast.Call)]


@pytest.mark.parametrize("module, qualname", ONE_ROW_FORMS,
                         ids=[f"{module}.{qualname}" for module, qualname in ONE_ROW_FORMS])
def test_one_row_forms_are_one_call_into_the_batch_form(module, qualname):
    path = ROOT / "src" / "ndtsim" / f"{module}.py"
    assert delegated_calls(path, qualname) == [ONE_ROW_FORMS[module, qualname]]


def _is_header_format(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith(HEADER_FORMATS))


def header_packers(path: Path) -> list:
    """The definitions (dotted) of ``path`` that pack a record header, once
    per occurrence: they write a header format (an f-string's included), or
    call ``pack``/``pack_into`` on a module-level struct of one.  Defining
    such a struct at module level packs nothing."""
    tree = ast.parse(path.read_text())
    header_structs = {target.id for node in tree.body if isinstance(node, ast.Assign)
                      and any(map(_is_header_format, ast.walk(node.value)))
                      for target in node.targets if isinstance(target, ast.Name)}
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            func = getattr(child, "func", None)
            if scope != path.stem and (_is_header_format(child) or (
                    isinstance(func, ast.Attribute) and func.attr in ("pack", "pack_into")
                    and getattr(func.value, "id", None) in header_structs)):
                found.append(scope)
            scan(child, scope)

    scan(tree, path.stem)
    return found


def test_only_the_batch_encoder_packs_a_record_header():
    packers = [scope for path in PACKAGE for scope in header_packers(path)]
    assert packers and set(packers) == {"layout.encode_versions"}


def test_scan_finds_a_second_record_packer(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import struct\n"
                     "_HDR = struct.Struct('<QQQB')\n"
                     "_U16 = struct.Struct('<H')\n"
                     "def encode_records(rows):\n"
                     "    return [_HDR.pack(*row) for row in rows]\n"
                     "def decode(buf):\n"
                     "    return _HDR.unpack_from(buf), _U16.pack(1)\n"
                     "class Fast:\n"
                     "    def encode(self, n, v):\n"
                     "        buf = bytearray(40)\n"
                     "        _HDR.pack_into(buf, 0, v, 1, 2, 0)\n"
                     "        return struct.pack(f'<QQQB{n}s', v, 1, 2, 0, b'')\n"
                     "def one(header, values):\n"
                     "    return encode_records([values])[0]\n")
    assert header_packers(probe) == ["probe.encode_records", "probe.Fast.encode",
                                     "probe.Fast.encode"]
    assert delegated_calls(probe, "one") == ["encode_records"]
    assert delegated_calls(probe, "Fast.encode") is None


# The device's batch accessors and its page-table lookup serve a PE's whole
# batch, its propagation merge a snapshot's whole vid-map delta, the
# engine's walk an invocation's whole frontier, its extraction (with the
# layout's field extractor) and flush planning a batch of PEs' changed rows,
# and its flush merge, charge and placement an invocation's whole flush
# table, with array operations, so per-record or per-flush Python (a
# comprehension over the batch) must not creep back into them.  A stream
# buffer's delivery (``StreamSink._deliver``) builds one chunk per piece,
# as a ``Batch`` holds them.
BATCH_ACCESSORS = (("device", "Device.pe_read_slot"), ("device", "Device.pe_probe_header"),
                   ("device", "Device.pe_read_records"), ("device", "Device.apply_propagation"),
                   ("device", "PageTable.resolve"), ("engine", "transform_record"),
                   ("engine", "plan_flushes"), ("engine", "walk"), ("layout", "extract_fields"),
                   ("engine", "run_jobs"), ("engine", "flush_partition"),
                   ("engine", "MaterializeSink.place"), ("engine", "MaterializeSink._land"),
                   ("engine", "StreamSink.place"))
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def comprehensions(path: Path, qualname: str) -> list:
    """The comprehensions in definition ``qualname`` of ``path``, by line."""
    return [f"line {node.lineno}: {type(node).__name__}"
            for node in ast.walk(_definition(path, qualname))
            if isinstance(node, COMPREHENSIONS)]


@pytest.mark.parametrize("module, qualname", BATCH_ACCESSORS,
                         ids=[qualname for _module, qualname in BATCH_ACCESSORS])
def test_batch_accessors_have_no_per_record_python(module, qualname):
    assert comprehensions(ROOT / "src" / "ndtsim" / f"{module}.py", qualname) == []


# The read-back checks, views and decodes each column of all segments at
# once (a varchar column with one UTF-8 decode and one split), so its reader
# holds no per-value Python either.  The exceptions are
# ``columns._sliced_values``, which slices value by value the column whose
# payload holds a NUL byte (the split would take it for a separator) and
# names the fault of a corrupt column, and ``columns._check_segment``, which
# names the fault of a segment once a check over all of them failed.
READBACK_DECODERS = ("decode_varchar", "_view", "read_joined", "_buffer_counts", "_sizes_fit",
                     "_bounds", "_validity", "_strings", "gather_buffers")


@pytest.mark.parametrize("qualname", READBACK_DECODERS)
def test_readback_decoders_have_no_per_value_python(qualname):
    assert comprehensions(ROOT / "src" / "ndtsim" / "columns.py", qualname) == []


def test_scan_finds_a_per_value_decode(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _sliced_values(text, ends):\n"
                     "    return [text[a:b] for a, b in zip(ends, ends[1:])]\n"
                     "def decode_varchar(payload, ends, keep):\n"
                     "    text = payload.decode()\n"
                     "    return [text[a:b] for a, b, k in zip(ends, ends[1:], keep) if k]\n"
                     "def join_segments(parts):\n"
                     "    return sum((list(p) for p in parts), [])\n")
    assert comprehensions(probe, "decode_varchar") == ["line 5: ListComp"]
    assert comprehensions(probe, "join_segments") == ["line 7: GeneratorExp"]


def test_scan_finds_every_comprehension(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class Device:\n"
                     "    def pe_read_records(self, rows):\n"
                     "        data = b''.join([row for row in rows])\n"
                     "        return data, {r: 1 for r in rows}, {r for r in rows}, sum(\n"
                     "            r for r in rows)\n"
                     "    def pe_read_slot(self, rows):\n"
                     "        return [r for r in rows]\n")
    assert comprehensions(probe, "Device.pe_read_records") == [
        "line 3: ListComp", "line 4: DictComp", "line 4: SetComp", "line 4: GeneratorExp"]


def test_scan_finds_a_per_record_lookup_or_plan(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class PageTable:\n"
                     "    def resolve(self, lids):\n"
                     "        return [self.regions[lid] for lid in lids]\n"
                     "def transform_record(batch):\n"
                     "    for job in batch.jobs:\n"
                     "        plan_flushes(job)\n"
                     "def plan_flushes(job):\n"
                     "    flushes = []\n"
                     "    flushes.extend((row, job.pe) for row in job.rows)\n"
                     "    return flushes\n")
    assert comprehensions(probe, "PageTable.resolve") == ["line 3: ListComp"]
    assert comprehensions(probe, "transform_record") == []
    assert comprehensions(probe, "plan_flushes") == ["line 9: GeneratorExp"]


# One writer of the ledger.  A store is an assignment, an augmented
# assignment or a deletion whose target is a counter or ``pe_ops`` attribute,
# or an item of one (``ledger.pe_ops[pe] = ...``).  Tests stay free to set
# counters; only the package is scanned.
LEDGER_FIELDS = frozenset(TransferLedger().counters()) | {"pe_ops"}
LEDGER_CLASS = "device.TransferLedger"
LEDGER_WRITER = "device.TransferLedger.charge"


def _stored_field(node):
    """The ledger field a store to ``node`` changes, or None."""
    if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        return None
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) and node.attr in LEDGER_FIELDS else None


def ledger_writes(path: Path) -> list:
    """The ledger changes in ``path`` that bypass ``charge``, by scope and
    line: a store to a ledger field outside ``LEDGER_CLASS`` and a call of
    ``pe_op`` outside ``LEDGER_WRITER``."""
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            name = _stored_field(child)
            if name and scope != LEDGER_CLASS and not scope.startswith(LEDGER_CLASS + "."):
                found.append(f"{scope} line {child.lineno}: {name}")
            if (isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "pe_op"
                    and scope != LEDGER_WRITER):
                found.append(f"{scope} line {child.lineno}: pe_op()")
            scan(child, scope)

    scan(ast.parse(path.read_text()), path.stem)
    return found


def test_the_ledger_changes_only_through_charge():
    assert [write for path in PACKAGE for write in ledger_writes(path)] == []


def test_scan_finds_a_ledger_write_that_bypasses_charge(tmp_path):
    probe = tmp_path / "device.py"
    probe.write_text("class TransferLedger:\n"
                     "    def __init__(self):\n"
                     "        self.nvm_reads = 0\n"
                     "        self.pe_ops = {}\n"
                     "    def charge(self, pe, op, nvm_reads=0):\n"
                     "        self.nvm_reads += nvm_reads\n"
                     "        self.pe_op(pe, op)\n"
                     "    def reset(self):\n"
                     "        self.pe_op(0, 'read')\n"
                     "class Device:\n"
                     "    def read(self, x):\n"
                     "        x.ledger.nvm_reads += 1\n"
                     "        x.ledger.pe_op(0, 'read')\n"
                     "        x.ledger.pe_ops[0]['read'] = 1\n"
                     "        x.ledger.records_processed, y = 1, 2\n"
                     "        del x.ledger.pe_ops[0]\n"
                     "        x.ledger.charge(0, 'read', nvm_reads=1)\n"
                     "        return x.ledger.nvm_reads + len(x.ledger.pe_ops)\n"
                     "ledger.host_roundtrips = 0\n")
    assert ledger_writes(probe) == [
        "device.TransferLedger.reset line 9: pe_op()",
        "device.Device.read line 12: nvm_reads", "device.Device.read line 13: pe_op()",
        "device.Device.read line 14: pe_ops", "device.Device.read line 15: records_processed",
        "device.Device.read line 16: pe_ops", "device line 19: host_roundtrips"]


# The host keeps the last snapshot's visible versions keyed by the snapshot
# and ``MvccStore.map_version`` (``HostSystem._visible_records``), so a change
# to the vid map that does not advance the version could leave it stale.  A
# change is a store to or deletion of an item of a ``vid_map`` (a name or an
# attribute), or a call of a dict method that changes it; the device's sorted
# mirror is replaced whole (an attribute store), which is no change here.
MAP_CLASS = "mvcc.MvccStore"
MAP_CHANGING_CALLS = frozenset({"pop", "popitem", "clear", "update", "setdefault"})


def _is_vid_map(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "vid_map"


def _advances_map_version(function) -> bool:
    """Whether the body of ``function``, not counting the definitions nested
    in it, adds to ``self.map_version``."""
    nodes = list(function.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                and getattr(node.target, "attr", None) == "map_version"
                and getattr(node.target.value, "id", None) == "self"):
            return True
        nodes.extend(ast.iter_child_nodes(node))
    return False


def map_writes(path: Path) -> list:
    """``(scope, line, versioned)`` of each change to a ``vid_map`` in
    ``path``: ``versioned`` when it sits in a method of ``MAP_CLASS`` that
    advances ``self.map_version``."""
    found = []

    def scan(node, scope, versioned):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
                scan(child, inner, scope == MAP_CLASS and _advances_map_version(child))
                continue
            if (isinstance(child, ast.Subscript) and isinstance(child.ctx, (ast.Store, ast.Del))
                    and _is_vid_map(child.value)) or (
                    isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in MAP_CHANGING_CALLS and _is_vid_map(child.func.value)):
                found.append((scope, child.lineno, versioned))
            scan(child, scope, versioned)

    scan(ast.parse(path.read_text()), path.stem, False)
    return found


def test_every_vid_map_change_advances_the_map_version():
    writes = [write for path in PACKAGE for write in map_writes(path)]
    assert {scope for scope, _line, _versioned in writes} == {
        "mvcc.MvccStore.abort_tx", "mvcc.MvccStore.install_versions"}
    assert [write for write in writes if not write[2]] == []


def test_scan_finds_a_vid_map_change_that_keeps_the_version(tmp_path):
    probe = tmp_path / "mvcc.py"
    probe.write_text("class MvccStore:\n"
                     "    def abort_tx(self, t):\n"
                     "        vid_map = self.vid_map\n"
                     "        del vid_map[t]\n"
                     "        self.map_version += 1\n"
                     "    def install(self, vid, node):\n"
                     "        self.vid_map[vid] = node\n"
                     "        self.vid_map.pop(vid + 1, None)\n"
                     "        return self.vid_map[vid].pred\n"
                     "    def forget(self, vid):\n"
                     "        def inner():\n"
                     "            self.vid_map[vid] = None\n"
                     "            self.map_version += 1\n"
                     "        self.vid_map[vid] = None\n"
                     "        self.map_version = other.map_version\n"
                     "        inner()\n"
                     "class Device:\n"
                     "    def apply(self, new):\n"
                     "        self.vid_map = new\n"
                     "        self.vid_map.update({})\n"
                     "        self.map_version += 1\n"
                     "store.vid_map[3] = None\n")
    assert map_writes(probe) == [
        ("mvcc.MvccStore.abort_tx", 4, True), ("mvcc.MvccStore.install", 7, False),
        ("mvcc.MvccStore.install", 8, False), ("mvcc.MvccStore.forget.inner", 12, False),
        ("mvcc.MvccStore.forget", 14, False), ("mvcc.Device.apply", 20, False),
        ("mvcc", 22, False)]


# The change log names the tuples a refresh walks; a write anywhere but in
# the propagation that the log records could make a refresh skip a change.
# A write is a store to or deletion of a log field (an item of one too), or
# a call of a method that changes it; ``Device.__init__`` binds the fields.
LOG_FIELDS = frozenset({"change_log", "_log_floor", "propagations"})
LOG_WRITERS = frozenset({"device.Device.apply_propagation", "device.Device.__init__"})
LOG_CHANGING_CALLS = frozenset({"append", "appendleft", "extend", "extendleft", "insert", "pop",
                                "popleft", "remove", "clear", "rotate"})


def _log_field(node):
    """The log field ``node`` (or the container it indexes) names, or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) and node.attr in LOG_FIELDS else None


def log_writes(path: Path) -> list:
    """The writes to the change log in ``path`` outside ``LOG_WRITERS``, by
    scope and line."""
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            name = None
            if isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del)):
                name = _log_field(child)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in LOG_CHANGING_CALLS):
                name = _log_field(child.func.value)
            if name and scope not in LOG_WRITERS:
                found.append(f"{scope} line {child.lineno}: {name}")
            scan(child, scope)

    scan(ast.parse(path.read_text()), path.stem)
    return found


def test_only_a_propagation_writes_the_change_log():
    assert [write for path in PACKAGE for write in log_writes(path)] == []


def test_scan_finds_every_change_log_write(tmp_path):
    probe = tmp_path / "device.py"
    probe.write_text("class Device:\n"
                     "    def __init__(self):\n"
                     "        self.change_log = []\n"
                     "    def apply_propagation(self, vids):\n"
                     "        self.propagations += 1\n"
                     "        self.change_log.append(vids)\n"
                     "    def track_handle(self, mark):\n"
                     "        self.change_log.popleft()\n"
                     "        self._log_floor = mark\n"
                     "        self.change_log[0] = None\n"
                     "        del self.change_log[0]\n"
                     "        return len(self.change_log), self.change_log.count(mark)\n"
                     "def trim(device):\n"
                     "    device.propagations -= 1\n"
                     "    device.change_log.clear()\n")
    assert log_writes(probe) == [
        "device.Device.track_handle line 8: change_log",
        "device.Device.track_handle line 9: _log_floor",
        "device.Device.track_handle line 10: change_log",
        "device.Device.track_handle line 11: change_log",
        "device.trim line 14: propagations", "device.trim line 15: change_log"]


# A materialization's page queues and its host round-trips for space live in
# its ``MaterializeSink``: a queue changed anywhere else could give one page
# to two fragments or leave a page unfreed, and a grant asked for anywhere
# else would bypass the ``space_request`` charge.  A queue change is a store
# to or deletion of a queue field (an item of one too), or a call of a
# method that changes it; a grant is a call of the grantor, by either of
# its names.
QUEUE_OWNER = "engine.MaterializeSink"
QUEUE_FIELDS = frozenset({"queues", "page_queue"})
QUEUE_CHANGING_CALLS = frozenset({"append", "extend", "insert", "pop", "remove", "clear", "sort",
                                  "reverse"})
GRANTORS = frozenset({"grantor", "grant_space"})


def _queue_field(node):
    """The queue field ``node`` (or the container it indexes) names, or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) and node.attr in QUEUE_FIELDS else None


def space_handling(path: Path) -> list:
    """``(scope, line, what)`` of each page-queue change and grantor call in
    ``path``: ``what`` is the queue field, or the grantor's name and ``()``."""
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            what = None
            if isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del)):
                what = _queue_field(child)
            elif isinstance(child, ast.Call):
                called = getattr(child.func, "id", getattr(child.func, "attr", None))
                if called in GRANTORS:
                    what = f"{called}()"
                elif called in QUEUE_CHANGING_CALLS:
                    what = _queue_field(child.func.value)
            if what:
                found.append((scope, child.lineno, what))
            scan(child, scope)

    scan(ast.parse(path.read_text()), path.stem)
    return found


def _outside_the_sink(sites) -> list:
    return [site for site in sites
            if site[0] != QUEUE_OWNER and not site[0].startswith(QUEUE_OWNER + ".")]


def test_only_the_materializing_sink_asks_for_space_or_changes_a_page_queue():
    sites = [site for path in PACKAGE for site in space_handling(path)]
    assert _outside_the_sink(sites) == []
    assert {scope for scope, _line, what in sites if what == "grantor()"} == {
        "engine.MaterializeSink.request_space"}


def test_scan_finds_every_grant_and_page_queue_change(tmp_path):
    probe = tmp_path / "engine.py"
    probe.write_text("class MaterializeSink:\n"
                     "    def __init__(self, pages):\n"
                     "        self.queues = [pages]\n"
                     "    def request_space(self, pe, count):\n"
                     "        self.queues[pe].extend(self.grantor(count))\n"
                     "def append_run(sink, host):\n"
                     "    sink.queues[0].pop(0)\n"
                     "    del sink.queues[1][:2]\n"
                     "    sink.queues[0] += host.grant_space(None, 2)\n"
                     "    job.page_queue.append(grantor(None, 1))\n"
                     "    return len(sink.queues[0]), sink.queues[0].count(3)\n"
                     "class StreamSink:\n"
                     "    def place(self, sink):\n"
                     "        sink.queues = []\n")
    sites = space_handling(probe)
    assert sites[:3] == [("engine.MaterializeSink.__init__", 3, "queues"),
                         ("engine.MaterializeSink.request_space", 5, "queues"),
                         ("engine.MaterializeSink.request_space", 5, "grantor()")]
    assert _outside_the_sink(sites) == [
        ("engine.append_run", 7, "queues"), ("engine.append_run", 8, "queues"),
        ("engine.append_run", 9, "queues"), ("engine.append_run", 9, "grant_space()"),
        ("engine.append_run", 10, "page_queue"), ("engine.append_run", 10, "grantor()"),
        ("engine.StreamSink.place", 14, "queues")]


# The page pool keeps one owner code and one exposure bit per page, in arrays
# per region, and its calls take a region and an array of pages, so no
# package code pairs a region with a page in a tuple, page by page, and no
# call of ``expose_to_host`` or ``free_pages`` is passed a comprehension.  A
# pair is a tuple of two whose first item names a region (``region``, a
# ``REGION_*`` constant or a ``.region`` attribute) and whose second does
# not.  The exceptions: ``Device.owner_pages``, the pool read the tests use,
# and a page map's entry (a dict item or a dict comprehension's value), the
# location of one logical page, as the host's page map holds it.
PAGE_PAIR_BUILDER = "device.Device.owner_pages"
PAGE_LIST_TAKERS = frozenset({"expose_to_host", "free_pages"})


def _names_a_region(node) -> bool:
    return (isinstance(node, ast.Name) and (node.id == "region" or node.id.startswith("REGION_"))
            or isinstance(node, ast.Attribute) and node.attr == "region")


def page_pairs(path: Path) -> list:
    """The (region, page) tuples built in ``path`` outside
    ``PAGE_PAIR_BUILDER`` and page maps, and the comprehensions passed to a
    page-list taker, by scope and line."""
    tree = ast.parse(path.read_text())
    entries = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.DictComp) or isinstance(node, ast.Assign)
               and all(isinstance(target, ast.Subscript) for target in node.targets)}
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Tuple) and isinstance(child.ctx, ast.Load)
                    and len(child.elts) == 2 and _names_a_region(child.elts[0])
                    and not _names_a_region(child.elts[1]) and id(child) not in entries
                    and scope != PAGE_PAIR_BUILDER):
                found.append(f"{scope} line {child.lineno}: pair")
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "attr", None) in PAGE_LIST_TAKERS
                    and any(isinstance(arg, COMPREHENSIONS) for arg in child.args)):
                found.append(f"{scope} line {child.lineno}: {child.func.attr}(comprehension)")
            scan(child, scope)

    scan(tree, path.stem)
    return found


def test_the_page_pool_takes_pages_by_region_with_no_pair_per_page():
    assert [pair for path in PACKAGE for pair in page_pairs(path)] == []


def test_scan_finds_every_page_pair_and_comprehension_the_pool_was_given(tmp_path):
    """The probe holds the calls the engine made when the pool kept a set of
    (region, page) pairs; only the device's own ``owner_pages`` and the
    entries of page maps are exempt."""
    probe = tmp_path / "engine.py"
    probe.write_text(
        "REGIONS = (REGION_DDR, REGION_NVM)\n"
        "class StreamSink:\n"
        "    def __init__(self, device, inv):\n"
        "        device.expose_to_host((REGION_DDR, idx) for idx in inv.pages)\n"
        "def write_bitmap_pages(device, more):\n"
        "    device.expose_to_host((REGION_NVM, idx) for idx in more)\n"
        "def expose_segments(device, segments):\n"
        "    device.expose_to_host((frag.region, idx) for seg in segments\n"
        "                          for frag in seg.frags.values() for idx in frag.pages)\n"
        "def append_run(device, inv, sink):\n"
        "    leftovers = [(REGION_NVM, idx) for queue in sink.queues for idx in queue]\n"
        "    device.free_pages(inv.owner, leftovers)\n"
        "    device.free_pages(inv.owner, REGION_NVM, [p for q in sink.queues for p in q])\n"
        "    device.expose_to_host(region, pages)\n"
        "    region, idx = (region, 0)\n"
        "    located[lid] = (REGION_NVM, idx)\n"
        "    return {lid: (REGION_NVM, idx) for lid, idx in moved}\n"
        "class Device:\n"
        "    def owner_pages(self, owner):\n"
        "        return {(region, idx) for region in REGIONS for idx in owner}\n")
    found = [
        "engine.StreamSink.__init__ line 4: expose_to_host(comprehension)",
        "engine.StreamSink.__init__ line 4: pair",
        "engine.write_bitmap_pages line 6: expose_to_host(comprehension)",
        "engine.write_bitmap_pages line 6: pair",
        "engine.expose_segments line 8: expose_to_host(comprehension)",
        "engine.expose_segments line 8: pair",
        "engine.append_run line 11: pair",
        "engine.append_run line 13: free_pages(comprehension)",
        "engine.append_run line 15: pair",
        "engine.Device.owner_pages line 20: pair",
    ]
    assert page_pairs(probe) == found
    device = tmp_path / "device.py"
    device.write_text(probe.read_text())
    assert page_pairs(device) == [site.replace("engine.", "device.") for site in found[:-1]]


# ``ol_dist_info``'s letters are decoded from the generator's words in one
# numpy pass per batch of rows (``host.dist_strings``), so no package code
# draws with ``Random.choices``, one Python ``random()`` per letter: no
# ``.choices`` attribute is read, called or bound to a name, and no name
# ``choices`` is called.  ``argparse``'s ``choices=`` keyword is neither.
def choices_draws(path: Path) -> list:
    """Each ``.choices`` attribute and each call of a name ``choices`` in
    ``path``, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "choices":
            found.append((node.lineno, ".choices"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "choices"):
            found.append((node.lineno, "choices()"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_row_generator_draws_no_letter_at_a_time():
    assert [f"{path.name} {site}" for path in PACKAGE for site in choices_draws(path)] == []


def test_scan_finds_every_choices_draw(tmp_path):
    """The probe holds the string draw of the generator that called
    ``choices`` per row, and the CLI's ``choices=`` option, which is no draw."""
    probe = tmp_path / "host.py"
    probe.write_text(
        "def random_rows(rng, order_lines, warehouses, null_delivery_rate=None):\n"
        "    getrandbits, random_, choices = rng.getrandbits, rng.random, rng.choices\n"
        "    letters = string.ascii_lowercase\n"
        "    rows = []\n"
        "    for order, line in order_lines:\n"
        "        dist_len = getrandbits(5)\n"
        "        rows.append((order, line, \"\".join(choices(letters, k=dist_len + 8))))\n"
        "    return rows\n"
        "def one(rng):\n"
        "    return rng.choices('ab', k=3)\n"
        "def options(p):\n"
        "    p.add_argument('--mode', choices=['stream', 'materialize'])\n")
    assert choices_draws(probe) == ["line 2: .choices", "line 7: choices()",
                                    "line 10: .choices"]


# What the package defines, the system runs.  A definition counts as run when
# a module of the package or of the benchmark reads its bare name (as a
# variable or an attribute) or traces it; dunder methods are called by the
# language.  These are the only names the tests alone may call.
UNREFERENCED_ALLOWED = {
    "layout.NsmPage.slot_bytes": "a record read off a page; tests would re-implement the lookup",
    "device.Device.owner_pages": "an owner's pages; tests would read the private allocation map",
    "mvcc.MvccStore.chain_rids": "a vid's version chain; tests would re-implement the walk",
    "shared_state.HostSharedState.read_record": "a record wherever its page lives; tests would "
                                                "re-implement the page lookup",
}


def definitions(path: Path) -> list:
    """The functions, classes and methods (not dunders) defined at the top
    level of ``path`` and in its classes, dotted as ``module.Class.name``."""
    found = []

    def scan(node, scope):
        for child in node.body:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not (child.name.startswith("__") and child.name.endswith("__")):
                found.append(f"{scope}.{child.name}")
            if isinstance(child, ast.ClassDef):
                scan(child, f"{scope}.{child.name}")

    scan(ast.parse(path.read_text()), path.stem)
    return found


def traced_names(tracing: Path) -> set:
    """Each dotted part of the qualified names in ``tracing``'s ``TRACED``."""
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return {part for _module, qualname, _span in ast.literal_eval(node.value)
                    for part in qualname.split(".")}
    return set()


def unreferenced(defining, reading, traced: set) -> list:
    """The definitions of ``defining`` whose bare name no module of
    ``reading`` reads and ``traced`` does not hold."""
    names = set(traced)
    for path in reading:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return [qualname for path in defining for qualname in definitions(path)
            if qualname.rpartition(".")[2] not in names]


def test_the_package_defines_only_what_the_system_runs():
    traced = traced_names(ROOT / "perfbench" / "tracing.py")
    assert sorted(unreferenced(PACKAGE, PACKAGE + BENCH, traced)) == sorted(UNREFERENCED_ALLOWED)


def test_scan_finds_every_unreferenced_definition(tmp_path):
    probe, bench, tracing = (tmp_path / f"{name}.py" for name in ("probe", "bench", "tracing"))
    probe.write_text("class Page:\n"
                     "    def __len__(self):\n"
                     "        return 0\n"
                     "    def used(self):\n"
                     "        return helper()\n"
                     "    def unused(self):\n"
                     "        def nested():\n"
                     "            pass\n"
                     "        return nested\n"
                     "def helper():\n"
                     "    return Page().used()\n"
                     "def traced():\n"
                     "    pass\n"
                     "def benched():\n"
                     "    pass\n"
                     "def dead():\n"
                     "    return 'dead'\n")
    bench.write_text("import probe\nprobe.benched()\n")
    tracing.write_text("TRACED = (('probe', 'Other.traced', 'probe.traced'),)\n")
    assert unreferenced([probe], [probe, bench], traced_names(tracing)) == [
        "probe.Page.unused", "probe.dead"]
    assert unreferenced([probe], [probe], set()) == [
        "probe.Page.unused", "probe.traced", "probe.benched", "probe.dead"]


# The MVCC write path carries record ids as packed ints: no module of it
# builds a RecordID or RecordHeader per version.
WRITE_PATH = ("mvcc.py", "shared_state.py")
RID_OBJECTS = {"RecordID", "RecordHeader"}


def rid_objects(path: Path) -> list:
    """Each call of ``RecordID`` or ``RecordHeader`` in ``path``, and each
    ``map`` over one, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in RID_OBJECTS:
            found.append(f"line {node.lineno}: {name}()")
        elif name == "map" and node.args and getattr(node.args[0], "id", None) in RID_OBJECTS:
            found.append(f"line {node.lineno}: map({node.args[0].id}, ...)")
    return found


def test_the_write_path_makes_no_rid_object_per_version():
    src = ROOT / "src" / "ndtsim"
    assert [f"{name} {site}" for name in WRITE_PATH for site in rid_objects(src / name)] == []


def test_scan_finds_every_rid_object(tmp_path):
    """The probe holds the parent's ``append_records`` and ``install_versions`` lines."""
    probe = tmp_path / "mvcc.py"
    probe.write_text(
        "def append_records(self, records, vids, rids):\n"
        "    head = pack_rid(RecordID(lid, slot))\n"
        "    rids.extend(map(RecordID, repeat(lid, end - k), range(slot, slot + end - k)))\n"
        "def install_versions(self, t, vids, rows):\n"
        "    headers.append(RecordHeader(vid, t, None if pred is None else pred.rid, tombstone))\n"
        "    return layout.RecordID(1, 2), unpack_rid(head)\n")
    assert rid_objects(probe) == ["line 2: RecordID()", "line 3: map(RecordID, ...)",
                                  "line 5: RecordHeader()", "line 6: RecordID()"]
