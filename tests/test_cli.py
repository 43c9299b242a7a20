"""The command line: every exit code, and malformed arguments rejected up front.

Exit codes: 0 ok, 1 configuration error, 2 runtime error, 3 verification
failure.  A configuration error must be raised before the table is loaded.
"""

import re

import numpy as np
import pytest

from ndtsim import cli
from ndtsim.columns import CompareResult
from ndtsim.errors import NdtError, PoolExhausted
from ndtsim.host import HostSystem


@pytest.mark.parametrize("argv", [
    ["transform", "--sf", "0"],
    ["transform", "--sf", "0", "--mode", "stream", "--q6"],
    ["transform", "--sf", "0", "--q6"],
    ["delta", "--rows", "200"],
    ["htap", "--sf", "0", "--tx-count", "20", "--intervals", "4"],
])
def test_ok_runs_exit_0(argv):
    assert cli.main(argv) == 0


def test_export_writes_a_file(tmp_path):
    out = tmp_path / "r.ndtc"
    assert cli.main(["transform", "--sf", "0", "--out", str(out)]) == 0
    assert out.read_bytes()[:4] == b"NDTC"


def test_export_is_read_back_and_a_mismatch_exits_3(tmp_path, monkeypatch, capsys):
    """``--out`` reads the file it wrote back through ``read_file``; an export
    that differs from the view is a verification failure, on one line."""
    out = tmp_path / "r.ndtc"
    assert cli.main(["transform", "--sf", "1", "--out", str(out)]) == 0
    assert f"exported {out}; read back, it equals the view" in capsys.readouterr().out
    read = cli.read_file

    def one_row_short(path):
        exported, current = read(path)
        return exported.take(np.arange(exported.n_rows - 1)), current[:-1]

    monkeypatch.setattr(cli, "read_file", one_row_short)
    assert cli.main(["transform", "--sf", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"verification failure: export {out}: row count") and \
        err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["htap", "--intervals", "0"],
    ["htap", "--intervals", "-3"],
    ["htap", "--tx-count", "3", "--intervals", "4"],
    ["delta", "--delta-fractions", ","],
    ["delta", "--delta-fractions", ""],
    ["delta", "--delta-fractions", "abc"],
    ["delta", "--delta-fractions", "150"],
    ["delta", "--delta-fractions", "10,-5"],
    ["delta", "--delta-fractions", "0..10:0"],
    ["delta", "--delta-fractions", "0..x"],
    ["transform", "--mode", "columnar"],
    ["nosuchcommand"],
    ["delta", "--delta-fractions", "50"],
    ["delta", "--delta-fractions", "50,50"],
    ["transform", "--sf", "-1"],
    ["htap", "--sf", "-1", "--tx-count", "20", "--intervals", "4"],
    ["delta", "--rows", "-5"],
    ["delta", "--sf", "0"],                                 # no row to modify
    ["delta", "--rows", "3", "--delta-fractions", "10,20"],   # 0 rows modified twice
    ["transform", "--sf", "0", "--mode", "stream", "--out", "r.ndtc"],   # stream has no export
    ["transform", "--sf", "1", "--scratchpad-bytes", "8192"],   # all of it the load window
    ["delta", "--rows", "300", "--scratchpad-bytes", "8200"],   # no partition holds a value
    ["htap", "--sf", "0", "--tx-count", "20", "--intervals", "4", "--scratchpad-bytes", "100"],
    ["transform", "--sf", "0", "--scratchpad-bytes", "0"],      # not the default: no scratchpad
    ["transform", "--sf", "0", "--scratchpad-bytes", "-5"],
])
def test_malformed_arguments_exit_1_before_loading(argv, monkeypatch, capsys):
    def no_load(*_args, **_kwargs):
        raise AssertionError("the table was loaded before the arguments were checked")

    monkeypatch.setattr(HostSystem, "load_orderlines", no_load)
    assert cli.main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_runtime_error_exits_2(monkeypatch, capsys):
    def exhausted(*_args, **_kwargs):
        raise PoolExhausted("NVM pool has 0 pages, 1 needed")

    monkeypatch.setattr(HostSystem, "transform_snapshot", exhausted)
    assert cli.main(["transform", "--sf", "0"]) == 2
    assert "error: NVM pool" in capsys.readouterr().err


def test_wrong_q6_answer_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "q6_columnar", lambda view, params: -1)
    assert cli.main(["transform", "--sf", "0", "--q6"]) == 3
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize("failing, what", [(0, "vs host oracle"), (1, "committed table")])
def test_htap_mismatch_exits_3(failing, what, monkeypatch, capsys):
    compare, calls = cli.canonical_compare, []

    def one_fails(got, expected):
        calls.append(None)
        if len(calls) - 1 == failing:
            return CompareResult(False, "rows differ")
        return compare(got, expected)

    monkeypatch.setattr(cli, "canonical_compare", one_fails)
    assert cli.main(["htap", "--sf", "0", "--tx-count", "20", "--intervals", "4"]) == 3
    assert what in capsys.readouterr().err and len(calls) == failing + 1


def test_transform_csv_writes_the_ledger_by_category(tmp_path, capsys):
    table = tmp_path / "ledger.csv"
    assert cli.main(["transform", "--sf", "0", "--pe", "2", "--csv", str(table)]) == 0
    assert "pe=2," in capsys.readouterr().out
    header, *rows = [line.split(",") for line in table.read_text().splitlines()]
    assert header == ["category", "bytes", "ops", "modeled_ns"]
    assert [row[0] for row in rows] == [
        "device_internal_read", "device_internal_write", "device_to_host", "host_to_device",
        "nvm_access", "host_roundtrip", "pe_compute", "total"]


def test_delta_csv_writes_one_row_per_fraction(tmp_path):
    table = tmp_path / "delta.csv"
    assert cli.main(["delta", "--rows", "200", "--delta-fractions", "10,20",
                     "--csv", str(table)]) == 0
    header, *rows = [line.split(",") for line in table.read_text().splitlines()]
    assert header == ["fraction", "modified_rows", "appended_bytes", "internal_read",
                      "internal_write", "modeled_ns"]
    assert [row[:2] for row in rows] == [["10", "20"], ["20", "40"]]


def test_one_interval_still_runs_the_transformation(tmp_path, capsys):
    table = tmp_path / "htap.csv"
    assert cli.main(["htap", "--sf", "0", "--tx-count", "10", "--intervals", "1",
                     "--csv", str(table)]) == 0
    assert "ndt transformed 0 rows" not in capsys.readouterr().out
    header, row = table.read_text().splitlines()
    assert header.endswith("ndt_rows") and int(row.split(",")[-1]) > 0


@pytest.mark.parametrize("intervals,ndt_interval", [(2, 0), (3, 0), (4, 1), (10, 4)])
def test_transformation_interval_is_unchanged(intervals, ndt_interval, tmp_path):
    table = tmp_path / "htap.csv"
    assert cli.main(["htap", "--sf", "0", "--tx-count", str(2 * intervals),
                     "--intervals", str(intervals), "--csv", str(table)]) == 0
    rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows if int(r[-1])] == [ndt_interval]


def test_failed_refresh_aborts_its_reader(monkeypatch, capsys):
    systems = []

    class Recorded(HostSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    def failing_refresh(*_args, **_kwargs):
        raise NdtError("refresh failed")

    monkeypatch.setattr(cli, "HostSystem", Recorded)
    monkeypatch.setattr(cli, "run_invocation", failing_refresh)
    assert cli.main(["delta", "--sf", "1", "--delta-fractions", "10,20"]) == 2
    assert "refresh failed" in capsys.readouterr().err
    [system] = systems
    assert system.store.in_flight == set()


def test_a_small_refresh_is_modeled_at_a_small_share_of_a_full_one(capsys):
    """The refresh walks only the tuples whose head moved, so at sf 3 a 1%
    refresh is modeled below a tenth of a 100% one."""
    assert cli.main(["delta", "--sf", "3", "--delta-fractions", "1,100"]) == 0
    modeled = dict(re.findall(r"(\d+)%: appended .* modeled ([\d.]+) ms", capsys.readouterr().out))
    assert float(modeled["1"]) < 0.1 * float(modeled["100"])


# The modeled times these commands print at sf 3: the ledger of every
# invocation, summed.  A change to the device model or to what an invocation
# charges moves them.
MODELED_MS = [
    (["transform", "--sf", "3", "--pe", "8"], ["8.404"]),
    (["transform", "--sf", "3", "--pe", "1"], ["8.363"]),
    (["transform", "--sf", "3", "--mode", "stream"], ["8.275"]),
    (["delta", "--sf", "3", "--delta-fractions", "1,5,10,50,100"],
     ["0.284", "0.611", "1.021", "4.326", "8.522"]),
]


@pytest.mark.parametrize("argv, modeled", MODELED_MS, ids=[" ".join(a) for a, _ in MODELED_MS])
def test_modeled_times_are_pinned(argv, modeled, capsys):
    assert cli.main(argv) == 0
    assert re.findall(r"modeled (?:total: )?([\d.]+) ms", capsys.readouterr().out) == modeled
