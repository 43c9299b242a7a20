"""Tiny-size smoke test of the benchmark.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the correctness gate passes, that a traced run reproduces the
untraced run's fingerprint, and that the benchmark refuses to run where
the program's sources are missing.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, out, script=BENCH_DIR / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench_out")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_emitted_and_gate_passes(workload, trace, out_dir):
    proc = run_bench(workload, trace, out_dir)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        claimed = sum(v for name, v in values.items() if name.endswith(".self_s"))
        total = claimed + values["trace.unattributed_s"]
        assert total == pytest.approx(values["trace.traced_s"], rel=1e-6)
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cold_scan", 0, tmp_path / "out",
                     script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
