"""Run one ndtsim benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  With ``--trace 0`` the last line of output carries the end-to-end
metrics of an untraced run, with ``--trace 1`` the per-layer metrics of a
traced run.  The exit code is 0 only when every correctness check passed.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cold_scan", "htap_refresh", "htap_stream")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's own test")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for the fingerprint store, export file and spans")
    return parser.parse_args(argv)


def bench_source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(out_dir: Path, key: str, fingerprint: dict):
    """Compare with the fingerprint an earlier run of this checkout stored."""
    store_path = out_dir / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    earlier = store.get(key)
    if earlier is not None:
        if earlier != fingerprint:
            raise RuntimeError(f"fingerprint differs from an earlier run ({key})")
        return
    store[key] = fingerprint
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ndtsim" / "__init__.py").is_file():
        print(f"perfbench: no ndtsim sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    units = workloads.unit_count(size, args.seconds)
    args.out.mkdir(parents=True, exist_ok=True)
    measure = workloads.per_layer if args.trace else workloads.end_to_end
    attempted = 1
    try:
        p, metrics, info = measure(args.workload, size, args.seed, units, args.out)
        attempted = p.attempted
        fingerprint = p.fingerprint()
        key = (f"{args.workload} seed={args.seed} size={args.size} units={units} "
               f"bench={bench_source_digest()}")
        check_fingerprint(args.out, key, fingerprint)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}}))
        return 1
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("info " + json.dumps({"units": units, **info}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
