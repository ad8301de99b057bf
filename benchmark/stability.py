"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 benchmark/stability.py --workload large-n --seeds 1 2 3 4 5

Runs benchmark/run.py once per seed at BENCHMARK.json's run_seconds and
prints, per metric, the median and the quartile spread (Q3 - Q1) over
the median, as statistics.quantiles(values, n=4) gives them, next to a
third of the metric's bound.  All values go to
benchmark/out/stability-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for entry in spec["end_to_end"]:
        values = [r["metrics"][entry["name"]]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        flag = "" if spread < entry["bound"] / 3 else "  <-- above a third of the bound"
        print(f"{entry['name']:14s} {statistics.median(values):12.5g} {spread:8.4f} {entry['bound'] / 3:8.4f}{flag}")
    out_dir = ROOT / "benchmark" / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"stability-{args.workload}.json").write_text(json.dumps(runs, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
