#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and
spread (interquartile distance over the median) beside its bound.

    python3 perfbench/spread_report.py [--seeds 1-10]

Run from the repository root. Runs are made one after another with
`BENCHMARK.json`'s command and run length; each leaves its full record in
.perfbench_out/ as usual.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            print(f"  {name:14s} median {median(values):12.5g}  spread {spread(values):7.4f}"
                  f"  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
