#!/usr/bin/env python3
"""Tracing overhead without machine drift: one process runs every item of a
workload alternately with the tracer off and on, round after round, and
compares the sums of each item's median call.

    python3 perfbench/trace_overhead.py WORKLOAD

Run from the repository root; it uses seed SEED and ROUNDS rounds. Whole traced and untraced runs also differ by
whatever the machine's speed did between them; this comparison does not.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
from stats import sum_of_medians  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
ROUNDS = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=ROOT / ".perfbench_out"))
    try:
        wl = WORKLOADS[args.workload](SEED, scratch)
        wl.plan()
        wl.build()
        wl.warmup()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        seconds = {False: [[] for _ in wl.items], True: [[] for _ in wl.items]}
        for r in range(ROUNDS):
            for i, item in enumerate(wl.items):
                for active in ((False, True) if r % 2 == 0 else (True, False)):
                    tracer.reset()
                    tracer.active = active
                    t0 = perf_counter()
                    item.call()
                    seconds[active][i].append(perf_counter() - t0)
                    tracer.active = False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    off, on = sum_of_medians(seconds[False]), sum_of_medians(seconds[True])
    print(f"{args.workload}: untraced {off:.4f} s, traced {on:.4f} s per round, "
          f"overhead {100 * (on / off - 1):.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
