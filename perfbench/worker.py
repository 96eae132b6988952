"""One workload in one fresh interpreter; started by run.py, not by hand.

    worker.py ROOT WORKLOAD SEED T_LAUNCH --setup-only
    worker.py ROOT WORKLOAD SEED T_LAUNCH --rounds R [--trace]

T_LAUNCH is the starter's perf_counter() just before this process was
started (CLOCK_MONOTONIC, shared by all processes), so setup time counts
interpreter start-up. A full run sets up, then runs every item once per
round; between rounds it starts SETUP_PROBES setup-only interpreters one at
a time and waits for each, so set-up samples are spread over the run. Prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

PROBE_TIMEOUT_S = 120
SETUP_PROBES = 4      # with the run's own set-up, five set-up samples a run


def setup(root: Path, workload: str, seed: int, t_launch: float, scratch: Path):
    """Import specshape, plan and build the inputs and warm up; returns the
    workload and the phase timings. The plan is the benchmark's own work
    (seeded draws, reference numerics, scenario files), so its time and the
    modules it loads are left out of the set-up figures."""
    modules_before = len(sys.modules)
    t0 = perf_counter()
    sys.path.insert(0, str(root / "src"))
    import specshape
    if Path(specshape.__file__).resolve().parent != (root / "src" / "specshape").resolve():
        raise RuntimeError(f"specshape imported from {specshape.__file__}, not {root / 'src'}")
    t1 = perf_counter()
    modules_imported = len(sys.modules) - modules_before
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, scratch)
    wl.plan()
    t2 = perf_counter()
    modules_planned = len(sys.modules)
    wl.build()
    t3 = perf_counter()
    wl.warmup()
    t4 = perf_counter()
    phases = {"setup_s": (t4 - t_launch) - (t2 - t1), "import_ms": 1e3 * (t1 - t0),
              "plan_ms": 1e3 * (t2 - t1), "inputs_ms": 1e3 * (t3 - t2),
              "warmup_ms": 1e3 * (t4 - t3),
              "modules_loaded": modules_imported + len(sys.modules) - modules_planned}
    return wl, phases


def probe(root: Path, workload: str, seed: int) -> dict:
    """Phase timings of one fresh setup-only interpreter."""
    t_launch = perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, str(root), workload, str(seed), repr(t_launch),
         "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["phases"][0]


def timed_rounds(wl, rounds: int, between, tracer=None):
    """Run every item once per round, calling between(r) after round r.
    Returns per-item lists of the seconds of the calls that returned, the
    last round's outputs, the failed point count and, when tracing, per-item
    lists of the trace summaries of the calls that returned."""
    n = len(wl.items)
    seconds = [[] for _ in range(n)]
    traces = [[] for _ in range(n)]
    outputs = [None] * n
    failed = 0
    for r in range(rounds):
        for i, item in enumerate(wl.items):
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            t0 = perf_counter()
            try:
                out, ok = item.call(), True
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out, ok = None, False
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                if ok:
                    traces[i].append(tracer.summary())
            if ok:
                seconds[i].append(dt)
            else:
                failed += item.points
            outputs[i] = out
        between(r)
    return seconds, outputs, failed, traces


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root", type=Path)
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("t_launch", type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    out_dir = args.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        wl, phases = setup(args.root, args.workload, args.seed, args.t_launch, scratch)
        result = {"phases": [phases]}
        if not args.setup_only:
            def between(r):
                # spread the probes evenly over the rounds
                while len(result["phases"]) - 1 < (r + 1) * SETUP_PROBES // args.rounds:
                    result["phases"].append(probe(args.root, args.workload, args.seed))

            tracer = None
            if args.trace:
                import tracer as tracing
                tracer = tracing.Tracer()
                result["wrapped"] = tracing.install(tracer)
            seconds, outputs, failed, traces = timed_rounds(wl, args.rounds, between, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems = wl.check(outputs)
            result.update({
                "items": [{"label": it.label, "grid": it.grid, "points": it.points,
                           "seconds": s, "trace": t}
                          for it, s, t in zip(wl.items, seconds, traces)],
                "attempted": args.rounds * sum(it.points for it in wl.items),
                "failed": failed,
                "problems": problems,
                "peak_rss_mb": peak_rss_mb,
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
