#!/usr/bin/env python3
"""specshape benchmark: one workload, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run starts one fresh single-threaded
interpreter that sets up (imports specshape, builds the inputs, warms up)
and then runs the workload's fixed batch of items round after round; between
rounds it starts four more interpreters that only set up. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. A fuller record goes to
.perfbench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median, rounds_for, sum_of_medians  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 160
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


def worker(root: Path, workload: str, seed: int, extra: list[str]) -> dict:
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    t_launch = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(root), workload, str(seed),
         repr(t_launch), *extra],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(items: list[dict]) -> dict:
    """Per-layer metrics of a traced run. Times are summed over items of each
    item's median round; counts come from the first round and must repeat in
    every round."""
    items = [it for it in items if it["trace"]]
    points = sum(it["points"] for it in items)

    def calls(name):
        return sum(it["trace"][0]["calls"].get(name, 0) for it in items)

    def timed(key, name, select=lambda it: True):
        return sum_of_medians([[t[key].get(name, 0.0) for t in it["trace"]]
                               for it in items if select(it)])

    def per(total, count, scale=1e3):
        return scale * total / count if count else 0.0

    m = {
        "spectra.Spectrum.calls_per_point": per(calls("spectra.Spectrum"), points, 1.0),
        "spectra.self_ms_per_point": per(timed("layer_self_s", "spectra"), points),
        "estimation.wk_floor.calls_per_point": per(calls("estimation.wk_floor"), points, 1.0),
        "estimation.wk_mse.calls_per_point": per(calls("estimation.wk_mse"), points, 1.0),
        "estimation.self_ms_per_point": per(timed("layer_self_s", "estimation"), points),
        "waterfill.waterfill.calls_per_point": per(calls("waterfill.waterfill"), points, 1.0),
        "waterfill.waterfill.ms_per_call": per(
            timed("inclusive_s", "waterfill.waterfill"), calls("waterfill.waterfill")),
        "shaping.solve_case1.useful_ratio": per(
            calls("shaping.solve_case1") - sum(it["trace"][0]["nones"].get(
                "shaping.solve_case1", 0) for it in items),
            calls("shaping.solve_case1"), 1.0),
        "shaping.self_ms_per_point": per(timed("layer_self_s", "shaping"), points),
    }
    for n in (512, 4096, 32768):
        sel = [it for it in items if it["grid"] == n]
        m[f"shaping.self_ms_per_point.n{n}"] = per(
            timed("layer_self_s", "shaping", lambda it: it["grid"] == n),
            sum(it["points"] for it in sel))
    m.update({
        "shaping.onoff_prelog.us_per_call": per(
            timed("inclusive_s", "shaping.onoff_prelog"), calls("shaping.onoff_prelog"), 1e6),
        "multilegacy.max_prelog_support.ms_per_call": per(
            timed("inclusive_s", "multilegacy.max_prelog_support"),
            calls("multilegacy.max_prelog_support")),
        "coded.solve_coded.ms_per_call": per(
            timed("inclusive_s", "coded.solve_coded"), calls("coded.solve_coded")),
        "coded.legacy_rate.calls_per_solve": per(
            calls("coded.legacy_rate"), calls("coded.solve_coded"), 1.0),
        "coded.decode_rate_at_cognitive.calls_per_solve": per(
            calls("coded.decode_rate_at_cognitive"), calls("coded.solve_coded"), 1.0),
        "mimo.solve_mimo.ms_per_call": per(
            timed("inclusive_s", "mimo.solve_mimo"), calls("mimo.solve_mimo")),
        "mimo.PsdMatrix.ms_per_call": per(
            timed("inclusive_s", "mimo.PsdMatrix"), calls("mimo.PsdMatrix")),
        "cli.self_ms_per_command": per(timed("layer_self_s", "cli"), calls("cli.main")),
    })
    return m


def counts_repeat(items: list[dict]) -> bool:
    return all(t["calls"] == it["trace"][0]["calls"] and t["nones"] == it["trace"][0]["nones"]
               for it in items for t in it["trace"])


def versions() -> dict:
    from importlib.metadata import version
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "specshape" / "__init__.py").is_file():
        print(f"no specshape sources under {root / 'src'}", file=sys.stderr)
        return 2

    rounds = rounds_for(args.seconds, WORKLOADS[args.workload].round_seconds)
    run = worker(root, args.workload, args.seed,
                 ["--rounds", str(rounds)] + (["--trace"] if args.trace else []))
    phases = run["phases"]
    items = run["items"]
    points = sum(it["points"] for it in items)
    # calls that raised are timed nowhere; they count in `failed`
    timed = [it for it in items if it["seconds"]]
    points_per_s = (sum(it["points"] for it in timed)
                    / sum_of_medians([it["seconds"] for it in timed])) if timed else 0.0

    if args.trace:
        values = {f"setup.{key}": median(p[key] for p in phases)
                  for key in ("import_ms", "modules_loaded", "inputs_ms", "warmup_ms")}
        values.update(layer_metrics(items))
    else:
        values = {"points_per_s": points_per_s,
                  "setup_s": median(p["setup_s"] for p in phases),
                  "peak_rss_mb": run["peak_rss_mb"]}
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise SystemExit(f"metrics {sorted(set(units) ^ set(values))} do not match BENCHMARK.json")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "versions": versions(),
        "thread_pins": THREAD_PINS, "setup_samples": phases,
        "points_per_round": points, "points_per_s": points_per_s,
        "counts_repeat": counts_repeat(items) if args.trace else None,
        "wrapped": run.get("wrapped"),
        "problems": run["problems"], "metrics": values,
        "items": items,
    }
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for p in run["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": (not run["problems"] and run["failed"] == 0
                    and (not args.trace or record["counts_repeat"])),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
