#!/usr/bin/env python3
"""Reference figures for perfbench/README.md: fresh measurements of the
ROADMAP baseline rows and the SHA-256 of the figure CSVs.

    python3 perfbench/reference_figures.py

Run from the repository root. Each timing is the fastest of REPEATS runs.
The six CSVs are written by `python3 scripts/make_figure_data.py -o DIR` into a
directory under .perfbench_out/ and removed afterwards. The digest is
reference only: no run of the benchmark compares against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}

SOLVE_TIMER = """
import sys, time
from specshape import UncodedScenario, ar1_spectrum, flat_spectrum, make_grid, solve
n, P = int(sys.argv[1]), float(sys.argv[2])
g = make_grid(n)
sc = UncodedScenario(1000.0, ar1_spectrum(g, 1.0, 0.1), flat_spectrum(g, 1.0), 0.01, P)
t = time.perf_counter(); solve(sc); print(time.perf_counter() - t)
"""


def fastest(fn) -> float:
    return min(fn() for _ in range(REPEATS))


def wall(cmd) -> float:
    t = perf_counter()
    subprocess.run(cmd, env=ENV, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return perf_counter() - t


def main() -> int:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    figs = Path(tempfile.mkdtemp(prefix="figures-", dir=out))
    try:
        rows = {
            "make_figure_data_s": fastest(lambda: wall(
                [sys.executable, "scripts/make_figure_data.py", "-o", str(figs)])),
            "interpreter_s": fastest(lambda: wall([sys.executable, "-c", "pass"])),
            "import_specshape_s": fastest(lambda: wall(
                [sys.executable, "-c", "import specshape"])),
        }
        for n, P in ((4096, 1e8), (4096, 1e2), (512, 1e2), (32768, 1e2)):
            rows[f"solve_ar1_n{n}_P{P:g}_s"] = fastest(lambda: float(subprocess.run(
                [sys.executable, "-c", SOLVE_TIMER, str(n), str(P)], env=ENV, check=True,
                capture_output=True, text=True).stdout))
        rows["figure_csv_sha256"] = {csv.name: hashlib.sha256(csv.read_bytes()).hexdigest()
                                     for csv in sorted(figs.glob("*.csv"))}
    finally:
        shutil.rmtree(figs, ignore_errors=True)
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
