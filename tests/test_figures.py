"""Committed outputs, byte for byte: the six figure tables of
scripts/make_figure_data.py against tests/data/figures, the coded and MIMO
outputs (`specshape solve` on the coded and MIMO scenario files, the stdout of
scripts/rank_scaling_sweep.py) against tests/data/coded_mimo, and the
multilegacy and uncoded solves against tests/data/multilegacy and
tests/data/uncoded, and the prelog meshes at the benchmark's smallest and
largest grids against tests/data/prelog_mesh. A cell that moves fails here;
update the copy in the same change and say why. The full-size outputs of
every scenario file must also be the same bytes at one and two BLAS threads."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specshape import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "figures"
CODED_MIMO = ROOT / "tests" / "data" / "coded_mimo"
MULTILEGACY = ROOT / "tests" / "data" / "multilegacy"
UNCODED = ROOT / "tests" / "data" / "uncoded"
PRELOG_MESH = ROOT / "tests" / "data" / "prelog_mesh"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_figure_tables_match_the_committed_copies(tmp_path, monkeypatch, capsys):
    script = load_script("make_figure_data")
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "-o", str(tmp_path)])
    assert script.main() == 0
    names = sorted(target for _, _, target in script.JOBS)
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def solve_to(tmp_path, scenario, grid, golden):
    out = tmp_path / golden
    argv = ["solve", str(ROOT / "scripts" / "scenarios" / f"{scenario}.json"),
            "-o", str(out), "--quiet"]
    assert cli.main(argv + (["--grid", str(grid)] if grid else [])) == 0
    return out.read_bytes()


@pytest.mark.parametrize("scenario, grid, golden", [
    ("coded_single", None, "coded_single.json"),
    ("mimo_single", 64, "mimo_single.64.json"),
    ("mimo_single", 4096, "mimo_single.4096.json"),
    ("mimo_single", 32768, "mimo_single.32768.json"),
])
def test_coded_mimo_solves_match_the_committed_copies(tmp_path, scenario, grid, golden):
    assert solve_to(tmp_path, scenario, grid, golden) == (CODED_MIMO / golden).read_bytes()


@pytest.mark.parametrize("grid", [512, 4096])
def test_multilegacy_solves_match_the_committed_copies(tmp_path, grid):
    golden = f"multilegacy_single.{grid}.json"
    assert (solve_to(tmp_path, "multilegacy_single", grid, golden)
            == (MULTILEGACY / golden).read_bytes())


@pytest.mark.parametrize("grid", [512, 4096])
@pytest.mark.parametrize("scenario", ["uncoded_single", "uncoded_waterfill"])
def test_uncoded_solves_match_the_committed_copies(tmp_path, scenario, grid):
    # a flat case-2 solve, whose lambda is exactly 0, so no root-find stop
    # enters it, and an AR(1) case-1 solve, full-band water-filling
    golden = f"{scenario}.{grid}.json"
    assert solve_to(tmp_path, scenario, grid, golden) == (UNCODED / golden).read_bytes()


@pytest.mark.parametrize("grid", [512, 32768])
@pytest.mark.parametrize("scenario", ["flat_prelog_mesh", "ar_prelog_mesh"])
def test_prelog_meshes_match_the_committed_copies(tmp_path, scenario, grid):
    golden = f"{scenario}.{grid}.csv"
    out = tmp_path / golden
    assert cli.main(["prelog-mesh", str(ROOT / "scripts" / "scenarios" / f"{scenario}.json"),
                     "-o", str(out), "--grid", str(grid), "--quiet"]) == 0
    assert out.read_bytes() == (PRELOG_MESH / golden).read_bytes()


def test_rank_scaling_sweep_matches_the_committed_copy(monkeypatch, capsys):
    script = load_script("rank_scaling_sweep")
    monkeypatch.setattr(sys, "argv", ["rank_scaling_sweep.py"])
    assert script.main() == 0
    assert capsys.readouterr().out == (CODED_MIMO / "rank_scaling_sweep.txt").read_text()


# Writes every scenario file's output at 32768 points into the directory argv[1].
WRITE_FULL_SIZE = """
import sys
from pathlib import Path
from specshape import cli
for f in sorted(Path("scripts/scenarios").glob("*.json")):
    cmd = ("rate-curve" if f.name.endswith("_curve.json") else
           "prelog-mesh" if f.name.endswith("_mesh.json") else "solve")
    out = Path(sys.argv[1]) / f.name
    assert cli.main([cmd, str(f), "-o", str(out), "--grid", "32768", "--quiet"]) == 0, f
"""


def test_full_size_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot product across its threads, which moves its
    # rounding; the grid integrals and fills sum fixed slices in order instead
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", WRITE_FULL_SIZE, str(out)], cwd=ROOT, env=env,
                       check=True, timeout=600)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["1"]) == len(list((ROOT / "scripts" / "scenarios").glob("*.json"))) == 11
    assert outputs["1"] == outputs["2"]
