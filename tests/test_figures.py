"""Committed outputs, byte for byte: the six figure tables of
scripts/make_figure_data.py against tests/data/figures, the coded and MIMO
outputs (`specshape solve` on the coded and MIMO scenario files, the stdout of
scripts/rank_scaling_sweep.py) against tests/data/coded_mimo, and the
multilegacy and uncoded solves against tests/data/multilegacy and
tests/data/uncoded, and the prelog meshes at the benchmark's smallest and
largest grids against tests/data/prelog_mesh. A cell that moves fails here;
update the copy in the same change and say why."""

import importlib.util
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
def test_uncoded_solves_match_the_committed_copies(tmp_path, grid):
    # a flat case, whose lambda is exactly 0, so no root-find stop enters it
    golden = f"uncoded_single.{grid}.json"
    assert solve_to(tmp_path, "uncoded_single", grid, golden) == (UNCODED / golden).read_bytes()


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
