"""The six figure tables of scripts/make_figure_data.py, byte for byte
against the copies committed under tests/data/figures. A cell that moves
fails here; update the copy in the same change and say why."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "figures"


def test_figure_tables_match_the_committed_copies(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_figure_data", ROOT / "scripts" / "make_figure_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "-o", str(tmp_path)])
    assert script.main() == 0
    names = sorted(target for _, _, target in script.JOBS)
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
