"""The package imports and runs with numpy as its only third-party module."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

# Block scipy before anything imports it, import every specshape module, then
# run each scenario file through its CLI command at 512 points.
SCRIPT = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import specshape
from specshape import cli
for m in pkgutil.iter_modules(specshape.__path__):
    importlib.import_module("specshape." + m.name)
codes = {}
for path in sys.argv[2:]:
    cmd = ("rate-curve" if path.endswith("_curve.json") else
           "prelog-mesh" if path.endswith("_mesh.json") else "solve")
    out = sys.argv[1] + "/" + path.rsplit("/", 1)[-1] + ".out"
    codes[path] = cli.main([cmd, path, "-o", out, "--grid", "512", "--quiet"])
loaded = sorted(k for k, v in sys.modules.items() if k.split(".")[0] == "scipy" and v is not None)
print(json.dumps({"codes": codes, "scipy_loaded": loaded}))
"""

IMPORT_ALL = """
import importlib, pkgutil, sys
import specshape
for m in pkgutil.iter_modules(specshape.__path__):
    importlib.import_module("specshape." + m.name)
print("scipy" in sys.modules)
"""


def run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_out():
    assert run(IMPORT_ALL) == "False"


def test_cli_runs_every_scenario_with_scipy_blocked(tmp_path):
    files = sorted(str(p) for p in (ROOT / "scripts" / "scenarios").glob("*.json"))
    assert len(files) == 11
    result = json.loads(run(SCRIPT, str(tmp_path), *files))
    assert result["codes"] == {f: 0 for f in files}
    assert result["scipy_loaded"] == []
