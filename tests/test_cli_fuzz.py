"""Mutation fuzz of the scenario-file front end.

Every scenario file under scripts/scenarios, and two tabulated variants, is
mutated one key path at a time: the key is dropped or set to each of VALUES,
and the first entry of each array is set to each of ENTRY_VALUES. Every
document must end in a documented exit code, with no exception escaping
`cli.main`, no file unless the exit code is 0, and only finite numbers in
that file (bar the `nan` that marks an infeasible memoryless receiver in
`rate-curve`'s `rate_it` column).

It needs only pytest and specshape (no scipy, hypothesis or tests/oracles.py),
so it runs without the test extra.
"""

import copy
import json
import math
import warnings
from pathlib import Path

import pytest

from specshape import cli

SCENARIOS = Path(__file__).parent.parent / "scripts" / "scenarios"

TABULATED = {
    "uncoded_tabulated.json": {
        "kind": "uncoded", "a": 100, "D": 0.05, "P": 1000,
        "phi_s_values": [0.5, 1.2, 2.0, 1.1, 0.7, 0.4, 0.3, 0.6, 0.9],
        "phi_n_values": [1.0, 0.6, 0.3, 0.6, 1.0]},
    "multilegacy_tabulated.json": {
        "kind": "multilegacy",
        "spectrum": {"type": "tabulated", "values": [2.0, 1.5, 1.0, 0.6, 0.3, 0.2]},
        "receivers": [{"a": 1000, "sigma2_n": 1, "D": 0.01},
                      {"a_db": 25, "sigma2_n_db": -3, "D_db": -15}]},
}
CORPUS = {**{p.name: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))},
          **TABULATED}

DROP = object()
VALUES = ["x", -1, 0, 1e308, None, [1], True, 10**400, {}, -1e-300, 1e-320, [],
          [[1, 2], [3]], 0.5, 1e300]
ENTRY_VALUES = [True, "2.5", 10**400]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_INFEASIBLE, cli.EXIT_SOLVER}


def key_paths(node, path=()):
    """The path of every key of every object in the document, and of every
    object held in a list (receivers[i])."""
    items = (node.items() if isinstance(node, dict) else
             [(i, v) for i, v in enumerate(node) if isinstance(v, dict)]
             if isinstance(node, list) else [])
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


def first_entries(doc):
    """The path of the first number of each array of numbers in the document."""
    for path in key_paths(doc):
        value = get(doc, path)
        if isinstance(value, list) and value and not isinstance(value[0], dict):
            while isinstance(value, list) and value:
                value, path = value[0], path + (0,)
            yield path


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = get(doc, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutations(doc):
    """(path, value, mutated document), the unmutated document first."""
    yield (), None, doc
    for path in key_paths(doc):
        for value in [DROP, *VALUES]:
            yield path, value, mutated(doc, path, value)
    for path in first_entries(doc):
        for value in ENTRY_VALUES:
            yield path, value, mutated(doc, path, value)


def command(name):
    return ("rate-curve" if name.endswith("_curve.json") else
            "prelog-mesh" if name.endswith("_mesh.json") else "solve")


def non_finite_numbers(cmd, text):
    """The numbers of an output file that are NaN or infinite, bar the nan
    of rate-curve's rate_it column."""
    if cmd == "solve":
        bad = []
        json.loads(text, parse_constant=bad.append)
        return bad
    header, *rows = (line.split(",") for line in text.splitlines())
    bad = []
    for row in rows:
        for col, cell in zip(header, row):
            try:
                x = float(cell)
            except ValueError:
                continue  # a case tag
            if not math.isfinite(x) and not (col == "rate_it" and cell == "nan"):
                bad.append((col, cell))
    return bad


def test_corpus_covers_every_scenario_file():
    assert len(CORPUS) == len(list(SCENARIOS.glob("*.json"))) + len(TABULATED) == 13
    paths = set(key_paths(CORPUS["multilegacy_single.json"]))
    assert {("receivers", 1), ("receivers", 1, "D_db"), ("spectrum", "epsilon")} <= paths
    assert list(first_entries(CORPUS["mimo_single.json"])) == [
        ("H_c", 0, 0), ("h_l", 0), ("h_c", 0)]
    assert sum(1 for doc in CORPUS.values() for _ in mutations(doc)) == 2075


# The documents on which a numpy RuntimeWarning, an error here as in the
# rest of the suite, escapes main: ar1_spectrum's denominator cancels to 0 at
# a tiny innovation rate. It is a FOUND line in CHANGES.md; the list is
# exact, so a mend shows up here and takes its entry out.
TINY_EPSILON = [(("epsilon",), 1e-320)]
KNOWN_ESCAPES = {
    "ar_prelog_mesh.json": TINY_EPSILON,
    "ar_rate_curve.json": TINY_EPSILON,
    "uncoded_waterfill.json": TINY_EPSILON,
    "multilegacy_single.json": [(("spectrum", "epsilon"), 1e-320)],
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_mutated_document_ends_in_a_documented_way(tmp_path, capsys, name):
    cmd = command(name)
    grid = "64" if name.startswith("mimo") else "128"
    src, out = tmp_path / "scenario.json", tmp_path / "out"
    failures, escaped = [], []
    for path, value, doc in mutations(CORPUS[name]):
        src.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        where = (path, "<dropped>" if value is DROP else value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = cli.main([cmd, str(src), "-o", str(out), "--grid", grid, "--quiet"])
            except RuntimeWarning:
                escaped.append(where)
                continue
            except Exception as e:  # nothing may escape main
                failures.append((*where, f"{type(e).__name__}: {e}"[:200]))
                continue
        if code not in EXIT_CODES:
            failures.append((*where, f"exit {code}"))
        elif code != cli.EXIT_OK and out.exists():
            failures.append((*where, f"exit {code} wrote a file"))
        elif code == cli.EXIT_OK and (bad := non_finite_numbers(cmd, out.read_text())):
            failures.append((*where, f"non-finite output {bad[:3]}"))
    capsys.readouterr()
    assert failures == []
    assert escaped == KNOWN_ESCAPES.get(name, [])


@pytest.mark.parametrize("name, path", [
    ("uncoded_tabulated.json", ("a",)),
    ("multilegacy_tabulated.json", ("receivers", 0, "a")),
    ("multilegacy_tabulated.json", ("receivers", 0, "sigma2_n")),
])
def test_inputs_past_the_float_range_end_when_the_file_is_read(tmp_path, capsys, name, path):
    # a gain of 1e308 puts a*phi_s^2 past the float range, and a noise power
    # of 1e308 the noise PSD's integral: input errors, raised before a solve
    src, out = tmp_path / "scenario.json", tmp_path / "out"
    src.write_text(json.dumps(mutated(CORPUS[name], path, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["solve", str(src), "-o", str(out), "--grid", "128", "--quiet"])
    assert code == cli.EXIT_INPUT and not out.exists()
    assert capsys.readouterr().err.startswith("input error: ")
