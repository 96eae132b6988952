"""The JSON writer's float arrays, entry for entry as Python writes them.

`cli._json_pieces` streams a document as bytes and lays out each 1-D float
array in numpy, a slice of entries at a time. Every entry must read as
repr(float(f"{x:.12g}")), and the block as json.dumps(..., indent=2) lays it
out, at any depth. Each test compares the writer's text with
`oracles.json_text` on seeded arrays at three indent levels. Needs only numpy
and pytest; pyproject.toml makes a RuntimeWarning an error, so no finite
input may raise one.
"""

import json
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from specshape import cli
from specshape.errors import SolverError

SEED = 20261019
SCENARIOS = Path(__file__).parent.parent / "scripts" / "scenarios"


def nestings(values):
    """The array at indent 0, 2 and 6."""
    return [values, {"v": values}, {"a": {"b": {"v": values}}}]


def written(payload) -> str:
    """The writer's text of payload: its pieces joined."""
    return b"".join(cli._json_pieces(payload)).decode("ascii")


def assert_written_as_python(values):
    values = np.asarray(values, dtype=float)
    for payload in nestings(values):
        got = written(payload).split("\n")
        want = oracles.json_text(payload).split("\n")
        # a line-by-line report: a string diff of 10^5 lines takes minutes
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert len(got) == len(want) and not bad, bad[:5]


def both_signs(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, -x])


def test_random_doubles_over_every_exponent():
    # uniform bit patterns below the infinities: every binary exponent from
    # the subnormals to the largest float is drawn about equally often
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, 100_000, dtype=np.int64)
    x = both_signs(bits.view(np.float64))
    assert x.size == 200_000
    assert np.isfinite(x).all()
    assert np.unique(bits >> 52).size > 2000  # of the 2047 finite exponents
    assert_written_as_python(x)


def near_ties(rng, n, lo=-300, hi=290):
    """Floats near half-way between two 12-digit decimals m and m + 1 (times
    10^k): the nearest float to each tie, its neighbours up to 8 ulps away
    (the writer hands scaled values within 1e-3 of a tie, a few ulps, to
    Python), and scaled offsets of 1e-6 and near 1e-3 either side."""
    mant = rng.integers(10**11, 10**12, n)
    exps = rng.integers(lo, hi, n)
    out = []
    for m, k in zip(mant.tolist(), exps.tolist()):
        tie = float(f"{m}.5e{k}")
        out.append(tie)
        up = down = tie
        for _ in range(8):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            out += [up, down]
        out += [float(f"{m}.{frac}e{k}") for frac in ("499999", "500001", "499", "501",
                                                      "4989", "5011")]
    return both_signs(out)


def test_values_near_twelve_digit_ties():
    rng = np.random.default_rng(SEED + 1)
    assert_written_as_python(near_ties(rng, 2000))
    # positional range, where the layout (not only the digits) depends on m
    assert_written_as_python(near_ties(rng, 2000, lo=-16, hi=16))


def test_integers_up_to_1e17():
    rng = np.random.default_rng(SEED + 2)
    drawn = rng.integers(-10**17, 10**17, 20_000)
    scales = [10**k for k in range(18)]
    edges = [s + d for s in scales for d in (-1, 0, 1)] + [s // 2 for s in scales]
    small = rng.integers(-10**6, 10**6, 5_000)
    x = np.concatenate([drawn.astype(float), both_signs(edges), small.astype(float)])
    assert_written_as_python(x)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-308, 309)])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert np.isfinite(x).all()
    assert_written_as_python(both_signs(x))


def test_subnormals_zeros_and_the_largest_float():
    rng = np.random.default_rng(SEED + 3)
    subnormals = rng.integers(1, 2**52, 2000, dtype=np.int64).view(np.float64)
    tiny = sys.float_info.min
    edges = [0.0, -0.0, 5e-324, 1e-323, math.nextafter(tiny, 0.0), tiny,
             math.nextafter(tiny, 1.0), 1e-290, math.nextafter(1e-290, 0.0),
             1e290, math.nextafter(1e290, 0.0), sys.float_info.max,
             math.nextafter(sys.float_info.max, 0.0),
             # the edges of the numpy path's range [1e-4, 1e11)
             math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
             math.nextafter(1e11, 0.0), 1e11,
             # 12-digit roundings that roll into the next decade
             9.99999999999995, 99999999999.99995, 9.99999999999995e-5]
    assert_written_as_python(both_signs(np.concatenate([subnormals, edges])))


def test_arrays_longer_than_a_block_with_runs_across_its_edges():
    # the writer formats each run of bit-equal neighbours once; 0.0 and -0.0
    # compare equal but must keep their own texts
    b = 4096
    x = np.zeros(3 * b + 17)
    x[b - 3:b + 5] = -0.0
    x[2 * b - 1] = 0.5
    x[2 * b:2 * b + 2] = -0.0
    x[2 * b + 2:3 * b + 9] = 1.25
    x[3 * b + 9:] = -0.0
    assert_written_as_python(x)
    # one value over more than 4096 entries, then alternating zeros
    y = np.full(2 * b + 1, 3.0)
    y[b + 7:] = np.where(np.arange(y.size - b - 7) % 2, 0.0, -0.0)
    assert_written_as_python(y)
    # 4096-entry stretches with no run start, and runs of every length
    # around the one from which a run's text is multiplied
    z = np.zeros(4 * b)
    z[-1] = -0.0
    assert_written_as_python(z)
    rng = np.random.default_rng(SEED + 4)
    lengths = rng.integers(1, 3 * cli._LONG_RUN, 400)
    assert_written_as_python(np.repeat(rng.choice([0.0, -0.0, 0.1, 1e-5, 1e16], 400), lengths))
    assert_written_as_python(rng.choice([0.0, -0.0, 0.1, 1e-5, 1e16], 5 * b + 3))


@pytest.mark.parametrize("size", [4095, 4096, 4097, 3 * 4096 + 1])
def test_arrays_at_and_around_whole_slices(size):
    # the writer formats a slice of cli._SLICE entries at a time: an array
    # one short of a slice, one slice, one past it, and one entry into a
    # fourth slice, with no runs and with runs of every short length
    assert cli._SLICE == 4096
    rng = np.random.default_rng(SEED + 6 + size)
    assert_written_as_python(rng.standard_normal(size) * 10.0 ** rng.integers(-6, 12, size))
    pool = rng.choice([0.0, -0.0, 0.1, 1e-5, 2.5, 1e16], size)
    assert_written_as_python(np.repeat(pool, rng.integers(1, 5, size))[:size])


def test_runs_that_straddle_slice_edges():
    # a run that starts in one slice and ends in a later one is written from
    # its start: short runs across an edge, runs of _LONG_RUN and longer
    # across one edge, and one run over two whole slices
    b, long_run = cli._SLICE, cli._LONG_RUN
    x = np.linspace(1.0, 2.0, 4 * b + 5)
    x[b - 2:b + 3] = 0.75                          # 5 entries across the first edge
    x[2 * b - long_run // 2:2 * b + long_run // 2] = 3.5  # exactly _LONG_RUN across
    x[3 * b - long_run:3 * b + 1] = -1e-5          # _LONG_RUN + 1, one past the edge
    x[3 * b + 1:3 * b + 2] = 0.0
    assert_written_as_python(x)
    y = np.linspace(-1.0, 1.0, 4 * b)
    y[b - 1:3 * b + 1] = 1.5                       # over the whole second and third slices
    y[-long_run - 1:] = 1.5                        # a long run to the last entry
    assert_written_as_python(y)
    z = np.arange(2 * b + 3, dtype=float)
    z[b - long_run + 1:b + 1] = z[b - long_run + 1]  # _LONG_RUN entries ending on the edge
    z[b + 1:b + long_run + 1] = 7.0                # _LONG_RUN entries starting after it
    assert_written_as_python(z)


def test_signed_zeros_side_by_side_at_slice_edges():
    # 0.0 == -0.0, but each keeps its own text on either side of an edge
    b = cli._SLICE
    x = np.zeros(3 * b + 1)
    x[b:] = -0.0                                   # -0.0 from the first entry of a slice
    x[2 * b - 1] = 0.0                             # a lone 0.0 as a slice's last entry
    x[2 * b] = 0.0                                 # and again as the next one's first
    x[-1] = 0.0
    assert_written_as_python(x)
    assert_written_as_python(-x)
    alternating = np.where(np.arange(2 * b + 2) % 2, 0.0, -0.0)
    assert_written_as_python(alternating)


def test_a_long_run_is_written_in_pieces_of_at_most_a_slice():
    # a run's text is repeated at most cli._SLICE times a piece, so no piece
    # grows with the array
    x = np.full(8 * cli._SLICE + 3, 0.5)
    x[:2] = -0.0
    pieces = list(cli._json_pieces({"v": x}))
    assert max(map(len, pieces)) <= cli._SLICE * len(b",\n    0.5")
    assert b"".join(pieces).decode("ascii") == oracles.json_text({"v": x})


def test_solver_shaped_arrays():
    # what `solve` writes: a grid, and a field of zero stretches, water
    # levels and smooth runs
    rng = np.random.default_rng(SEED + 5)
    omega = np.linspace(0.0, np.pi, 32768)
    field = np.maximum(rng.standard_normal(20_000).cumsum() * 1e-3, 0.0)
    field[::7] = 2.5
    assert_written_as_python(np.concatenate([omega, field]))


def handed_to_python_for_cause(v):
    """Whether the writer may leave v to Python: zero, outside the numpy
    range, or s = |v| 10^(11 - e) within 1e-3 of a half-integer or at or past
    10^12 - 1/2, where the 12-digit rounding rolls into the next decade.
    Exact rational arithmetic, none of the writer's."""
    if v == 0 or not 1e-4 <= abs(v) < 1e11:
        return True
    x = Fraction(abs(v))
    e = math.floor(math.log10(abs(v)))
    e += (x >= Fraction(10) ** (e + 1)) - (x < Fraction(10) ** e)  # log10 may round
    s = x * Fraction(10) ** (11 - e)
    return (abs(s - math.floor(s) - Fraction(1, 2)) <= Fraction(1, 1000)
            or s >= 10**12 - Fraction(1, 2))


def test_solver_output_stays_off_the_python_path(monkeypatch):
    # the full-size grids and fields that `solve` writes for the uncoded
    # scenario files: Python formats only the entries the writer cannot lay
    # out in numpy, never a positional value it could
    handed = []

    def spy(x):
        handed.append(float(x))
        return f"{float(x):.12g}"

    monkeypatch.setattr(cli, "_fmt", spy)
    for name in ("uncoded_single.json", "uncoded_waterfill.json"):
        doc = json.loads((SCENARIOS / name).read_text())
        payload = cli._JOBS["solve"]["uncoded"](cli._Params(doc, name), 32768, 1.0)()
        for key in ("omega", "phi_x"):
            assert payload[key].size == 32768
            block = b"".join(cli._float_block(payload[key], b"")).decode("ascii")
            assert block == oracles.json_text(payload[key].tolist())
    assert handed
    assert [v for v in handed if not handed_to_python_for_cause(v)] == []


def test_other_float_widths_and_empty_arrays():
    x = np.array([0.1, -2.5, 1e-7, 3e20, 0.0], dtype=np.float32)
    assert_written_as_python(x)
    assert written({"v": np.zeros(0)}) == oracles.json_text({"v": []})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_raise_solver_error(bad):
    x = np.zeros(4096 + 5)
    x[-1] = bad
    with pytest.raises(SolverError):
        cli._json_pieces({"v": x})


def solve_payload(name, grid=32768):
    doc = json.loads((SCENARIOS / name).read_text())
    return cli._JOBS["solve"][doc["kind"]](cli._Params(doc, name), grid, 1.0)()


@pytest.mark.parametrize("name", ["uncoded_waterfill.json", "uncoded_single.json",
                                  "multilegacy_single.json"])
def test_writing_a_full_size_solve_holds_under_a_megabyte(tmp_path, name):
    # the writer streams its pieces: no row matrix of the whole grid and no
    # string of the whole document, where one _float_rows call over a whole
    # 32768-entry array held about 6 MB. An AR(1) field (epsilon 0.3) of
    # about 20,000 runs, a flat case-2 field of two runs, the second of
    # 32,470 zeros, and a 32768-entry int support, joined a slice at a time
    payload = solve_payload(name)
    key = "support" if payload["kind"] == "multilegacy" else "phi_x"
    assert payload[key].size == 32768
    out = tmp_path / "sol.json"
    cli._write_json(str(out), payload)  # the tables are built once per process
    tracemalloc.start()
    try:
        cli._write_json(str(out), payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak
    assert out.read_bytes() == (oracles.json_text(payload) + "\n").encode()


def test_a_non_finite_last_entry_exits_4_and_writes_no_file(tmp_path, monkeypatch, capsys):
    # the whole document is checked before its file is opened, so a NaN in
    # the last entry of the last array leaves no part of the stream behind
    solve = cli._JOBS["solve"]["uncoded"]

    def poisoned(*args):
        compute = solve(*args)

        def payload():
            result = compute()
            result["phi_x"] = result["phi_x"].copy()
            result["phi_x"][-1] = math.nan
            return result
        return payload

    monkeypatch.setitem(cli._JOBS["solve"], "uncoded", poisoned)
    out = tmp_path / "sol.json"
    code = cli.main(["solve", str(SCENARIOS / "uncoded_waterfill.json"), "-o", str(out),
                     "--grid", "32768", "--quiet"])
    assert code == cli.EXIT_SOLVER == 4
    assert not out.exists()
    assert "not finite" in capsys.readouterr().err


def test_a_failed_write_exits_2_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    # a write that fails once the file is open (here a full disk after the
    # first piece of a float array) removes the part already written
    float_block = cli._float_block

    def failing(values, pad):
        pieces = float_block(values, pad)
        yield next(pieces)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_float_block", failing)

    def solve(out):
        return cli.main(["solve", str(SCENARIOS / "uncoded_single.json"), "-o", str(out),
                         "--grid", "512", "--quiet"])

    out = tmp_path / "sol.json"
    assert solve(out) == cli.EXIT_INPUT == 2
    assert not out.exists()
    assert "No space left on device" in capsys.readouterr().err
    # only a plain file is removed: a link (like /dev/stdout) stays
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "target.json")
    assert solve(link) == 2
    assert link.is_symlink()


def test_a_type_json_cannot_write_raises_before_the_file_opens(tmp_path):
    # everything but the arrays' text is made before open: a complex number
    # after a float array raises and leaves no file
    out = tmp_path / "sol.json"
    with pytest.raises(TypeError):
        cli._write_json(str(out), {"a": np.linspace(0.0, 1.0, 5), "b": 1j})
    assert not out.exists()
