"""The Brent root-finder port against the installed SciPy, at the solvers'
one tolerance and at two absolute ones. The solvers' is SciPy's brentq with
rtol=_scalar._RTOL and maxiter=_scalar._MAXITER; their xtol is 0.0, but
SciPy needs xtol > 0, and at xtol=5e-324 its stop xtol + rtol*|x| is
rtol*|x| for |x| above about 1e-292, far below every bracket here. The other
tolerances are set on the port by patching its module constants.

Each case records every abscissa either side evaluates; the port must visit
the same points in the same order and return the same float, bit for bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from specshape import _scalar, cli
from specshape.errors import SolverError

SCENARIOS = Path(__file__).parent.parent / "scripts" / "scenarios"

# (xtol, rtol, maxiter): an absolute xtol that dominates the small roots, and
# a looser one with a cap that some of the flat cases run out of.
ROOT_TOLS = [(1e-18, 8.9e-16, 200), (1e-15, 8.9e-16, 100)]


def recorded(f):
    seen = []

    def g(x):
        seen.append(float(x))
        return f(x)
    return g, seen


def root_cases(seed):
    """(f, a, b) triples whose bracket changes sign: smooth, kinked at or
    near the root, flat near the root, and a jump and a staircase, at scales
    from 1e-9 to 1e2."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-9, 2)
    r = scale * rng.uniform(0.1, 1.0)
    a = r - scale * rng.uniform(0.01, 0.1) * rng.choice([1.0, 1e-3, 1e-6])
    b = r + scale * rng.uniform(0.01, 3.0)
    c = rng.uniform(0.5, 5.0)
    kink = r + rng.uniform(0.0, 0.2) * (b - r)
    m1, m2 = 10.0 ** rng.uniform(-3, 3, 2)
    return [
        (lambda x: math.expm1(c * (x - r) / scale), a, b),
        (lambda x: (x - r) * (1.0 + c * (x / scale) ** 2), a, b),
        (lambda x: math.tanh(c * (x - r) / scale) + 1e-3 * (x - r) / scale, a, b),
        (lambda x: m1 * (x - r) if x < kink else m1 * (kink - r) + m2 * (x - kink), a, b),
        (lambda x: m1 * (x - r) if x < r else m2 * (x - r), a, b),
        (lambda x: ((x - r) / scale) ** 5, a, b),
        (lambda x: 1e-10 * ((x - r) / scale) ** 3, a, b),
        (lambda x: math.copysign(math.expm1(abs(x - r) / scale) ** 7, x - r), a, b),
        (lambda x: -1.0 if x < r else c, a, b),
        (lambda x: math.floor(8.0 * (x - r) / scale) + 0.5, a, b),
    ]


def assert_matches_scipy(seed, scipy_xtol):
    # Brent converges only linearly on the flat-near-root cases, which can
    # exhaust the iteration cap: SciPy's RuntimeError must then be a
    # SolverError here, raised after the same evaluations.
    optimize = pytest.importorskip("scipy.optimize")
    for f, a, b in root_cases(seed):
        for lo, hi in ((a, b), (b, a)):
            f1, seen1 = recorded(f)
            f2, seen2 = recorded(f)
            try:
                want = optimize.brentq(f1, lo, hi, xtol=scipy_xtol, rtol=_scalar._RTOL,
                                       maxiter=_scalar._MAXITER)
            except RuntimeError:
                with pytest.raises(SolverError, match="did not converge"):
                    _scalar.brentq(f2, lo, hi)
            else:
                got = _scalar.brentq(f2, lo, hi)
                assert got == want
                assert type(got) is float
            assert seen2 == seen1


@pytest.mark.parametrize("seed", range(20))
def test_brentq_matches_scipy_at_the_solvers_tolerance(seed):
    assert _scalar._XTOL == 0.0
    assert_matches_scipy(seed, 5e-324)


@pytest.mark.parametrize("xtol, rtol, maxiter", ROOT_TOLS)
@pytest.mark.parametrize("seed", range(20))
def test_brentq_matches_scipy(seed, xtol, rtol, maxiter, monkeypatch):
    monkeypatch.setattr(_scalar, "_XTOL", xtol)
    monkeypatch.setattr(_scalar, "_RTOL", rtol)
    monkeypatch.setattr(_scalar, "_MAXITER", maxiter)
    assert_matches_scipy(seed, xtol)


def test_brentq_endpoint_roots():
    f = lambda x: x - 0.25  # noqa: E731
    assert _scalar.brentq(f, 0.25, 1.0) == 0.25
    assert _scalar.brentq(f, 0.0, 0.25) == 0.25


def test_brentq_without_sign_change_raises_solver_error():
    with pytest.raises(SolverError, match="no sign change"):
        _scalar.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_at_maxiter_raises_solver_error(monkeypatch):
    monkeypatch.setattr(_scalar, "_MAXITER", 3)
    with pytest.raises(SolverError, match="did not converge in 3 iterations"):
        _scalar.brentq(lambda x: math.expm1(x) - 0.3, 0.0, 1.0)


def test_nan_function_value_raises_solver_error():
    with pytest.raises(SolverError, match="NaN"):
        _scalar.brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)


def test_cli_reports_root_finder_failure_as_exit_4(tmp_path, capsys, monkeypatch):
    # A tilt root-find that runs out of iterations is a solver failure, not
    # an input error and not a traceback.
    monkeypatch.setattr(_scalar, "_MAXITER", 2)
    doc = json.loads((SCENARIOS / "uncoded_single.json").read_text())
    doc["epsilon"] = 0.1  # on flat spectra the tilt moves no MSE and is never root-found
    f = tmp_path / "ar.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    code = cli.main(["solve", str(f), "-o", str(out), "--grid", "512", "--quiet"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert "did not converge" in err and "Traceback" not in err
    assert not out.exists()
