"""Typed-error fuzz of the `mimo` and `coded` public surface.

The contract, as the CLI fuzz holds `main` to its exit codes:
- a constructor (`MimoChannel`, `CodedScenario`, and the grids a solver is
  given) returns a checked object or raises ValueError;
- a solver (`solve_mimo`, `mimo_prelog`, `solve_coded`, `coded_prelog`)
  given checked objects returns finite results or raises
  InfeasibleScenarioError or SolverError. A budget argument that is not a
  positive finite float is an input like a constructor's, so ValueError;
- no RuntimeWarning escapes either.

Each argument, and the first entry of each array, is set in turn to each of
VALUES, as a float, a 0-d array and a float32 (an int past the float range
only as an int). Shapes put their least eigenvalue at +-the tolerance of the
shape check, and grids have 1, 2 and 32768 points.

It needs only numpy, pytest and specshape (no scipy, hypothesis or
tests/oracles.py), so it runs without the test extra.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from specshape.coded import CodedScenario, coded_prelog, solve_coded
from specshape.errors import InfeasibleScenarioError, SolverError
from specshape.mimo import MimoChannel, PsdMatrix, mimo_prelog, solve_mimo
from specshape.spectra import FrequencyGrid, make_grid

VALUES = [1e-320, 1e-300, 1e-12, 1.0, 1e12, 1e300, 1e308, -1.0, math.nan, 10**400]


def twins(value):
    """(label, value) of each form of one of VALUES."""
    if isinstance(value, int):
        return [("int:10**400", value)]
    with np.errstate(over="ignore", under="ignore"):  # a float32 of 1e300 is inf
        return [(f"float:{value!r}", value), (f"0-d:{value!r}", np.array(value)),
                (f"float32:{value!r}", np.float32(value))]


FORMS = [form for value in VALUES for form in twins(value)]


def hand_grid(n):
    """A trapezoid grid of n points built without make_grid's lower bound."""
    h = np.pi / max(n - 1, 1)
    weights = np.full(n, h) if n > 1 else np.array([np.pi])
    if n > 1:
        weights[0] = weights[-1] = h / 2.0
    return FrequencyGrid(n, np.linspace(0.0, np.pi, n), weights)


GRIDS = {1: hand_grid(1), 2: hand_grid(2), 64: make_grid(64), 32768: make_grid(32768)}

LINK = dict(a_l=1.0, g_l=1.0, a_c=1.0, g_c=10.0, sigma2_s=1000.0, sigma2_nl=1.0,
            sigma2_nc=1.0, R_l=3.5)
BASE = dict(H_c=[[1.0, 0.5], [0.0, 1.0]], h_l=[1.0, 0.5], h_c=[1.0, 0.2], shape=None)
P = 1e4

# The shape check's tolerance is 1e-12 max|Q| on the unit-trace Q; these put
# Q's least eigenvalue just inside and just outside it, at +-1e-12 max|Q|.
TOL_SHAPES = {f"diag(1, {t:+g})": np.diag([1.0, t * 1e-12]) for t in (1.01, 0.99, -0.99, -1.01)}


class Broken(Exception):
    """A result that breaks the contract."""


def finite(obj):
    """Raise Broken unless every float and array in a result is finite."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            finite(getattr(obj, f.name))
        if isinstance(obj, PsdMatrix):
            finite(obj.values)
    elif isinstance(obj, dict):
        for v in obj.values():
            finite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            finite(v)
    elif isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():
            raise Broken("non-finite array")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise Broken(f"non-finite result {obj!r}")


def valid_budget(P):
    try:
        return 0.0 < float(P) < math.inf
    except (OverflowError, TypeError):
        return False


def run(build, *solvers):
    """The contract's verdict on one case: None, or what broke it. `build`
    makes the object; each solver is a pair (call, input_ok) of a call on
    that object and whether the call's own arguments are valid, so that a
    plain ValueError from it breaks the contract."""
    try:
        obj = build()
        finite(obj)
    except ValueError:
        return None
    except Broken as e:
        return f"constructor returned a {e}"
    except Exception as e:
        return f"constructor raised {type(e).__name__}: {e}"[:160]
    for solve, input_ok in solvers:
        try:
            finite(solve(obj))
        except (InfeasibleScenarioError, SolverError):
            continue
        except ValueError as e:
            if input_ok:
                return f"solver raised ValueError: {e}"[:160]
        except Broken as e:
            return str(e)
        except Exception as e:
            return f"solver raised {type(e).__name__}: {e}"[:160]
    return None


def off_dec_cases():
    """(label, build, solvers) of the links whose legacy decode rate in
    silence is not finite: a_c sigma2_s / sigma2_nc past the float range
    (+inf), and h_c = 0 with a_c sigma2_s past it (inf * 0, NaN). The legacy
    link carries R_l, so the search reaches the B regime."""
    grid = GRIDS[64]
    past = {**LINK, "a_c": 1e300, "sigma2_nc": 1e-10}
    zero_h_c = {**LINK, "a_c": 1e300, "sigma2_s": 1e10}
    # the search first, as the test of its SolverError reads it
    mimo_solvers = [(lambda ch: solve_mimo(ch, P, grid=grid), True), (mimo_prelog, True)]
    return [
        ("CodedScenario(a_c sigma2_s / sigma2_nc = inf)", lambda: CodedScenario(**past, P=P),
         [(solve_coded, True), (coded_prelog, True)]),
        ("MimoChannel(a_c sigma2_s / sigma2_nc = inf)", lambda: MimoChannel(**BASE, **past),
         mimo_solvers),
        ("MimoChannel(h_c = 0, a_c sigma2_s = inf)",
         lambda: MimoChannel(**{**BASE, "h_c": [0.0, 0.0]}, **zero_h_c), mimo_solvers),
    ]


def cases():
    """(label, build, solvers) of every fuzz case."""
    out = []
    # CodedScenario: each scalar and the budget
    for field in (*LINK, "P"):
        for label, v in FORMS:
            args = {**LINK, "P": P, field: v}
            out.append((f"CodedScenario.{field}={label}", lambda a=args: CodedScenario(**a),
                        [(solve_coded, True), (coded_prelog, True)]))
    # MimoChannel: each scalar, the first entry of each array, and the shapes
    grid = GRIDS[64]
    for field in LINK:
        for label, v in FORMS:
            out.append((f"MimoChannel.{field}={label}",
                        lambda f=field, v=v: MimoChannel(**BASE, **{**LINK, f: v}),
                        [(mimo_prelog, True), (lambda ch: solve_mimo(ch, P, grid=grid), True)]))
    for field in ("H_c", "h_l", "h_c", "shape"):
        for label, v in FORMS:
            def build(field=field, v=v):
                arr = np.array(np.eye(2) if field == "shape" else BASE[field], dtype=object)
                arr.flat[0] = v
                return MimoChannel(**{**BASE, field: arr}, **LINK)
            out.append((f"MimoChannel.{field}[0]={label}", build,
                        [(mimo_prelog, True), (lambda ch: solve_mimo(ch, P, grid=grid), True)]))
    for label, v in FORMS:  # v I, whose trace leaves the float range at the ends
        def build(v=v):
            shape = np.zeros((2, 2), dtype=object)
            shape[0, 0] = shape[1, 1] = v
            return MimoChannel(**{**BASE, "shape": shape}, **LINK)
        out.append((f"MimoChannel.shape={label}*I", build,
                    [(mimo_prelog, True), (lambda ch: solve_mimo(ch, P, grid=grid), True)]))
    # an indefinite shape whose unit-trace Q overflows
    out.append(("MimoChannel.shape=[[1e-300, 1], [1, 1e-300]]",
                lambda: MimoChannel(**{**BASE, "shape": [[1e-300, 1.0], [1.0, 1e-300]]}, **LINK),
                []))
    for name, S in TOL_SHAPES.items():
        for c in (1e-300, 1.0, 1e300):
            out.append((f"MimoChannel.shape={c:g}*{name}",
                        lambda S=S, c=c: MimoChannel(**{**BASE, "shape": c * S}, **LINK),
                        [(lambda ch, P=P: solve_mimo(ch, P, grid=grid), True)
                         for P in (1e-300, 1.0, 1e12, 1e300, 5e307)]))
    # the B regime with a legacy decode rate in silence, log1p(a_c sigma2_s
    # |h_c|^2 / sigma2_nc), that is not finite
    out.extend(off_dec_cases())
    # solve_mimo: each budget on each grid
    ch = MimoChannel(**BASE, **LINK)
    for n, g in GRIDS.items():
        for label, v in FORMS:
            out.append((f"solve_mimo(P={label}, n={n})", lambda: ch,
                        [(lambda ch, v=v, g=g: solve_mimo(ch, v, grid=g), valid_budget(v))]))
    return out


CASES = cases()

# The cases on which the contract breaks, each with the ROADMAP item that
# owns it; the list is exact, so a mend shows up here and takes its entry out.
KNOWN_ESCAPES = {}


def test_a_non_finite_decode_rate_in_silence_is_a_solver_error():
    # the B regime reads the decode constraint first at w_l, and a decode
    # rate in silence that is not finite stops it there
    for label, build, solvers in off_dec_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            obj = build()
            with pytest.raises(SolverError, match="decode rate in silence is not finite"):
                solvers[0][0](obj)


def test_grids_below_the_lower_bound_are_value_errors():
    for n in (1, 2):
        with pytest.raises(ValueError, match="grid points"):
            make_grid(n)


def test_every_case_keeps_the_contract():
    broken = {}
    for label, build, solvers in CASES:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdict = run(build, *solvers)
        if verdict is not None:
            broken[label] = verdict
    assert set(broken) == set(KNOWN_ESCAPES), broken
