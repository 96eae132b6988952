"""The public surface of each specshape module: the functions and classes it
defines whose names do not start with an underscore. References that only
tests call belong in `tests/oracles.py`, not in the package. Also, the type of
a scalar argument does not matter: every entry point computes in double
precision and returns Python floats."""

import dataclasses
import importlib
import inspect
import pkgutil
from enum import Enum

import numpy as np
import pytest

import specshape
from specshape.coded import CodedScenario, solve_coded
from specshape.estimation import UncodedScenario
from specshape.mimo import MimoChannel, solve_mimo
from specshape.multilegacy import LegacyReceiver, MultiLegacyScenario, max_prelog_support
from specshape.shaping import onoff_prelog, rate_curve, solve
from specshape.spectra import Spectrum, ar1_spectrum, flat_spectrum, make_grid
from specshape.waterfill import waterfill

SURFACE = {
    "_scalar": ["brentq"],
    "cli": ["SchemaError", "db_to_linear", "main"],
    "coded": ["CodedCase", "CodedScenario", "CodedSolution", "coded_prelog", "solve_coded"],
    "errors": ["InfeasibleScenarioError", "SolverError"],
    "estimation": ["UncodedScenario", "memoryless_floor", "memoryless_power_cap"],
    "mimo": ["DecodeMode", "MimoChannel", "MimoSolution", "PsdMatrix", "mimo_prelog",
             "solve_mimo"],
    "multilegacy": ["LegacyReceiver", "MultiLegacyScenario", "MultiPrelogResult",
                    "low_noise_support", "max_prelog_support"],
    "shaping": ["CaseTag", "CurveMethod", "PrelogResult", "ShapingSolution", "onoff_prelog",
                "rate_curve", "solve"],
    "spectra": ["FrequencyGrid", "Spectrum", "ar1_spectrum", "flat_spectrum", "make_grid",
                "mean_power", "tabulated_spectrum"],
    "waterfill": ["WaterfillResult", "rate", "rate_bins", "waterfill"],
}


def public_names(module) -> list[str]:
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__)


def test_public_surface():
    modules = sorted(m.name for m in pkgutil.iter_modules(specshape.__path__))
    got = {name: public_names(importlib.import_module(f"specshape.{name}"))
           for name in modules}
    assert got == SURFACE


GRID512, GRID64 = make_grid(512), make_grid(64)

# every value below is exact in float32, so each twin holds the float twin's values
TWINS = {
    "float": float,
    "float32": np.float32,
    "float64": np.float64,
    "0-d": np.array,
    "int": lambda x: int(x) if x.is_integer() else x,
}


def ar1_scenario(t):
    # AR(1) with innovation rate 1/8 at a = 30 dB, D = 2^-7, P = 40 dB
    return UncodedScenario(t(1000.0), ar1_spectrum(GRID512, t(1.0), t(0.125)),
                           flat_spectrum(GRID512, t(1.0)), t(2.0 ** -7), t(1e4))


def link_scalars(t):
    # the coded study link: 0 dB legacy gains and noises, g_c = 10, 30 dB legacy signal
    return dict(a_l=t(1.0), g_l=t(1.0), a_c=t(1.0), g_c=t(10.0), sigma2_s=t(1000.0),
                sigma2_nl=t(1.0), sigma2_nc=t(1.0), R_l=t(3.5))


def mimo_channel(t):
    e1 = [1.0, 0.0]
    return MimoChannel(H_c=np.eye(2), h_l=e1, h_c=e1, **link_scalars(t))


def one_receiver(t):
    phi_s = ar1_spectrum(GRID512, t(1.0), t(0.125))
    return MultiLegacyScenario(phi_s, [LegacyReceiver(t(1000.0), flat_spectrum(GRID512, t(1.0)),
                                                      t(2.0 ** -7))])


ENTRIES = {
    "ar1_spectrum": lambda t: ar1_spectrum(GRID512, t(1.0), t(0.125)),
    "solve": lambda t: solve(ar1_scenario(t)),
    "onoff_prelog": lambda t: onoff_prelog(ar1_scenario(t)),
    "rate_curve": lambda t: [rate_curve(ar1_scenario(t), [t(1e2), t(1e4)], method)
                             for method in ("SpectrumShaping", "InterferenceTemperature")],
    "waterfill": lambda t: waterfill(flat_spectrum(GRID512, t(2.0)), t(4.0)),
    "max_prelog_support": lambda t: max_prelog_support(one_receiver(t)),
    "solve_coded": lambda t: solve_coded(CodedScenario(P=t(1e4), **link_scalars(t))),
    "solve_mimo": lambda t: solve_mimo(mimo_channel(t), t(1e4), grid=GRID64),
}


def leaves(obj) -> list:
    """A result flattened to its scalars, each as (type name, value; a float
    by its hex form), and its arrays, each as (dtype, shape, bytes)."""
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in leaves(getattr(obj, f.name))]
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in leaves(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in leaves(v)]
    return [(type(obj).__name__, obj.hex() if isinstance(obj, float) else obj)]


@pytest.mark.parametrize("twin", sorted(TWINS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_scalar_type_does_not_matter(entry, twin):
    want = leaves(ENTRIES[entry](float))
    assert leaves(ENTRIES[entry](TWINS[twin])) == want
    # no numpy scalar: every scalar is a Python float, an int count or a tag
    assert all(x[0] in ("float", "int") or isinstance(x[1], Enum) for x in want if len(x) == 2)


# AR(1) scenarios (innovation rate, a, D, P) on whose fills the water level
# backs off by at least one spacing of itself, in case 1 and in case 2
BACKOFF = [(0.05, 1.0, 0.2, 1.0), (0.5, 1000.0, 0.01, 1.0), (0.1, 1000.0, 0.05, 1e6),
           (0.05, 1000.0, 0.01, 1e4)]


@pytest.mark.parametrize("eps, a, D, P", BACKOFF)
def test_backed_off_water_levels_are_python_floats(eps, a, D, P):
    sc = UncodedScenario(a, ar1_spectrum(GRID512, 1.0, eps), flat_spectrum(GRID512, 1.0), D, P)
    sol = solve(sc)
    assert type(sol.lam) is float and type(sol.mu) is float
    level = waterfill(Spectrum(GRID512, sc.base()), P).water_level
    assert type(level) is float


HUGE = 10 ** 400  # an int past the largest float


def huge_cases():
    sc, rx, ch = ar1_scenario(float), one_receiver(float).receivers[0], mimo_channel(float)
    link = link_scalars(float)
    flat = flat_spectrum(GRID512, 2.0)
    cases = {f"UncodedScenario.{f}": lambda f=f: dataclasses.replace(sc, **{f: HUGE})
             for f in ("a", "D", "P")}
    cases |= {f"LegacyReceiver.{f}": lambda f=f: dataclasses.replace(rx, **{f: HUGE})
              for f in ("a", "D")}
    cases |= {f"CodedScenario.{f}": lambda f=f: CodedScenario(**{"P": 1e4, **link, f: HUGE})
              for f in (*link, "P")}
    cases |= {f"MimoChannel.{f}": lambda f=f: dataclasses.replace(ch, **{f: HUGE}) for f in link}
    cases |= {f"MimoChannel.{f}": lambda f=f, v=v: dataclasses.replace(ch, **{f: v})
              for f, v in (("H_c", [[HUGE, 0], [0, 1]]), ("h_l", [HUGE, 0]),
                           ("h_c", [HUGE, 0]), ("shape", [[HUGE, 0], [0, 1]]))}
    cases["waterfill"] = lambda: waterfill(flat, HUGE)
    for method in ("SpectrumShaping", "InterferenceTemperature"):
        cases[f"rate_curve.{method}"] = lambda m=method: rate_curve(sc, [HUGE], m)
    cases["solve_mimo"] = lambda: solve_mimo(ch, HUGE, grid=GRID64)
    return cases


@pytest.mark.parametrize("case", sorted(huge_cases()))
def test_huge_int_scalar_or_budget_is_a_value_error(case):
    with pytest.raises(ValueError):
        huge_cases()[case]()
