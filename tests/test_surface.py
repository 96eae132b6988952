"""The public surface of each specshape module: the functions and classes it
defines whose names do not start with an underscore. References that only
tests call belong in `tests/oracles.py`, not in the package."""

import importlib
import inspect
import pkgutil

import specshape

SURFACE = {
    "_scalar": ["brentq"],
    "cli": ["SchemaError", "db_to_linear", "main"],
    "coded": ["CodedCase", "CodedScenario", "CodedSolution", "coded_prelog", "solve_coded"],
    "errors": ["InfeasibleScenarioError", "SolverError"],
    "estimation": ["UncodedScenario", "memoryless_floor", "memoryless_power_cap", "wk_floor",
                   "wk_mse"],
    "mimo": ["DecodeMode", "MimoChannel", "MimoSolution", "PsdMatrix", "mimo_prelog",
             "solve_mimo"],
    "multilegacy": ["LegacyReceiver", "MultiLegacyScenario", "MultiPrelogResult",
                    "low_noise_support", "max_prelog_support"],
    "shaping": ["CaseTag", "CurveMethod", "PrelogResult", "ShapingSolution", "onoff_prelog",
                "preemphasized_psd", "rate_curve", "solve"],
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
