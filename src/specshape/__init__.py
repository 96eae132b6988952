"""Cognitive-radio transmit PSD optimization against legacy services."""

from .errors import InfeasibleScenarioError, SolverError
from .spectra import ar1_spectrum, flat_spectrum, make_grid
from .estimation import UncodedScenario
from .shaping import onoff_prelog, rate_curve, solve
from .coded import CodedScenario, coded_prelog, solve_coded
from .mimo import MimoChannel, mimo_prelog, solve_mimo

__version__ = "0.1.0"

__all__ = [
    "InfeasibleScenarioError", "SolverError",
    "make_grid", "flat_spectrum", "ar1_spectrum",
    "UncodedScenario", "solve", "onoff_prelog", "rate_curve",
    "CodedScenario", "solve_coded", "coded_prelog",
    "MimoChannel", "solve_mimo", "mimo_prelog",
    "__version__",
]
