"""Exception types shared across the solver modules, and the one scalar check."""

import math


class InfeasibleScenarioError(ValueError):
    """The distortion or rate target cannot be met even with zero cognitive power."""


class SolverError(RuntimeError):
    """A numerical solver failed to converge; the message carries diagnostics."""


def _positive(value, message: str) -> float:
    """`value` as a float once 0 < value < inf, else ValueError(message)."""
    if not 0 < value < math.inf:  # a str raises TypeError here
        raise ValueError(message)
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise ValueError(message) from None
