"""The uncoded legacy scenario and the memoryless receiver's floor and cap.

Two receiver models: symbol-by-symbol MMSE estimation (ignores temporal
correlation, depends on variances only), whose floor and power cap are here,
and non-causal Wiener-Kolmogorov smoothing (depends on the full spectra),
whose MSE and floor `shaping` computes in pre-emphasis form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _positive
from .spectra import Spectrum, mean_power


@dataclass(frozen=True)
class UncodedScenario:
    """Uncoded legacy service: gain a, component spectra, targets D and P."""

    a: float
    phi_s: Spectrum
    phi_n: Spectrum
    D: float
    P: float

    def __post_init__(self):
        for name, message in (("a", "legacy channel gain must be positive and finite"),
                              ("D", "distortion target must be positive and finite"),
                              ("P", "power budget must be positive and finite")):
            object.__setattr__(self, name, _positive(getattr(self, name), message))
        if self.phi_s.grid is not self.phi_n.grid:
            raise ValueError("signal and noise spectra must share a grid")
        _check_floor(self.a, self.phi_s, self.phi_n)

    @property
    def grid(self):
        return self.phi_s.grid

    @property
    def sigma2_s(self) -> float:
        return mean_power(self.phi_s)

    @property
    def sigma2_n(self) -> float:
        return mean_power(self.phi_n)

    def base(self) -> np.ndarray:
        """Noise-plus-legacy floor a*phi_s + phi_n seen by the cognitive link."""
        return self.a * self.phi_s.values + self.phi_n.values


def _check_floor(a: float, phi_s: Spectrum, phi_n: Spectrum):
    """ValueError unless a max(phi_s)^2, a max(phi_s) + max(phi_n) and
    max(phi_s) max(phi_n) are finite floats. They bound a*phi_s^2, the floor
    a*phi_s + phi_n and the smoothing term phi_s*phi_n, which the solvers
    form sample by sample in the same order, so no sample of any of them
    overflows. Evaluated in Python floats: no numpy warning."""
    s, n = phi_s._peak, phi_n._peak
    if not (math.isfinite(a * s * s) and math.isfinite(a * s + n)):
        raise ValueError("legacy gain times the signal PSD is past the float range")
    if not math.isfinite(s * n):
        raise ValueError("signal PSD times noise PSD is past the float range")


def memoryless_floor(sigma2_s: float, sigma2_n: float, a: float) -> float:
    """Smallest distortion a memoryless receiver can reach (zero cognitive
    power); its limit 0 when there is no legacy signal or no noise."""
    if sigma2_s == 0 or sigma2_n == 0:
        return 0.0
    return 1.0 / (1.0 / sigma2_s + a / sigma2_n)


def memoryless_power_cap(scenario: UncodedScenario) -> float | None:
    """Total cognitive power admitted by a memoryless legacy receiver.

    Returns min(P, legacy-induced cap), or P when the target exceeds the
    legacy signal variance (constraint vacuous). Returns None when the target
    is unreachable even in silence; infeasibility is an expected outcome here,
    not an exception.
    """
    s2s, s2n = scenario.sigma2_s, scenario.sigma2_n
    if scenario.D >= s2s:
        return scenario.P
    if scenario.D < memoryless_floor(s2s, s2n, scenario.a):
        return None
    cap = s2s * scenario.D / (s2s - scenario.D) * scenario.a - s2n
    return min(scenario.P, cap)

