"""Frequency grids and sampled power spectral densities.

Every process in the scalar models is WSS with a real, even PSD, so all
spectra live on the half band [0, pi] and full-band integrals
(1/2pi) * int_{-pi}^{pi} f(w) dw are evaluated as (1/pi) * sum_i weight_i * f_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MIN_GRID_POINTS = 16
# OpenBLAS splits a dot product of more than about 10,000 entries across its
# threads, so its rounding depends on the thread count; `_dot` keeps each
# BLAS call below that
_DOT_CHUNK = 8192


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _floats(values) -> np.ndarray:
    try:  # an int past the largest float is rejected as an infinite sample is
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError("PSD samples must be finite") from None


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot of two 1-D arrays, as the in-order sum of the dots of their
    _DOT_CHUNK-entry slices: the same float at any BLAS thread count, and
    np.dot's own on arrays of at most _DOT_CHUNK entries."""
    total = float(np.dot(a[:_DOT_CHUNK], b[:_DOT_CHUNK]))
    for i in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += float(np.dot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK]))
    return total


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform samples of [0, pi] with composite-trapezoid quadrature weights."""

    n_points: int
    omegas: np.ndarray
    weights: np.ndarray

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Running sums of the weights, read-only; computed on first use."""
        return _frozen(np.cumsum(self.weights))

    def integrate(self, values: np.ndarray) -> float:
        """Approximate int_0^pi f(w) dw from samples of f."""
        return _dot(self.weights, values)

    def mean(self, values: np.ndarray) -> float:
        """Full-band average (1/2pi) int_{-pi}^{pi} of an even integrand."""
        return self.integrate(values) / np.pi


def make_grid(n_points: int = 4096) -> FrequencyGrid:
    """Build a uniform half-band grid with trapezoid weights summing to pi."""
    if n_points < MIN_GRID_POINTS:
        raise ValueError(f"need at least {MIN_GRID_POINTS} grid points, got {n_points}")
    omegas = np.linspace(0.0, np.pi, n_points)
    h = np.pi / (n_points - 1)
    weights = np.full(n_points, h)
    weights[0] = weights[-1] = h / 2.0
    return FrequencyGrid(n_points, _frozen(omegas), _frozen(weights))


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative sampled PSD on a half-band grid (linear power units),
    whose grid integral, and so its mean power, is a finite float."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = _floats(self.values)
        if v.shape != self.grid.omegas.shape:
            raise ValueError("PSD samples do not match the grid")
        if not np.isfinite(v).all():
            raise ValueError("PSD samples must be finite")
        if (v < 0).any():
            raise ValueError("PSD samples must be nonnegative")
        with np.errstate(over="ignore"):
            if not math.isfinite(self.grid.integrate(v)):
                raise ValueError("PSD integral over the band is past the float range")
        object.__setattr__(self, "values", _frozen(v))

    @cached_property
    def _peak(self) -> float:
        """The largest sample, as a Python float; computed on first use."""
        return float(self.values.max())


def flat_spectrum(grid: FrequencyGrid, variance: float) -> Spectrum:
    """Constant PSD with mean power equal to `variance`."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    return Spectrum(grid, np.full(grid.n_points, float(_floats(variance))))


def ar1_spectrum(grid: FrequencyGrid, variance: float, epsilon: float) -> Spectrum:
    """PSD of a first-order AR process with innovation rate epsilon in (0, 1].

    values = eps * variance / ((2 - eps) - 2 sqrt(1 - eps) cos w; epsilon = 1
    recovers the memoryless (flat) spectrum exactly.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("innovation rate must lie in (0, 1]")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    variance, epsilon = float(_floats(variance)), float(epsilon)
    denom = (2.0 - epsilon) - 2.0 * np.sqrt(1.0 - epsilon) * np.cos(grid.omegas)
    return Spectrum(grid, epsilon * variance / denom)


def tabulated_spectrum(grid: FrequencyGrid, values) -> Spectrum:
    """PSD from tabulated samples; values on a uniform [0, pi] grid of any
    length are linearly interpolated onto `grid`."""
    v = _floats(values)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("tabulated PSD needs a 1-D array of at least 2 samples")
    if v.size == grid.n_points:
        return Spectrum(grid, v)
    src = np.linspace(0.0, np.pi, v.size)
    return Spectrum(grid, np.interp(grid.omegas, src, v))


def mean_power(spectrum: Spectrum) -> float:
    """Total power (1/2pi) int_{-pi}^{pi} phi(w) dw of an even PSD."""
    return spectrum.grid.mean(spectrum.values)
