"""Water-filling power allocation against a fixed noise-plus-legacy spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, _positive
from .spectra import Spectrum, _dot


@dataclass(frozen=True)
class WaterfillResult:
    phi_x: Spectrum
    water_level: float
    rate: float
    power_used: float


def _fill(h: np.ndarray, base: np.ndarray, weights: np.ndarray, budget: float):
    """Exact fill phi = max(tau*h - base, 0) spending `budget` of power
    (1/pi) sum_i w_i phi_i and never more; cells with h <= 0 stay at zero.
    Returns (phi, tau), or None when no cell of positive weight has h > 0.

    Active-set Newton on tau, no sort: spent power is convex and piecewise
    linear in tau, so the closed-form tau on the cells taken as active falls
    onto the exact one as cells with tau*h <= base leave; at most one pass per
    cell, one when all are active. The set keeps a cell of positive weight,
    which rounding can drop when the budget is tiny next to the base mass.
    """
    hs, bs, ws, keep = h, base, weights, h > 0.0  # the first pass drops h <= 0
    target = budget * np.pi
    while True:
        if not keep.all():
            hs, bs, ws = hs[keep], bs[keep], ws[keep]
        wh = _dot(ws, hs)
        if wh <= 0.0:
            return None
        tau = (target + _dot(ws, bs)) / wh
        gap = tau * hs - bs
        keep = gap > 0.0
        if keep.all() or not ws[keep].any():
            break
    # The closed-form level cancels when the budget is small next to the base
    # mass; one linear step on the active cells restores the spent power.
    tau += (target - _dot(ws, np.maximum(gap, 0.0, out=gap))) / wh
    if not np.isfinite(tau):  # as when budget * pi overflows; the loop below would spin
        raise SolverError("the water level is not finite")
    step = 0.0
    while True:
        phi = np.where(h > 0.0, np.maximum(tau * h - base, 0.0), 0.0)
        over = _dot(weights, phi) / np.pi - budget
        if over <= 0.0:
            return phi, tau
        step = max(2.0 * step, over * np.pi / wh, float(np.spacing(tau)))
        tau -= step


def waterfill(base: Spectrum, budget: float) -> WaterfillResult:
    """Maximize the log rate against `base` subject to a total power budget."""
    budget = _positive(budget, "power budget must be positive and finite")
    grid = base.grid
    phi, level = _fill(np.ones(grid.n_points), base.values, grid.weights, budget)
    phi_x = Spectrum(grid, phi)
    return WaterfillResult(
        phi_x=phi_x,
        water_level=level,
        rate=rate(phi_x, base),
        power_used=grid.mean(phi),
    )


def rate(phi_x: Spectrum, base: Spectrum) -> float:
    """Achievable rate (1/2pi) int log(1 + phi_x/base) in nats."""
    if phi_x.grid is not base.grid:
        raise ValueError("spectra must share a grid")
    return rate_bins(phi_x.values, base.values, base.grid.weights)


def rate_bins(phi_x: np.ndarray, base: np.ndarray, weights: np.ndarray) -> float:
    active = phi_x > 0
    if np.any(active & (base <= 0)):
        raise ValueError("rate undefined: positive PSD over a zero noise floor")
    vals = np.zeros_like(base)
    np.divide(phi_x, base, out=vals, where=active)
    return _dot(weights, np.log1p(vals)) / np.pi
