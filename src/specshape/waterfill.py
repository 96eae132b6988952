"""Water-filling power allocation against a fixed noise-plus-legacy spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum


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

    Sort-based (Palomar & Fonollosa, IEEE TSP 2005): a cell turns on once tau
    passes base/h, so with the cells sorted by that threshold the power at
    each threshold is read off prefix sums, and tau is linear in the budget on
    the active prefix.
    """
    on = np.flatnonzero(h > 0.0)
    thr = base[on] / h[on]
    order = np.argsort(thr, kind="stable")
    idx, thr = on[order], thr[order]
    wh = np.cumsum(weights[idx] * h[idx])
    if wh.size == 0 or wh[-1] <= 0.0:
        return None
    wb = np.cumsum(weights[idx] * base[idx])
    target = budget * np.pi
    # Power at each threshold is nondecreasing; the first cell of positive
    # weight spends nothing at its own threshold, so it is always active.
    k = max(int(np.searchsorted(thr * wh - wb, target)), int(np.argmax(wh > 0.0)) + 1)
    act = idx[:k]
    tau = (target + wb[k - 1]) / wh[k - 1]
    # The prefix-sum level cancels when the budget is small next to the base
    # mass; one linear step on the active cells restores the spent power.
    spent = float(np.dot(weights[act], np.maximum(tau * h[act] - base[act], 0.0)))
    tau += (target - spent) / wh[k - 1]
    phi = np.zeros_like(base)
    step = 0.0
    while True:
        phi[on] = np.maximum(tau * h[on] - base[on], 0.0)
        over = float(np.dot(weights, phi)) / np.pi - budget
        if over <= 0.0:
            return phi, tau
        step = max(2.0 * step, over * np.pi / wh[k - 1], np.spacing(tau))
        tau -= step


def waterfill(base: Spectrum, budget: float) -> WaterfillResult:
    """Maximize the log rate against `base` subject to a total power budget."""
    if not 0 < budget < math.inf:
        raise ValueError("power budget must be positive and finite")
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
    return float(np.dot(weights, np.log1p(vals))) / np.pi
