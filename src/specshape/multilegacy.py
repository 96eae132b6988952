"""High-power on-off support maximization under several legacy MSE targets.

Each of K legacy receivers sees the legacy signal through its own gain and
noise; the asymptotic support must keep every receiver's pre-emphasis mass
within its distortion slack. K = 1 reduces exactly to the single-receiver
on-off construction; for K >= 2 a prefix-greedy fill ordered by the worst
normalized cost density is used, followed by a bounded swap pass. The general
problem has no known efficient algorithm, so the greedy is a documented
heuristic anchored by the K = 1 and low-noise exact cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, mean_power

_SWAP_PASSES = 16


@dataclass(frozen=True)
class LegacyReceiver:
    """Per-receiver legacy gain, noise spectrum and distortion target."""

    a: float
    phi_n: Spectrum
    D: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("receiver gain must be positive")
        if self.D <= 0:
            raise ValueError("distortion targets must be positive")


@dataclass(frozen=True)
class MultiLegacyScenario:
    phi_s: Spectrum
    receivers: tuple[LegacyReceiver, ...]

    def __post_init__(self):
        object.__setattr__(self, "receivers", tuple(self.receivers))
        if len(self.receivers) < 1:
            raise ValueError("need at least one legacy receiver")
        for r in self.receivers:
            if r.phi_n.grid is not self.phi_s.grid:
                raise ValueError("all spectra must share one grid")

    @property
    def grid(self):
        return self.phi_s.grid


@dataclass(frozen=True)
class MultiPrelogResult:
    prelog: float
    support_fraction: float
    support: np.ndarray
    spent: np.ndarray
    budgets: np.ndarray


def _floor_integrand(a: float, s: np.ndarray, n: np.ndarray) -> np.ndarray:
    den = a * s + n
    out = np.zeros_like(s)
    np.divide(s * n, den, out=out, where=den > 0)
    return out


def _cost_density(a: float, s: np.ndarray, n: np.ndarray) -> np.ndarray:
    den = a * s + n
    out = np.zeros_like(s)
    np.divide(a * s * s, den, out=out, where=den > 0)
    return out


def per_receiver_floor(scenario: MultiLegacyScenario, k: int) -> float:
    """Smoothing MSE of receiver k with zero cognitive transmission."""
    if not 0 <= k < len(scenario.receivers):
        raise IndexError(f"receiver index {k} out of range")
    r = scenario.receivers[k]
    return scenario.grid.mean(
        _floor_integrand(r.a, scenario.phi_s.values, r.phi_n.values))


def _prefix_fill(order, costs, budgets):
    """Add cells in `order` while every budget holds; returns (mask, spent,
    measure included fractionally at the stop cell)."""
    n = costs.shape[1]
    mask = np.zeros(n, dtype=bool)
    spent = np.zeros(costs.shape[0])
    stop = None
    for i in order:
        c = costs[:, i]
        if np.all(spent + c <= budgets):
            mask[i] = True
            spent = spent + c
        else:
            stop = i
            break
    return mask, spent, stop


def max_prelog_support(scenario: MultiLegacyScenario) -> MultiPrelogResult:
    """Largest on-off support meeting all K pre-emphasis mass constraints.

    Cells are ranked by max_k cost_density_k / slack_k and filled prefix-wise;
    the stop cell enters fractionally so the K = 1 case matches the
    single-receiver construction exactly. A bounded swap pass then tries to
    trade one included cell for cheaper excluded ones.
    """
    grid = scenario.grid
    s = scenario.phi_s.values
    w = grid.weights
    n = grid.n_points
    K = len(scenario.receivers)

    budgets = np.empty(K)
    dens = np.empty((K, n))
    for k, r in enumerate(scenario.receivers):
        budgets[k] = r.D - per_receiver_floor(scenario, k)
        dens[k] = _cost_density(r.a, s, r.phi_n.values)
    empty = MultiPrelogResult(0.0, 0.0, np.zeros(n, dtype=bool), np.zeros(K), budgets)
    if np.any(budgets <= 0):
        return empty

    costs = dens * w / np.pi
    with np.errstate(divide="ignore"):
        key = np.max(dens / budgets[:, None], axis=0)
    order = np.lexsort((np.arange(n), key))

    def fractional_measure(mask, spent):
        # leftover budget spent on the cheapest excluded cell, partially
        for i in order:
            if mask[i]:
                continue
            c = costs[:, i]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(c > 0, (budgets - spent) / c, np.inf)
            return min(1.0, max(0.0, float(np.min(ratios)))) * w[i]
        return 0.0

    def filled_measure(mask, spent):
        return float(w[mask].sum()) + fractional_measure(mask, spent)

    mask, spent, stop = _prefix_fill(order, costs, budgets)
    measure = filled_measure(mask, spent)

    for _ in range(_SWAP_PASSES):
        if stop is None:
            break
        # trade the included cell that loads the binding budget hardest for
        # cheaper excluded cells; keep only strict growth in filled measure
        binding = int(np.argmin(budgets - spent))
        inc = np.flatnonzero(mask)
        if inc.size == 0:
            break
        worst = inc[np.argmax(costs[binding, inc])]
        trial = mask.copy()
        trial[worst] = False
        t_spent = spent - costs[:, worst]
        for i in order:
            if trial[i] or i == worst:
                continue
            c = costs[:, i]
            if np.all(t_spent + c <= budgets):
                trial[i] = True
                t_spent = t_spent + c
        t_measure = filled_measure(trial, t_spent)
        if t_measure > measure + 1e-15:
            mask, spent, measure = trial, t_spent, t_measure
        else:
            break

    frac = min(1.0, measure / np.pi)
    return MultiPrelogResult(frac, frac, mask, spent, budgets)


def low_noise_support(scenario: MultiLegacyScenario) -> np.ndarray:
    """Support mask in the low-noise regime: fill the cells where the legacy
    PSD is smallest until int_U phi_s = pi * min_k (D_k - sigma2_nk / a_k)."""
    grid = scenario.grid
    s = scenario.phi_s.values
    w = grid.weights
    budget = np.pi * min(
        r.D - mean_power(r.phi_n) / r.a for r in scenario.receivers)
    mask = np.zeros(grid.n_points, dtype=bool)
    if budget <= 0:
        return mask
    order = np.lexsort((np.arange(grid.n_points), s))
    cost = w[order] * s[order]
    cum = np.cumsum(cost)
    take = int(np.searchsorted(cum, budget, side="right"))
    mask[order[:take]] = True
    return mask
