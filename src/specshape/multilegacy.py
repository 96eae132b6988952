"""High-power on-off support maximization under several legacy MSE targets.

Each of K legacy receivers sees the legacy signal through its own gain and
noise; the asymptotic support must keep every receiver's pre-emphasis mass
within its distortion slack. K = 1 reduces exactly to the single-receiver
on-off construction; for K >= 2 a prefix-greedy fill ordered by the worst
normalized cost density is used, followed by a bounded swap pass. With the
boundary cells taken fractionally the problem is a linear program (maximize
the support measure subject to K mass constraints, each cell weight in
[0, 1]), which an LP solver settles exactly. The greedy, which needs numpy
alone, is exact for K = 1 and in the low-noise case and matches the LP on
smooth spectra, but can fall short of it on rough ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import UncodedScenario, wk_floor
from .shaping import _prefix_length, preemphasized_psd
from .spectra import Spectrum, mean_power

_SWAP_PASSES = 16


@dataclass(frozen=True)
class LegacyReceiver:
    """Per-receiver legacy gain, noise spectrum and distortion target."""

    a: float
    phi_n: Spectrum
    D: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("receiver gain must be positive and finite")
        if not 0 < self.D < math.inf:
            raise ValueError("distortion targets must be positive and finite")


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


def _receiver_scenario(scenario: MultiLegacyScenario, r: LegacyReceiver) -> UncodedScenario:
    """Receiver r as a single-receiver scenario (the power budget is unused)."""
    return UncodedScenario(r.a, scenario.phi_s, r.phi_n, r.D, 1.0)


def max_prelog_support(scenario: MultiLegacyScenario) -> MultiPrelogResult:
    """Largest on-off support meeting all K pre-emphasis mass constraints.

    Cells are ranked by max_k cost_density_k / slack_k and filled prefix-wise;
    the stop cell enters fractionally so the K = 1 case matches the
    single-receiver construction exactly. A bounded swap pass then tries to
    trade one included cell for cheaper excluded ones.
    """
    w = scenario.grid.weights
    n = scenario.grid.n_points
    K = len(scenario.receivers)

    singles = [_receiver_scenario(scenario, r) for r in scenario.receivers]
    budgets = np.array([sc.D - wk_floor(sc) for sc in singles])
    if (budgets <= 0).any():
        return MultiPrelogResult(0.0, 0.0, np.zeros(n, dtype=bool), np.zeros(K), budgets)

    dens = np.array([preemphasized_psd(sc).values for sc in singles])
    costs = dens * w / np.pi
    with np.errstate(divide="ignore"):
        key = np.max(dens / budgets[:, None], axis=0)
    order = np.lexsort((np.arange(n), key))

    def filled_measure(mask, spent):
        # whole cells, plus the leftover budget spent on the cheapest
        # excluded cell, partially
        whole = float(w[mask].sum())
        rest = order[~mask[order]]
        if rest.size == 0:
            return whole
        c = costs[:, rest[0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(c > 0, (budgets - spent) / c, np.inf)
        return whole + min(1.0, max(0.0, float(np.min(ratios)))) * w[rest[0]]

    running = np.cumsum(costs[:, order], axis=1)
    take = _prefix_length(running, budgets)
    mask = np.zeros(n, dtype=bool)
    mask[order[:take]] = True
    spent = running[:, take - 1].copy() if take > 0 else np.zeros(K)
    measure = filled_measure(mask, spent)

    for _ in range(_SWAP_PASSES):
        if take == n:
            break
        # trade the included cell that loads the binding budget hardest for
        # cheaper excluded cells; keep only strict growth in filled measure
        binding = int(np.argmin(budgets - spent))
        inc = np.flatnonzero(mask)
        if inc.size == 0:
            break
        worst = inc[np.argmax(costs[binding, inc])]
        rest = order[~mask[order]]
        trial = mask.copy()
        trial[worst] = False
        t_spent = spent - costs[:, worst]
        # one pass over the excluded cells in rank order, taking each that
        # fits; spending only grows, so a cell that does not fit now never will
        while True:
            rest = rest[np.all(t_spent[:, None] + costs[:, rest] <= budgets[:, None], axis=0)]
            if rest.size == 0:
                break
            running = np.cumsum(np.column_stack([t_spent, costs[:, rest]]), axis=1)[:, 1:]
            got = _prefix_length(running, budgets)
            trial[rest[:got]] = True
            t_spent = running[:, got - 1].copy()
            rest = rest[got:]
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
    take = _prefix_length(np.cumsum(w[order] * s[order]), budget)
    mask[order[:take]] = True
    return mask
