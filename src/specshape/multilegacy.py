"""High-power on-off support maximization under several legacy MSE targets.

Each of K legacy receivers sees the legacy signal through its own gain and
noise; the asymptotic support must keep every receiver's pre-emphasis mass
within its distortion slack. With boundary cells fractional this is a linear
program (maximize the support measure subject to K mass constraints, each cell
weight in [0, 1]) whose optimum has at most K fractional cells. K = 1 is the
single-receiver on-off construction exactly; K >= 2 is solved exactly as an
LP by a bounded simplex from the greedy start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, _positive
from .estimation import UncodedScenario, _check_floor
from .shaping import _Cells, _preemphasis
from .spectra import Spectrum, _dot, mean_power

_MAX_PIVOTS = 100_000  # simplex steps before SolverError (exit 4)


@dataclass(frozen=True)
class LegacyReceiver:
    """Per-receiver legacy gain, noise spectrum and distortion target."""

    a: float
    phi_n: Spectrum
    D: float

    def __post_init__(self):
        for name, message in (("a", "receiver gain must be positive and finite"),
                              ("D", "distortion targets must be positive and finite")):
            object.__setattr__(self, name, _positive(getattr(self, name), message))


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
            _check_floor(r.a, self.phi_s, r.phi_n)

    @property
    def grid(self):
        return self.phi_s.grid


@dataclass(frozen=True)
class MultiPrelogResult:
    prelog: float
    support: np.ndarray
    spent: np.ndarray
    budgets: np.ndarray


def max_prelog_support(scenario: MultiLegacyScenario) -> MultiPrelogResult:
    """Largest on-off support meeting all K pre-emphasis mass constraints.

    Cells are ranked by max_k cost_density_k / slack_k and filled prefix-wise;
    the stop cell enters fractionally, so K = 1 matches the single-receiver
    construction exactly. The simplex starts there, with the stop cell basic
    in the row that stopped it. The support is the cells taken whole.
    """
    w = scenario.grid.weights
    n = scenario.grid.n_points
    K = len(scenario.receivers)

    # each receiver as a single-receiver scenario (the power budget is unused)
    singles = [UncodedScenario(r.a, scenario.phi_s, r.phi_n, r.D, 1.0) for r in scenario.receivers]
    dens, _, floors = zip(*map(_preemphasis, singles))  # one pre-emphasis pass each
    budgets = np.array([sc.D for sc in singles]) - floors
    if (budgets <= 0).any():
        return MultiPrelogResult(0.0, np.zeros(n, dtype=bool), np.zeros(K), budgets)

    dens = np.array(dens)
    costs = dens * w / np.pi
    key = np.max(dens / budgets[:, None], axis=0)
    cells = _Cells(scenario.grid, np.argsort(key, kind="stable"))
    order = cells.order

    # each receiver's on-off stop (k, theta) along the shared order; the first binds
    stops = [cells.stops(d, [b])[0][2:] for d, b in zip(dens[:, order], budgets)]
    row = min(range(K), key=stops.__getitem__)
    take, theta = stops[row]
    x = np.zeros(n)
    x[order[:take]] = 1.0
    if take < n:
        stop = order[take]
        x[stop] = min(1.0, theta)
        basis = np.where(np.arange(K) == row, stop, np.arange(n, n + K))
        x = _simplex(w, costs / budgets[:, None], x, basis)

    support = x >= 1.0
    taken = order[support[order]]
    spent = np.cumsum(costs[:, taken], axis=1)[:, -1] if taken.size else np.zeros(K)
    frac = min(1.0, _dot(w, x) / np.pi) if take < n else 1.0
    return MultiPrelogResult(frac, support, spent, budgets)


def _simplex(w, A, x, basis):
    """Bounded-variable primal simplex for max w.x subject to A x <= 1 and
    0 <= x <= 1, from a basic feasible x. Variable n + k is the slack of row
    k, also in [0, 1] as A >= 0; basis holds one variable per row. Dantzig
    pricing, Bland's rule after a degenerate step; an entering variable that
    reaches its other bound first flips instead."""
    K, n = A.shape
    M, cost = np.hstack([A, np.eye(K)]), np.append(w, np.zeros(K))
    tol = 1e-12 * np.append(w, np.full(K, w.sum()))
    v = np.append(x, 1.0 - A @ x)
    side = np.where(v < 1.0, 1.0, -1.0)  # +1 at the lower bound, -1 at the upper
    side[basis] = 0.0
    v[side > 0] = 0.0
    t = 1.0
    for _ in range(_MAX_PIVOTS):
        inv = np.linalg.inv(M[:, basis])
        gain = (cost[basis] @ inv) @ M  # then in place: no more n-cell temporaries
        np.subtract(cost, gain, out=gain)
        gain *= side
        gain -= tol
        q = int(np.argmax(gain > 0) if t == 0.0 else np.argmax(gain))  # Bland if degenerate
        if gain[q] <= 0:
            return v[:n]
        # basic variable i falls by t * col[i] while v[q] moves by t * side[q]
        col = side[q] * (inv @ M[:, q])
        room = np.divide(np.where(col > 0, v[basis], v[basis] - 1.0), col, out=np.full(K, np.inf),
                         where=np.abs(col) > 1e-12 * np.abs(col).max()).clip(0.0)
        i = int(np.argmin(np.where(room == room.min(), basis, n + K)))
        t = min(float(room[i]), 1.0)
        v[basis] -= t * col
        if t == 1.0:  # v[q] reaches its other bound first
            v[q], side[q] = float(side[q] > 0), -side[q]
        else:  # basis[i] leaves at the bound it reached
            out, v[q] = basis[i], v[q] + t * side[q]
            v[out], side[out] = (0.0, 1.0) if col[i] > 0 else (1.0, -1.0)
            side[q], basis[i] = 0.0, q
    raise SolverError(f"the support LP did not settle in {_MAX_PIVOTS} pivots")


def low_noise_support(scenario: MultiLegacyScenario) -> np.ndarray:
    """Support mask in the low-noise regime: fill the cells where the legacy
    PSD is smallest until int_U phi_s = pi * min_k (D_k - sigma2_nk / a_k),
    the on-off stop of phi_s along its own stable sort."""
    s = scenario.phi_s.values
    budget = min(r.D - mean_power(r.phi_n) / r.a for r in scenario.receivers)
    cells = _Cells(scenario.grid, np.argsort(s, kind="stable"))
    [(_, _, take, _)] = cells.stops(s[cells.order], [budget])
    mask = np.zeros(s.size, dtype=bool)
    mask[cells.order[:take]] = True
    return mask
