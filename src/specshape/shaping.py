"""Spectrum-shaping rate maximization against an uncoded legacy receiver.

The solver dispatches on two regimes. When the plain water-filling PSD at
budget P already meets the distortion target, it is optimal (case 1).
Otherwise both the power and the distortion constraints are active (case 2)
and the problem is non-convex. Case 2 is solved over a family of candidate
supports: cells are ordered by the pre-emphasized legacy PSD
a*phi_s^2/(a*phi_s + phi_n) and a support of measure fraction w keeps the
cheapest cells (the boundary cell may be kept fractionally, which is exact on
the continuum and required when the pre-emphasized PSD has flat stretches).
On a given support, the stationary PSD family

    phi_x = (1 + sqrt(1 + 4*lam*mu*a*phi_s^2)) / (-2*mu) - a*phi_s - phi_n

is swept by a change of variables: with tau = 1/(-2*mu) and nu = lam*(-mu),
phi_x = max(tau*h - base, 0) with h = 1 + sqrt(1 - 4*nu*u), so matching the
power budget is a one-dimensional monotone fill in tau (solved exactly by
sorting the cells by base/h) and matching the distortion target is a
one-dimensional root-find in nu. Plain water-filling is the same fill at
nu = 0, so the case-1 test is the fill at nu = 0 on the full band.
The support fraction itself is then optimized by a coarse sweep plus
golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import _scalar
from .errors import InfeasibleScenarioError, SolverError
from .estimation import UncodedScenario, memoryless_power_cap
from .spectra import Spectrum
from .waterfill import _fill, rate_bins, waterfill

_TIGHT_RTOL = 1e-6
_COARSE_POINTS = 40
_GOLDEN_ITERS = 56


class CaseTag(str, Enum):
    WATERFILL_FEASIBLE = "WaterfillFeasible"
    BOTH_CONSTRAINTS_ACTIVE = "BothConstraintsActive"
    INFEASIBLE = "Infeasible"
    DEGENERATE_ZERO = "DegenerateZero"


class CurveMethod(str, Enum):
    INTERFERENCE_TEMPERATURE = "InterferenceTemperature"
    SPECTRUM_SHAPING = "SpectrumShaping"


@dataclass(frozen=True)
class ShapingSolution:
    phi_x: Spectrum
    rate: float
    mse: float
    power: float
    case_tag: CaseTag
    lam: float
    mu: float


@dataclass(frozen=True)
class PrelogResult:
    prelog: float
    gamma: float
    support_fraction: float
    support: np.ndarray


def preemphasized_psd(scenario: UncodedScenario) -> Spectrum:
    """Pre-emphasized legacy PSD a*phi_s^2/(a*phi_s + phi_n)."""
    s = scenario.phi_s.values
    den = scenario.a * s + scenario.phi_n.values
    out = np.zeros_like(s)
    np.divide(scenario.a * s * s, den, out=out, where=den > 0)
    return Spectrum(scenario.grid, out)


class _Workspace:
    """Scenario-level arrays shared across budgets: pre-emphasis order and
    prefix sums. Everything here is independent of P."""

    def __init__(self, scenario: UncodedScenario):
        self.scenario = scenario
        grid = scenario.grid
        self.grid = grid
        self.s = scenario.phi_s.values
        self.n = scenario.phi_n.values
        self.b = scenario.base()
        self.u = preemphasized_psd(scenario).values
        df = np.zeros_like(self.s)
        np.divide(self.s * self.n, self.b, out=df, where=self.b > 0)
        self.dfloor_integrand = df
        self.dlow = grid.mean(df)
        order = np.lexsort((np.arange(grid.n_points), self.u))
        self.order = order
        self.us = self.u[order]
        self.bs = self.b[order]
        self.ss = self.s[order]
        self.ns = self.n[order]
        self.qs = scenario.a * self.ss * self.ss  # discriminant term a*phi_s^2
        self.ws = grid.weights[order]
        self.dfs = df[order]
        self.cumw = np.cumsum(self.ws)
        self.prefix_wdf = np.concatenate([[0.0], np.cumsum(self.ws * self.dfs)])
        self.total_wdf = self.prefix_wdf[-1]
        self.prefix_wu = np.concatenate([[0.0], np.cumsum(self.ws * self.us)])


@dataclass
class _Candidate:
    wfrac: float
    n_full: int
    theta: float
    phi: np.ndarray
    rate: float
    mse: float
    lam: float
    mu: float
    tight: bool


def _support_slices(ws: _Workspace, wfrac: float):
    """Cheapest cells of total measure wfrac*pi; the boundary cell enters
    with its weight scaled by theta in [0, 1]."""
    target = wfrac * np.pi
    if target >= ws.cumw[-1]:
        return ws.cumw.size, 0.0, ws.ws.copy()
    j = int(np.searchsorted(ws.cumw, target, side="left"))
    below = ws.cumw[j - 1] if j > 0 else 0.0
    theta = (target - below) / ws.ws[j]
    wts = ws.ws[: j + 1].copy()
    wts[-1] *= theta
    return j, theta, wts


def _mse_terms(ws: _Workspace, n_full: int, theta: float, wts, phi) -> float:
    m = wts.size
    son, non, bon = ws.ss[:m], ws.ns[:m], ws.bs[:m]
    num = son * (phi + non)
    den = bon + phi
    on = np.zeros_like(num)
    np.divide(num, den, out=on, where=den > 0)
    on_df = ws.prefix_wdf[n_full] + (theta * ws.ws[n_full] * ws.dfs[n_full] if n_full < ws.cumw.size else 0.0)
    off = ws.total_wdf - on_df
    return (float(np.dot(wts, on)) + off) / np.pi


def _tilted_fill(ws: _Workspace, P: float, n_full: int, theta: float, wts, nu: float):
    """Exact power fill of max(tau*h - base, 0), h = 1 + sqrt(1 - 4 nu a phi_s^2),
    on a support; cells failing the discriminant test carry zero PSD.
    Returns (mse, phi, tau), or None when no cell passes."""
    m = wts.size
    disc = 1.0 - 4.0 * nu * ws.qs[:m]
    h = np.where(disc >= 0.0, 1.0 + np.sqrt(np.maximum(disc, 0.0)), 0.0)
    filled = _fill(h, ws.bs[:m], wts, P)
    if filled is None:
        return None
    phi, tau = filled
    return _mse_terms(ws, n_full, theta, wts, phi), phi, tau


def _evaluate_support(ws: _Workspace, P: float, D: float, wfrac: float) -> _Candidate | None:
    n_full, theta, wts = _support_slices(ws, wfrac)
    m = wts.size
    bs = ws.bs[:m]

    # Water-filling (nu = 0) on the support; optimal whenever the target stays
    # slack. Every support has a cell of positive weight, so the fill exists.
    mse, phi, tau = _tilted_fill(ws, P, n_full, theta, wts, 0.0)
    if mse <= D:
        return _Candidate(wfrac, n_full, theta, phi, rate_bins(phi, bs, wts), mse,
                          0.0, -0.5 / tau, False)

    # Both constraints tight: root-find the stationarity tilt nu. The residual
    # at nu = 0 is the water-filling excess above, so the bracket changes sign.
    def residual(nu: float):
        filled = _tilted_fill(ws, P, n_full, theta, wts, nu)
        return None if filled is None else filled[0] - D

    qmax = float(ws.qs[:m].max())
    if qmax <= 0.0:
        return None
    nu_lo = 0.0
    nu_hi = 0.25 / qmax
    for _ in range(80):
        g_hi = residual(nu_hi)
        if g_hi is None:
            return None
        if g_hi < 0.0:
            break
        nu_lo = nu_hi
        nu_hi *= 2.0
    else:
        return None
    nu = _scalar.brentq(residual, nu_lo, nu_hi, xtol=1e-18, rtol=8.9e-16, maxiter=200)
    mse, phi, tau = _tilted_fill(ws, P, n_full, theta, wts, nu)
    if abs(mse - D) > _TIGHT_RTOL * D:
        return None
    return _Candidate(wfrac, n_full, theta, phi, rate_bins(phi, bs, wts), mse,
                      2.0 * nu * tau, -0.5 / tau, True)


def _golden_max(f, lo: float, hi: float, iters: int):
    """Golden-section maximization tolerant of -inf plateaus; returns the best
    abscissa/value seen."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = lo, f(lo)
    v_hi = f(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > best_v:
            best_x, best_v = c, fc
        if fd > best_v:
            best_x, best_v = d, fd
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return best_x, best_v


def _render(ws: _Workspace, cand: _Candidate) -> Spectrum:
    """Grid rendering of a support-family candidate. A partially included
    boundary cell is dropped so the sampled PSD never exceeds the power
    budget; rate/mse/power fields carry the exact fractional-support values."""
    full = np.zeros(ws.grid.n_points)
    count = cand.phi.size
    if cand.n_full < ws.cumw.size and cand.theta < 1.0 - 1e-12:
        count -= 1
    full[ws.order[:count]] = cand.phi[:count]
    return Spectrum(ws.grid, full)


def _solution_from(ws: _Workspace, cand: _Candidate, P: float) -> ShapingSolution:
    # A water-filling candidate whose MSE lands on the target (the flat-spectra
    # optimum arrives this way) is both-constraints-active in substance.
    tight = cand.tight or abs(cand.mse - ws.scenario.D) <= _TIGHT_RTOL * ws.scenario.D
    tag = CaseTag.BOTH_CONSTRAINTS_ACTIVE if tight else CaseTag.WATERFILL_FEASIBLE
    return ShapingSolution(
        phi_x=_render(ws, cand),
        rate=cand.rate,
        mse=cand.mse,
        power=P,
        case_tag=tag,
        lam=cand.lam,
        mu=cand.mu,
    )


def _solve_case2_ws(ws: _Workspace, P: float, D: float) -> ShapingSolution:
    cache: dict[float, _Candidate | None] = {}

    def f(wfrac: float) -> float:
        wfrac = min(max(wfrac, 1e-9), 1.0)
        if wfrac not in cache:
            cache[wfrac] = _evaluate_support(ws, P, D, wfrac)
        c = cache[wfrac]
        return -math.inf if c is None else c.rate

    coarse = np.geomspace(1e-6, 1.0, _COARSE_POINTS)
    pl = _onoff_prelog_ws(ws, D)
    if 0.0 < pl.prelog < 1.0:
        coarse = np.append(coarse, [0.5 * pl.prelog, pl.prelog, min(1.0, 2.0 * pl.prelog)])
    coarse = np.unique(coarse)
    vals = [f(w) for w in coarse]
    k = int(np.argmax(vals))
    if not math.isfinite(vals[k]):
        raise SolverError(
            "no candidate support admits a solution "
            f"(P={P:g}, D={D:g}, floor={ws.dlow:g})")
    lo = coarse[k - 1] if k > 0 else coarse[0] * 0.5
    hi = coarse[k + 1] if k + 1 < coarse.size else 1.0
    _golden_max(f, lo, hi, _GOLDEN_ITERS)
    best = max((c for c in cache.values() if c is not None), key=lambda c: c.rate)
    return _solution_from(ws, best, P)


def _case1_ws(ws: _Workspace, P: float) -> ShapingSolution | None:
    """Full-band water-filling; None when it violates the distortion target."""
    mse, phi, tau = _tilted_fill(ws, P, ws.cumw.size, 0.0, ws.ws, 0.0)
    if mse > ws.scenario.D:
        return None
    full = np.empty_like(phi)
    full[ws.order] = phi
    return ShapingSolution(Spectrum(ws.grid, full), rate_bins(phi, ws.bs, ws.ws), mse,
                           ws.grid.mean(full), CaseTag.WATERFILL_FEASIBLE, 0.0, -0.5 / tau)


def _solve_ws(ws: _Workspace, P: float) -> ShapingSolution:
    """The uncoded case dispatch at budget P, shared by every entry point."""
    D = ws.scenario.D
    if D <= ws.dlow:
        zero = Spectrum(ws.grid, np.zeros(ws.grid.n_points))
        tag = CaseTag.INFEASIBLE if D < ws.dlow else CaseTag.DEGENERATE_ZERO
        return ShapingSolution(zero, 0.0, ws.dlow, 0.0, tag, 0.0, 0.0)
    c1 = _case1_ws(ws, P)
    return c1 if c1 is not None else _solve_case2_ws(ws, P, D)


def solve_case1(scenario: UncodedScenario) -> ShapingSolution | None:
    """Full-band water-filling; None when it violates the distortion target."""
    ws = _Workspace(scenario)
    if scenario.D <= ws.dlow:
        raise InfeasibleScenarioError("distortion target at or below the smoothing floor")
    return _case1_ws(ws, scenario.P)


def solve_case2(scenario: UncodedScenario) -> ShapingSolution:
    """Both-constraints-active solver over the pre-emphasis support family."""
    ws = _Workspace(scenario)
    if scenario.D <= ws.dlow:
        raise InfeasibleScenarioError("distortion target at or below the smoothing floor")
    return _solve_case2_ws(ws, scenario.P, scenario.D)


def solve(scenario: UncodedScenario) -> ShapingSolution:
    """Case dispatch. Infeasible and degenerate targets come back as tagged
    zero-power solutions rather than exceptions."""
    return _solve_ws(_Workspace(scenario), scenario.P)


def flat_case_closed_form(scenario: UncodedScenario) -> ShapingSolution:
    """On-off optimum for flat legacy and noise spectra in the case-2 regime."""
    sv, nv = scenario.phi_s.values, scenario.phi_n.values
    if np.ptp(sv) != 0.0 or np.ptp(nv) != 0.0:
        raise ValueError("closed form requires flat legacy and noise spectra")
    s2s, s2n, a, P, D = sv[0], nv[0], scenario.a, scenario.P, scenario.D
    B = a * s2s + s2n
    dlow = s2s * s2n / B
    if D <= dlow:
        raise InfeasibleScenarioError("distortion target at or below the smoothing floor")
    phi0 = a * s2s * s2s * P / ((D - dlow) * B) - B
    if phi0 <= 0.0:
        raise ValueError("outside the closed-form regime: on-level is not positive")
    w = P / phi0
    if w > 1.0:
        raise ValueError(
            "outside the closed-form regime: support fraction exceeds 1 "
            "(the water-filling case applies; use solve_case2/solve)")
    cum = np.cumsum(scenario.grid.weights)
    mask = cum <= w * np.pi
    phi_x = Spectrum(scenario.grid, np.where(mask, phi0, 0.0))
    return ShapingSolution(
        phi_x=phi_x,
        rate=w * math.log1p(phi0 / B),
        mse=D,
        power=P,
        case_tag=CaseTag.BOTH_CONSTRAINTS_ACTIVE,
        lam=0.0,
        mu=-1.0 / (phi0 + B),
    )


def _prefix_length(running, budgets) -> int:
    """Number of leading cells whose running costs stay within the budget;
    with one row of running costs per budget, within every budget. The
    running costs must be nondecreasing along each row."""
    return min(int(np.searchsorted(r, b, side="right"))
               for r, b in zip(np.atleast_2d(running), np.atleast_1d(budgets)))


def _onoff_prelog_ws(ws: _Workspace, D: float) -> PrelogResult:
    n = ws.cumw.size
    mask = np.zeros(n, dtype=bool)
    budget = D - ws.dlow
    if budget <= 0.0:
        return PrelogResult(0.0, 0.0, 0.0, mask)
    cum = ws.prefix_wu[1:] / np.pi
    if budget >= cum[-1]:
        mask[:] = True
        return PrelogResult(1.0, float(ws.us[-1]), 1.0, mask)
    k = _prefix_length(cum, budget)
    spent = cum[k - 1] if k > 0 else 0.0
    cost_next = ws.ws[k] * ws.us[k] / np.pi
    theta = (budget - spent) / cost_next if cost_next > 0 else 0.0
    mask[ws.order[:k]] = True
    measure = (ws.cumw[k - 1] if k > 0 else 0.0) + theta * ws.ws[k]
    frac = measure / np.pi
    gamma = float(ws.us[k]) if theta > 0 else float(ws.us[k - 1])
    return PrelogResult(min(frac, 1.0), gamma, min(frac, 1.0), mask)


def onoff_prelog(scenario: UncodedScenario) -> PrelogResult:
    """High-power on-off support: fill cells of smallest pre-emphasized PSD
    until their pre-emphasis mass equals D minus the smoothing floor. The
    boundary cell is included fractionally, so the threshold equation holds
    exactly even when the pre-emphasized PSD has flat stretches. Targets at
    or below the floor yield prelog 0."""
    return _onoff_prelog_ws(_Workspace(scenario), scenario.D)


def rate_curve(
    scenario: UncodedScenario,
    powers: Sequence[float],
    method: CurveMethod | str,
) -> list[tuple[float, float]]:
    """Rate versus power budget for one of the two strategies."""
    method = CurveMethod(method)
    pw = [float(p) for p in powers]
    if not all(0 < p < math.inf for p in pw) or any(b <= a for a, b in zip(pw, pw[1:])):
        raise ValueError("power budgets must be positive, finite and strictly ascending")

    if method is CurveMethod.INTERFERENCE_TEMPERATURE:
        base = Spectrum(scenario.grid, scenario.base())
        out: list[tuple[float, float]] = []
        for p in pw:
            cap = memoryless_power_cap(replace(scenario, P=p))
            if cap is None:
                raise InfeasibleScenarioError(
                    "memoryless receiver cannot meet the distortion target")
            out.append((p, waterfill(base, cap).rate if cap > 0 else 0.0))
        return out

    ws = _Workspace(scenario)
    if scenario.D < ws.dlow:
        raise InfeasibleScenarioError("distortion target below the smoothing floor")
    return [(p, _solve_ws(ws, p).rate) for p in pw]
