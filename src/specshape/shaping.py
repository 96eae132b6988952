"""Spectrum-shaping rate maximization against an uncoded legacy receiver.

One search covers both regimes of the paper. Cells are ordered by the
pre-emphasized legacy PSD u = a*phi_s^2/(a*phi_s + phi_n), and a support of
measure fraction w keeps the cheapest cells (the boundary cell may be kept
fractionally, which is exact on the continuum and required when u has flat
stretches). Water-filling on a support never loses rate as w grows, so the
slack branch peaks at the kink, the widest support whose water-filling MSE
meets the distortion target. When the full band meets it, the kink is the
full band and plain water-filling is optimal (case 1). Otherwise the kink is
a root of the excess MSE in w, and past it both constraints are active
(case 2): the rate follows the tight branch, whose slope in w is the
boundary cell's Lagrangian value, and a bracket over cell edges and then
inside one cell locates its sign change.
On a given support, the stationary PSD family

    phi_x = (1 + sqrt(1 + 4*lam*mu*a*phi_s^2)) / (-2*mu) - a*phi_s - phi_n

is swept by a change of variables: with tau = 1/(-2*mu) and nu = lam*(-mu),
phi_x = max(tau*h - base, 0) with h = 1 + sqrt(1 - 4*nu*a*phi_s^2), so
matching the power budget is a one-dimensional monotone fill in tau (solved
exactly by Newton steps on tau that drop inactive cells, with no sort) and
matching the distortion target is a one-dimensional root-find in nu. Plain
water-filling is the same fill at nu = 0.
While every cell of a support is active the fill has a closed form, so the
root-finds read the MSE off prefix sums (nu = 0: every kink step, the full
band included) or one pass over the support (nu > 0), and the fill runs for
the candidates kept: the kink and each support's final nu. It also runs
where a cell would be off, or where rounding in the closed form could reach
the root-finds' stop tolerance (low power).

The u-order is not always the optimal order. At fixed lam, with
B = a*phi_s + phi_n, cell i is on exactly when -mu < T(lam*u_i)/B_i for one
non-increasing scalar function T, so the dual-optimal support is a prefix of
the order of the threshold key log B_i - log T(lam*u_i). When u and B rise
together across cells (flat noise, so every figure and benchmark input) the
u-order sorts that key at every lam, and the support family here holds the
dual optimum, up to a second time-shared boundary cell where two keys tie; a
shaped noise floor can break this.

One builder, `_Cells`, holds cells in an order with their weights and running
weights, and reads on-off stops off the running mass of a PSD along that
order. `_Workspace` is the `_Cells` of the u-order with the sums the fill
reads, shared across budgets by `solve` and `rate_curve` (the CLI's `solve`
reads its prelog and gamma off it too). `onoff_prelog` and the CLI's prelog
mesh (`_onoff_stops`, one stable sort of phi_s for every gain it serves) read
only the stops, and `multilegacy` its stops along its own orders. So every
stop takes one path: the order of a stable sort, running sums from
`_prefix_sums`, the stop from `_onoff_support`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import _scalar
from .errors import InfeasibleScenarioError, _positive
from .estimation import UncodedScenario, memoryless_power_cap
from .spectra import Spectrum
from .waterfill import _fill, rate_bins, waterfill

_TIGHT_RTOL = 1e-6
_MSE_RTOL = 1e-13  # tight MSE to this fraction of D - floor
_PEAK_RTOL = 1e-12  # rate the support search may leave, relative
_CANCEL = 16 * np.finfo(float).eps  # rounding of the closed-form MSE, relative to its sums


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
    support: np.ndarray


def _preemphasis(scenario: UncodedScenario):
    """(u, base, dlow) in grid order: the pre-emphasized legacy PSD
    u = a*phi_s^2/base, the floor base = a*phi_s + phi_n and the smoothing
    floor dlow, the mean of phi_s*phi_n/base; a cell with base 0 adds 0 to
    u and to dlow."""
    s, b = scenario.phi_s.values, scenario.base()
    u, df = np.zeros_like(s), np.zeros_like(s)
    np.divide(scenario.a * s * s, b, out=u, where=b > 0)
    np.divide(s * scenario.phi_n.values, b, out=df, where=b > 0)
    return u, b, scenario.grid.mean(df)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """[0, t_0, t_0 + t_1, ...] of nonnegative terms, to a few ulps. A plain
    cumsum's rounding grows with the length (1e-13 relative at 32768 cells).
    Here t_i - (s_i - s_{i-1}) is step i's rounding error, exactly when
    t_i <= s_{i-1} (Fast2Sum) and to an ulp of s_i otherwise, which only
    happens while the sum doubles; the running error is added back."""
    out = np.zeros(terms.size + 1)
    run = out[1:]
    np.cumsum(terms, out=run)
    err = run[1:] - run[:-1]
    np.subtract(terms[1:], err, out=err)
    np.cumsum(err, out=err)
    run[1:] += err
    return out


def _running_max(v: np.ndarray) -> np.ndarray:
    """np.maximum.accumulate(v): v itself where v never falls. With flat
    noise (every committed output and benchmark input) base and q both rise
    along the u-order, so neither workspace scan runs."""
    return v if (v[1:] >= v[:-1]).all() else np.maximum.accumulate(v)


class _Cells:
    """The cells of a grid in a given order: the order, the weights `ws` along
    it and their prefix sums `prefix_w` ([0, w_0, w_0 + w_1, ...]) and `cumw`
    (the same without the leading 0). Every on-off stop reads its cells from
    here."""

    def __init__(self, grid, order: np.ndarray):
        self.grid = grid
        self.order = order
        self.ws = grid.weights[order]
        self.prefix_w = _prefix_sums(self.ws)
        self.cumw = self.prefix_w[1:]

    def stops(self, us: np.ndarray, budgets: Sequence[float]):
        """`_onoff_support` at each budget, for the PSD `us` given in this
        order, on its running mass: the prefix sums of ws*us over pi."""
        cum = _prefix_sums(self.ws * us)[1:] / np.pi
        return [_onoff_support(self.cumw, self.ws, us, cum, b) for b in budgets]


class _Workspace(_Cells):
    """Scenario-level arrays shared across budgets, all independent of P: the
    `_Cells` of the pre-emphasis order and, along that order, prefix sums of
    w*u, w*base and w*q (q = a*phi_s^2, u = q/base) and prefix maxima of base
    and q, which the closed-form fill reads."""

    def __init__(self, scenario: UncodedScenario):
        self.scenario = scenario
        u, b, self.dlow = _preemphasis(scenario)
        order = np.argsort(u, kind="stable")
        self.us, self.bs = u[order], b[order]
        ss = scenario.phi_s.values[order]
        self.qs = scenario.a * ss * ss  # discriminant term a*phi_s^2
        # Free the unsorted arrays before the weights and sums take their
        # place. Kept alive, they push the sums up the heap, glibc returns
        # that memory to the system when the workspace is freed, and the next
        # 32768-point solve page-faults it back (about 1 ms a solve).
        del u, b, ss
        super().__init__(scenario.grid, order)
        self.prefix_wu = _prefix_sums(self.ws * self.us)
        self.prefix_wb = _prefix_sums(self.ws * self.bs)
        self.prefix_wq = _prefix_sums(self.ws * self.qs)
        self.maxb = _running_max(self.bs)
        self.maxq = _running_max(self.qs)


@dataclass
class _Candidate:
    n_full: int
    theta: float
    phi: np.ndarray
    rate: float
    mse: float
    nu: float
    tau: float


def _support(ws: _Workspace, wfrac: float):
    """(n_full, theta): the cheapest cells of total measure wfrac*pi are the
    first n_full plus the boundary cell n_full, whose weight enters scaled by
    theta in [0, 1]. wfrac = 1 is the whole band (n_full = n, theta = 0),
    whatever the rounding in the weight sum."""
    target = wfrac * np.pi
    if wfrac >= 1.0 or target >= ws.cumw[-1]:
        return ws.cumw.size, 0.0
    j = int(np.searchsorted(ws.cumw, target, side="left"))
    below = ws.cumw[j - 1] if j > 0 else 0.0
    return j, (target - below) / ws.ws[j]


def _weights(ws: _Workspace, n_full: int, theta: float) -> np.ndarray:
    """Cell weights of a support, the boundary cell's scaled by theta."""
    if n_full == ws.cumw.size:
        return ws.ws
    wts = ws.ws[: n_full + 1].copy()
    wts[-1] *= theta
    return wts


def _closed_mse(ws: _Workspace, P: float, n_full: int, theta: float, wts,
                nu: float) -> float | None:
    """MSE of the fill at tilt nu on a support, in closed form while every
    cell is active; None when one is not (a negative discriminant or
    tau*h <= base) or when rounding may hide the MSE from the root-finds.

    With every cell active, tau = (pi*P + sum w*base)/sum w*h and
    phi = tau*h - base, so each cell adds u*phi/(base + phi) =
    u - q/(tau*h) to the smoothing floor, and pi*(MSE - floor) = su - sr with
    su = sum w*u and sr = sum w*q/h over tau. At nu = 0 (h = 2) that is four
    prefix-sum reads; at nu > 0 (`wts` are the support's weights) one pass
    over the support. Both sums carry a relative error of a few ulps (the
    level, the compensated prefix sums, pairwise sums), so su - sr is known
    to within _CANCEL*(su + sr), and the MSE to that over pi plus an ulp for
    adding the floor. At low power, where su and sr nearly cancel, the bound
    can pass the fraction _MSE_RTOL of su - sr (at the root, the root-finds'
    stop tolerance); then the real fill takes over. The test compares MSEs,
    so its outcome does not depend on the units."""
    m = min(n_full + 1, ws.cumw.size)
    sw, swb, swq, su = (float(p[n_full]) for p in (ws.prefix_w, ws.prefix_wb, ws.prefix_wq,
                                                    ws.prefix_wu))
    if n_full < ws.cumw.size:
        tw = float(ws.ws[n_full] * theta)
        sw, swb, swq, su = (sw + tw, swb + tw * float(ws.bs[n_full]),
                            swq + tw * float(ws.qs[n_full]), su + tw * float(ws.us[n_full]))
    target = P * np.pi
    if nu == 0.0:
        tau = (target + swb) / (2.0 * sw)
        if not 2.0 * tau > ws.maxb[m - 1]:
            return None
        sr = swq / (2.0 * tau)
    else:
        if 4.0 * nu * ws.maxq[m - 1] > 1.0:
            return None
        h = np.multiply(ws.qs[:m], -4.0 * nu)
        h += 1.0
        np.sqrt(h, out=h)
        h += 1.0
        tau = (target + swb) / float((wts * h).sum())
        np.divide(ws.bs[:m], h, out=h)
        if not tau > h.max():
            return None
        h *= ws.us[:m]  # u*base/h = q/h
        h *= wts
        sr = float(h.sum()) / tau
    if _CANCEL * (su + sr) > _MSE_RTOL * (su - sr):
        return None
    return ws.dlow + (su - sr) / np.pi


def _tilted_fill(ws: _Workspace, P: float, wts, nu: float):
    """Exact power fill of max(tau*h - base, 0), h = 1 + sqrt(1 - 4 nu a phi_s^2),
    on the support with weights `wts`; cells failing the discriminant test
    carry zero PSD. Returns (mse, phi, tau), or None when no cell passes."""
    m = wts.size
    disc = 1.0 - 4.0 * nu * ws.qs[:m]
    h = np.where(disc >= 0.0, 1.0 + np.sqrt(np.maximum(disc, 0.0)), 0.0)
    bs = ws.bs[:m]
    filled = _fill(h, bs, wts, P)
    if filled is None:
        return None
    phi, tau = filled
    # Each powered cell adds u*phi/(base + phi) to the smoothing floor.
    np.add(bs, phi, out=h)
    np.divide(phi, h, out=h, where=h > 0.0)
    h *= ws.us[:m]
    h *= wts
    return ws.dlow + float(h.sum()) / np.pi, phi, tau


def _waterfill_on(ws: _Workspace, P: float, wfrac: float):
    """Water-filling (nu = 0) on the support of fraction wfrac as (mse, fill):
    the closed-form MSE and no fill where that holds, else the real fill
    (mse, phi, tau) and its MSE."""
    n_full, theta = _support(ws, wfrac)
    mse = _closed_mse(ws, P, n_full, theta, None, 0.0)
    if mse is not None:
        return mse, None
    filled = _tilted_fill(ws, P, _weights(ws, n_full, theta), 0.0)
    return filled[0], filled


def _candidate(ws: _Workspace, n_full: int, theta: float, wts, filled, nu: float) -> _Candidate:
    mse, phi, tau = filled
    return _Candidate(n_full, theta, phi, rate_bins(phi, ws.bs[: wts.size], wts), mse, nu, tau)


def _evaluate_support(ws: _Workspace, P: float, D: float, wfrac: float,
                      nu0: float = 0.0) -> _Candidate | None:
    """The best candidate on one support: water-filling when it meets D,
    otherwise the tilt nu that makes the MSE tight, searched from nu0. The
    search reads closed-form MSEs; the real fill runs for the result, and
    for the steps where the closed form does not hold."""
    n_full, theta = _support(ws, wfrac)
    wts = _weights(ws, n_full, theta)
    fill = functools.lru_cache(maxsize=None)(functools.partial(_tilted_fill, ws, P, wts))

    def mse(nu: float):
        closed = _closed_mse(ws, P, n_full, theta, wts, nu)
        if closed is not None:
            return closed
        return None if fill(nu) is None else fill(nu)[0]

    # Water-filling (nu = 0) on the support; optimal whenever the target stays
    # slack. Every support has a cell of positive weight, so the fill exists.
    if mse(0.0) <= D:
        return _candidate(ws, n_full, theta, wts, fill(0.0), 0.0)

    # Both constraints tight: root-find the stationarity tilt nu (the residual
    # at nu = 0 is the excess above), until the MSE meets D to a fraction of
    # the shaping budget D - floor, a stop that does not depend on the units.
    def residual(nu: float):
        r = mse(nu)
        r = None if r is None else r - D
        return 0.0 if r is not None and abs(r) <= _MSE_RTOL * (D - ws.dlow) else r

    # Up to nu_all every cell passes the discriminant test; past it cells drop
    # out, so a warm start below it steps up to nu_all before doubling.
    qmax = float(ws.maxq[wts.size - 1])
    if qmax <= 0.0:
        return None
    nu_all = 0.25 / qmax
    nu_lo, nu_hi = 0.0, (nu0 if 0.0 < nu0 < nu_all else nu_all)
    for _ in range(80):
        g_hi = residual(nu_hi)
        if g_hi is None or g_hi <= 0.0:
            break
        nu_lo, nu_hi = nu_hi, (nu_all if nu_hi < nu_all else 2.0 * nu_hi)
    if g_hi is None or g_hi > 0.0:
        return None
    nu = _scalar.brentq(residual, nu_lo, nu_hi)
    filled = fill(nu)
    if abs(filled[0] - D) > _TIGHT_RTOL * D:
        return None
    return _candidate(ws, n_full, theta, wts, filled, nu)


def _gain(ws: _Workspace, cand: _Candidate | None, i: int) -> float:
    """Slope of the rate in w while sorted cell i is the boundary cell, at the
    multipliers of `cand`: the cell's Lagrangian value (envelope theorem), or
    that of the first powered cell from i on; 0 without a candidate or one."""
    if cand is None:
        return 0.0
    q, b, tau, nu = float(ws.qs[i]), float(ws.bs[i]), cand.tau, cand.nu
    disc = 1.0 - 4.0 * nu * q
    phi = tau * (1.0 + math.sqrt(disc)) - b if disc >= 0.0 else 0.0
    if not phi > 0.0:  # cell i is off: scan the rest for the first powered one
        q, b = ws.qs[i + 1:], ws.bs[i + 1:]
        disc = 1.0 - 4.0 * nu * q
        phi = np.where(disc >= 0.0, tau * (1.0 + np.sqrt(np.maximum(disc, 0.0))) - b, 0.0)
        on = np.flatnonzero(phi > 0.0)
        if on.size == 0:
            return 0.0
        j = on[0]
        q, b, phi = float(q[j]), float(b[j]), float(phi[j])
    return math.log1p(phi / b) - phi * (0.5 / tau + 2.0 * nu * tau * q / (b * (b + phi)))


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
    tight = cand.nu > 0.0 or abs(cand.mse - ws.scenario.D) <= _TIGHT_RTOL * ws.scenario.D
    tag = CaseTag.BOTH_CONSTRAINTS_ACTIVE if tight else CaseTag.WATERFILL_FEASIBLE
    return ShapingSolution(
        phi_x=_render(ws, cand),
        rate=cand.rate,
        mse=cand.mse,
        power=P,
        case_tag=tag,
        lam=2.0 * cand.nu * cand.tau,
        mu=-0.5 / cand.tau,
    )


def _solve_ws(ws: _Workspace, P: float) -> ShapingSolution:
    """The uncoded solve at budget P, shared by every entry point."""
    D = ws.scenario.D
    if D <= ws.dlow:
        zero = Spectrum(ws.grid, np.zeros(ws.grid.n_points))
        tag = CaseTag.INFEASIBLE if D < ws.dlow else CaseTag.DEGENERATE_ZERO
        return ShapingSolution(zero, 0.0, ws.dlow, 0.0, tag, 0.0, 0.0)

    # Water-filling on a support of fraction w never loses rate as w grows (a
    # wider support can copy a narrower allocation), so the slack branch peaks
    # at the kink, the widest support whose water-filling MSE meets D: the
    # full band when it meets D (case 1). Otherwise the excess MSE is negative
    # at the on-off prelog (on-cell MSEs stay below phi_s) and positive on the
    # full band: root-find it, mostly in closed form, and fill only the kink.
    evals = {}

    def excess(wfrac: float) -> float:
        if wfrac not in evals:
            evals[wfrac] = _waterfill_on(ws, P, wfrac)
        return evals[wfrac][0] - D

    if excess(1.0) > 0.0:
        lo = _onoff_support_ws(ws, D)[0]
        while excess(lo) > 0.0:  # at high power the margin can fall below rounding
            lo *= 0.5
        _scalar.brentq(excess, lo, 1.0)
    w_kink = max(w for w in evals if excess(w) <= 0.0)
    n_full, theta = _support(ws, w_kink)
    wts = _weights(ws, n_full, theta)
    best = _candidate(ws, n_full, theta, wts,
                      evals[w_kink][1] or _tilted_fill(ws, P, wts, 0.0), 0.0)
    if w_kink >= 1.0:
        return _solution_from(ws, best, P)

    # Past the kink the rate follows the tight branch, with the boundary
    # cell's gain as slope: it rises to a peak, then falls, to unpowered cells
    # or to supports with no tight solution. After a probe just past the kink,
    # a doubling ladder and a bisection over cell edges bracket the peak (the
    # gain jumps between cells); inside a cell the bracket is halved in log
    # distance from the kink, as a tight stretch may end however close to it.
    # The rate rises at lo_w (cell lo_k, slope lo_g) and falls at hi_w (cell
    # hi_k); it can gain at most lo_g times the bracket width.
    n, nu0, step = ws.cumw.size, 0.0, 1
    w_probe = min(w_kink * (1.0 + _PEAK_RTOL), 1.0)
    lo_w, lo_k = w_kink, min(_support(ws, w_probe)[0], n - 1)
    lo_g = _gain(ws, best, lo_k)
    hi_w = hi_k = None
    while lo_g > 0.0 and (hi_w is None or lo_g * (hi_w - lo_w) > _PEAK_RTOL * best.rate):
        if hi_w is None and lo_w == w_kink:
            w, kl, kr = w_probe, lo_k, lo_k
        elif hi_w is not None and lo_k == hi_k:
            w, kl, kr = w_kink + math.sqrt((lo_w - w_kink) * (hi_w - w_kink)), lo_k, lo_k
            if not lo_w < w < hi_w:
                break
        else:
            kl = min(lo_k + step - 1, n - 1) if hi_w is None else (lo_k + hi_k) // 2
            w, kr = (1.0 if kl == n - 1 else ws.cumw[kl] / np.pi), kl + 1
            step *= 2
        cand = _evaluate_support(ws, P, D, w, nu0)
        if cand is not None:
            nu0 = cand.nu
            best = max(best, cand, key=lambda c: c.rate)
        g = _gain(ws, cand, kl)
        if g <= 0.0:
            hi_w, hi_k = w, kl
        elif kr == n:  # still rising at the full band, the peak is this last probe
            break
        else:  # at an edge, a falling next cell puts the peak on the edge
            lo_w, lo_k, lo_g = w, kr, (g if kr == kl else _gain(ws, cand, kr))
    return _solution_from(ws, best, P)


def solve(scenario: UncodedScenario) -> ShapingSolution:
    """The uncoded solve of both regimes: `case_tag` tells case 1
    (WaterfillFeasible) from case 2 (BothConstraintsActive). Infeasible and
    degenerate targets come back as tagged zero solutions, not exceptions."""
    return _solve_ws(_Workspace(scenario), scenario.P)


def _onoff_support(cumw: np.ndarray, ws: np.ndarray, us: np.ndarray, cum: np.ndarray,
                   budget: float) -> tuple[float, float, int, float]:
    """The high-power on-off support along the pre-emphasis order, whose cells
    have weights `ws`, running weights `cumw`, pre-emphasized PSD `us` and
    running pre-emphasis mass `cum` (the running sums of ws*us over pi), as
    (fraction, gamma, k, theta): the first k cells whole and a share theta of
    cell k, of mass `budget` in all, cover `fraction` of the band, and gamma
    is the last cell's u; a budget past the band's mass is k = n, theta = 0.
    Every on-off stop cell, multilegacy's too, comes from here, on the
    running sums of a `_Cells`."""
    n = cumw.size
    if budget <= 0.0:
        return 0.0, 0.0, 0, 0.0
    if budget >= cum[-1]:
        return 1.0, float(us[-1]), n, 0.0
    k = int(cum.searchsorted(budget, side="right"))
    spent = cum[k - 1] if k > 0 else 0.0
    cost_next = ws[k] * us[k] / np.pi
    theta = (budget - spent) / cost_next if cost_next > 0 else 0.0
    measure = (cumw[k - 1] if k > 0 else 0.0) + theta * ws[k]
    gamma = float(us[k]) if theta > 0 else float(us[k - 1])
    return min(float(measure) / np.pi, 1.0), gamma, k, theta


def _onoff_support_ws(ws: _Workspace, D: float) -> tuple[float, float, int, float]:
    """`_onoff_support` of a workspace at target D, without the support mask."""
    return _onoff_support(ws.cumw, ws.ws, ws.us, ws.prefix_wu[1:] / np.pi, D - ws.dlow)


def _onoff_stops(per_gain: Sequence[UncodedScenario], targets: Sequence[float]):
    """For each scenario of per_gain (all on one grid and phi_s), the on-off
    stop at each target D, as `_Cells.stops` gives it along the scenario's
    pre-emphasis order. One stable sort of phi_s serves every scenario whose
    u it orders as np.argsort(u, kind="stable") would: u rising along it,
    indices rising where u ties. With flat noise u rises with phi_s, but
    rounding can swap two cells' u, so any other scenario takes cells of its
    own sort."""
    shared = _Cells(per_gain[0].grid, np.argsort(per_gain[0].phi_s.values, kind="stable"))
    rising = shared.order[1:] > shared.order[:-1]
    stops = []
    for sc in per_gain:
        u, _, dlow = _preemphasis(sc)
        cells, us = shared, u[shared.order]
        if not ((us[1:] > us[:-1]) | ((us[1:] == us[:-1]) & rising)).all():
            cells = _Cells(sc.grid, np.argsort(u, kind="stable"))
            us = u[cells.order]
        stops.append(cells.stops(us, [D - dlow for D in targets]))
    return stops


def onoff_prelog(scenario: UncodedScenario) -> PrelogResult:
    """High-power on-off support: fill cells of smallest pre-emphasized PSD
    until their pre-emphasis mass equals D minus the smoothing floor. The
    boundary cell is included fractionally, so the threshold equation holds
    exactly even when the pre-emphasized PSD has flat stretches. Targets at
    or below the floor yield prelog 0."""
    u, _, dlow = _preemphasis(scenario)
    cells = _Cells(scenario.grid, np.argsort(u, kind="stable"))
    [(frac, gamma, k, _)] = cells.stops(u[cells.order], [scenario.D - dlow])
    mask = np.zeros(u.size, dtype=bool)
    mask[cells.order[:k]] = True
    return PrelogResult(frac, gamma, mask)


def rate_curve(
    scenario: UncodedScenario,
    powers: Sequence[float],
    method: CurveMethod | str,
) -> list[tuple[float, float]]:
    """Rate versus power budget for one of the two strategies."""
    method = CurveMethod(method)
    pw = [_positive(p, "power budgets must be positive and finite") for p in powers]
    if any(b <= a for a, b in zip(pw, pw[1:])):
        raise ValueError("power budgets must be strictly ascending")

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
