"""Independent references that the solvers are checked against.

- `flat_case_closed_form`: the on-off optimum for flat spectra in case 2.
- `sweep_golden_rate`: the case-2 support search the uncoded solver used
  before it searched from the water-filling kink, a geometric sweep of the
  support fraction plus golden-section refinement around the best sweep
  point, at about 100 evaluations a solve. Each support is scored by
  `support_rate`, which root-finds the tilt over real fills (SciPy's
  `brentq`) where the solver reads closed-form MSEs, so the oracle checks
  both the search over supports and the evaluation of each one.
- `dual_bound`: the Lagrange dual of the case-2 problem, minimized over its
  two multipliers. By weak duality it bounds every feasible PSD's rate from
  above, boundary cells fractional or not, so it checks the case-2 solve
  without searching the support family the solver searches.
- `sorted_fill`: the exact power fill as the solvers computed it before
  the active-set iteration, by sorting the cells by base/h and reading the
  level off prefix sums. It checks `waterfill._fill` level for level.
- `json_text`: the CLI's JSON layout as the standard library writes it,
  every float rounded to 12 significant digits first. The CLI writes the
  same text as a stream of bytes, a slice of each array at a time.
- `memoryless_mse`: the MSE of symbol-by-symbol MMSE estimation, the
  flat-spectrum limit that `wk_mse` below must reduce to.
- `wk_mse`, `wk_floor`: the MSE of non-causal Wiener-Kolmogorov smoothing
  against a cognitive PSD, and its value at zero cognitive power, the
  feasibility floor, as the grid mean of the ratio form
  phi_s*(phi_x + phi_n)/(a*phi_s + phi_x + phi_n) (the subtracted form
  cancels when the legacy gain is large). The solvers read the same MSE in
  pre-emphasis form, so these check that form and the solutions' MSEs.
- `preemphasized_psd`: the pre-emphasized legacy PSD
  a*phi_s^2/(a*phi_s + phi_n) that orders the uncoded supports, from the
  scenario's arrays, not from `shaping._preemphasis`.
- `legacy_rate`, `decode_rate_at_cognitive`: the scalar coded constraints
  as written in the paper, vectorized over the support fraction w. They
  check `solve_coded`'s w against a dense grid over w, and the acceptance
  gate's coded criterion.
- `brent_widest`: the widest feasible support fraction of a constraint that
  never rises with w, by SciPy's `brentq` at its tightest tolerance. It
  checks the on-off root-find, which takes Newton steps.
- `high_power_asymptote`: the high-power line p ln P + L_inf of the
  uncoded rate, with p the on-off prelog and L_inf the power offset, from
  the scenario's arrays by a plain fractional-knapsack fill in u-order, not
  from the solver's workspace or its support routine.
- `onoff_asymptote`: the decode mode and the high-power line
  n_r w_inf ln P + L_inf of the on-off rate of a coded scenario or a MIMO
  channel, with w_inf = 1 - R_l/C_l the legacy-load prelog and L_inf the
  power offset (Lozano, Tulino & Verdu, IEEE T-IT 51(12), 2005), from the
  eigenvalues of the on-level gain alone, not the solver's link.
- `SampledPsd`: any PSD-matrix field, given sample by sample and checked
  over the whole stack: finite, Hermitian and positive semidefinite to
  1e-12 max(1, max|v|). Built on the dense `values` of a `solve_mimo`
  field, it re-checks the field the solver stores with no check of its own.
- `trace_power`, `legacy_rate_mimo`, `decode_rate_mimo`,
  `cognitive_rate_mimo`: the MIMO power and log-det rates evaluated sample
  by sample on a PSD-matrix field, a `PsdMatrix` or a `SampledPsd`.
  `cognitive_rate_mimo` takes a decode mode and, with `check`, first tests
  that the mode applies. They check the power of `solve_mimo`'s rendered
  field and, in their 1x1 case, the scalar formulas.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from specshape import shaping
from specshape.coded import CodedScenario
from specshape.errors import InfeasibleScenarioError
from specshape.estimation import UncodedScenario
from specshape.mimo import _EIG_FLOOR, _HERM_TOL, DecodeMode, MimoChannel, PsdMatrix
from specshape.shaping import CaseTag, ShapingSolution
from specshape.spectra import FrequencyGrid, Spectrum
from specshape.waterfill import rate_bins

SWEEP_POINTS = 40
GOLDEN_ITERS = 56
_MODE_TOL = 1e-9


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
            "(the water-filling case applies)")
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


def _golden_max(f, lo: float, hi: float, iters: int) -> None:
    """Golden-section maximization of f on [lo, hi], tolerant of -inf values;
    the caller keeps the best point seen."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    f(lo)
    f(hi)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)


def sweep_golden_rate(scenario) -> float:
    """Best case-2 rate over the support family, found by a 40-point
    geometric sweep of the support fraction from 1e-6 to 1 (plus half, one
    and two times the on-off prelog) and 56 golden-section steps between the
    neighbours of the best sweep point."""
    ws = shaping._Workspace(scenario)
    rates: dict[float, float] = {}

    def f(wfrac: float) -> float:
        wfrac = min(max(wfrac, 1e-9), 1.0)
        if wfrac not in rates:
            rates[wfrac] = support_rate(ws, scenario.P, scenario.D, wfrac)
        return rates[wfrac]

    sweep = np.geomspace(1e-6, 1.0, SWEEP_POINTS)
    prelog = shaping.onoff_prelog(scenario).prelog
    if 0.0 < prelog < 1.0:
        sweep = np.append(sweep, [0.5 * prelog, prelog, min(1.0, 2.0 * prelog)])
    sweep = np.unique(sweep)
    vals = [f(w) for w in sweep]
    k = int(np.argmax(vals))
    lo = sweep[k - 1] if k > 0 else sweep[0] * 0.5
    hi = sweep[k + 1] if k + 1 < sweep.size else 1.0
    _golden_max(f, lo, hi, GOLDEN_ITERS)
    return max(rates.values())


def support_rate(ws, P: float, D: float, wfrac: float) -> float:
    """Best rate on the support of fraction wfrac, from real fills only:
    water-filling when its MSE meets D, otherwise the tilt nu at which the
    fill's MSE meets D (to 1e-13 of D minus the floor), bracketed by
    doubling from 0.25/max q; -inf when no tilt meets D."""
    optimize = pytest.importorskip("scipy.optimize")

    n_full, theta = shaping._support(ws, wfrac)
    wts = shaping._weights(ws, n_full, theta)

    def rate(filled) -> float:
        return rate_bins(filled[1], ws.bs[: wts.size], wts)

    def excess(nu: float) -> float:
        r = shaping._tilted_fill(ws, P, wts, nu)[0] - D
        return 0.0 if abs(r) <= 1e-13 * (D - ws.dlow) else r

    filled = shaping._tilted_fill(ws, P, wts, 0.0)
    if filled[0] <= D:
        return rate(filled)
    nu_hi = 0.25 / float(ws.qs[: wts.size].max())
    for _ in range(80):
        filled = shaping._tilted_fill(ws, P, wts, nu_hi)
        if filled is None:
            return -math.inf
        if filled[0] <= D:
            break
        nu_hi *= 2.0
    else:
        return -math.inf
    nu = optimize.brentq(excess, 0.0, nu_hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                         maxiter=200)
    filled = shaping._tilted_fill(ws, P, wts, nu)
    return rate(filled) if abs(filled[0] - D) <= 1e-6 * D else -math.inf


def dual_bound(scenario: UncodedScenario, sol: ShapingSolution) -> float:
    """min over lam, mu > 0 of g = mu*P + lam*(D - floor) + (1/pi) sum_i w_i
    max(0, dh_i), where dh_i = log(y_i/B_i) - mu*(y_i - B_i)
    - lam*q_i*(1/B_i - 1/y_i) is the Lagrangian gain of powering cell i at the
    stationary level y_i = (1 + sqrt(1 - 4*lam*mu*q_i))/(2*mu) over leaving it
    off (dh = 0 where the root is complex or y_i <= B_i), with q = a*phi_s^2
    and B = a*phi_s + phi_n. SciPy's Nelder-Mead runs in (log lam, log mu)
    from the solver's multipliers (lam = sol.lam, mu = -sol.mu; log lam =
    -log max u when sol.lam is 0), restarted twice from where it stops."""
    optimize = pytest.importorskip("scipy.optimize")

    s, w = scenario.phi_s.values, scenario.grid.weights
    q, B = scenario.a * s * s, scenario.base()
    slack = scenario.D - wk_floor(scenario)

    def g(z):
        lam, mu = np.exp(z)
        disc = 1.0 - 4.0 * lam * mu * q
        y = (1.0 + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            dh = np.log(y / B) - mu * (y - B) - lam * q * (1.0 / B - 1.0 / y)
        dh = np.where((disc >= 0.0) & (y > B), dh, 0.0)
        return mu * scenario.P + lam * slack + float(w @ np.maximum(dh, 0.0)) / np.pi

    lam0 = sol.lam if sol.lam > 0 else 1.0 / float(np.max(q / B))
    z = np.log([lam0, -sol.mu])
    best = g(z)
    for _ in range(3):
        res = optimize.minimize(g, z, method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 4000})
        z, best = res.x, min(best, float(res.fun))
    return best


def sorted_fill(h: np.ndarray, base: np.ndarray, weights: np.ndarray, budget: float):
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


def _round12(obj):
    """Round floats to 12 significant digits, recursively; arrays become lists."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def json_text(payload) -> str:
    """What `cli._json_pieces` must write for payload. NaN and infinities
    raise ValueError."""
    return json.dumps(_round12(payload), indent=2, sort_keys=True, allow_nan=False)


def memoryless_mse(sigma2_s: float, sigma2_x: float, sigma2_n: float, a: float) -> float:
    """MSE of symbol-by-symbol MMSE estimation of the legacy symbol."""
    if min(sigma2_s, sigma2_x, sigma2_n) < 0 or a < 0:
        raise ValueError("variances and gain must be nonnegative")
    denom = a * sigma2_s + sigma2_x + sigma2_n
    if denom == 0.0:
        raise ValueError("memoryless MSE undefined when all terms vanish")
    return sigma2_s * (sigma2_x + sigma2_n) / denom


def _wk_integrand(phi_x: np.ndarray, scenario: UncodedScenario) -> np.ndarray:
    s = scenario.phi_s.values
    num = s * (phi_x + scenario.phi_n.values)
    den = scenario.a * s + phi_x + scenario.phi_n.values
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def wk_mse(phi_x: Spectrum, scenario: UncodedScenario) -> float:
    """MSE of non-causal Wiener-Kolmogorov smoothing against cognitive PSD phi_x."""
    if phi_x.grid is not scenario.grid:
        raise ValueError("cognitive PSD grid does not match the scenario grid")
    return scenario.grid.mean(_wk_integrand(phi_x.values, scenario))


def wk_floor(scenario: UncodedScenario) -> float:
    """Smoothing MSE with zero cognitive transmission; the feasibility floor."""
    zeros = np.zeros(scenario.grid.n_points)
    return scenario.grid.mean(_wk_integrand(zeros, scenario))


def preemphasized_psd(scenario: UncodedScenario) -> Spectrum:
    """Pre-emphasized legacy PSD a*phi_s^2/(a*phi_s + phi_n); a cell with
    a*phi_s + phi_n = 0 holds 0."""
    s, b = scenario.phi_s.values, scenario.base()
    u = np.zeros_like(s)
    np.divide(scenario.a * s * s, b, out=u, where=b > 0)
    return Spectrum(scenario.grid, u)


def legacy_rate(sc: CodedScenario, w) -> np.ndarray:
    """Legacy link rate under on-off cognitive interference of fraction w."""
    w = np.asarray(w, dtype=float)
    on = np.log1p(sc.a_l * sc.sigma2_s / (sc.g_l * sc.P / w + sc.sigma2_nl))
    return w * on + (1.0 - w) * sc.legacy_capacity


def decode_rate_at_cognitive(sc: CodedScenario, w) -> np.ndarray:
    """Rate at which the cognitive receiver can decode the legacy signal while
    treating its own on-off signal as noise."""
    w = np.asarray(w, dtype=float)
    off = math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc)
    on = np.log1p(sc.a_c * sc.sigma2_s / (sc.g_c * sc.P / w + sc.sigma2_nc))
    return w * on + (1.0 - w) * off



def brent_widest(c, w_lo: float = 1e-9) -> float:
    """The largest w in [w_lo, 1] with c(w) >= 0 for a constraint c that never
    rises with w and holds at w_lo: 1.0 when c(1) >= 0, else SciPy's brentq
    root at the tightest relative tolerance it accepts."""
    optimize = pytest.importorskip("scipy.optimize")

    if c(1.0) >= 0.0:
        return 1.0
    return optimize.brentq(c, w_lo, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                           maxiter=500)


def high_power_asymptote(scenario: UncodedScenario) -> tuple[float, float]:
    """(p, L_inf) of an uncoded scenario, whose rate at high power is
    R(P) = p ln P + L_inf + o(1).

    With B = a phi_s + phi_n and u = a phi_s^2/B, the support S takes cells
    in rising u (a stable argsort) until their pre-emphasis mass
    (1/pi) sum w_i u_i reaches D minus the smoothing floor, the boundary cell
    k at the share theta that lands on it exactly; p is the measure of S over
    pi. Water-filling S at power P puts tau = P/p + O(1) on every cell, so
    R = (1/pi) sum_S w_i ln(tau/B_i) + O(1/P) gives
    L_inf = -p ln p - (1/pi)(sum of w_i ln B_i over the whole cells
    + theta w_k ln B_k): the power offset of Lozano, Tulino & Verdu
    (IEEE T-IT 51(12), 2005) for this channel."""
    s, n, w = scenario.phi_s.values, scenario.phi_n.values, scenario.grid.weights
    b = scenario.a * s + n
    u = np.divide(scenario.a * s * s, b, out=np.zeros_like(b), where=b > 0)
    floor = float(np.dot(w, np.divide(s * n, b, out=np.zeros_like(b), where=b > 0))) / np.pi
    order = np.argsort(u, kind="stable")
    ws, us, bs = w[order], u[order], b[order]
    budget = scenario.D - floor
    mass = np.cumsum(ws * us) / np.pi
    if budget <= 0.0:
        return 0.0, 0.0
    k = int(np.searchsorted(mass, budget, side="right"))
    if k == b.size:
        k, theta = k - 1, 1.0
    else:
        theta = (budget - (mass[k - 1] if k else 0.0)) / (ws[k] * us[k] / np.pi)
    p = (float(ws[:k].sum()) + theta * ws[k]) / np.pi
    log_mass = float(np.dot(ws[:k], np.log(bs[:k]))) + theta * ws[k] * math.log(bs[k])
    return p, -p * math.log(p) - log_mass / np.pi


def onoff_asymptote(link: CodedScenario | MimoChannel) -> tuple[DecodeMode, float, float]:
    """(mode, w_inf, L_inf) of the on-off strategy at high power, where the
    rate is R(P) = n_r w_inf ln P + L_inf + o(1) and the solver runs `mode`.

    A coded scenario is the 1x1 link H_c = h_l = h_c = 1. H_c Q H_c^H, Q the
    shape at unit trace, must have full rank n_r. Every support tends to
    w_inf = 1 - R_l/C_l, and off = log(1 + a_c sigma2_s |h_c|^2/sigma2_nc) is
    the rate of decoding the legacy signal in silence. With k_A the
    eigenvalues of g_c H_c Q H_c^H whitened by the legacy signal and noise,
    sigma2_nc I + a_c sigma2_s h_c h_c^H, and k_B1 those whitened by the
    noise alone:
    - off <= R_l: the legacy signal is undecodable (A),
      L_inf = w_inf sum ln(k_A/w_inf);
    - 1 - R_l/off < w_inf: decoding it caps the support below w_inf, so rate
      splitting (B-2) wins, L_inf = w_inf sum ln(k_A/w_inf) + off - R_l;
    - otherwise it is decoded and cancelled (B-1),
      L_inf = w_inf sum ln(k_B1/w_inf)."""
    if isinstance(link, CodedScenario):
        H, Q, h_c = np.ones((1, 1)), np.ones((1, 1)), np.ones(1)
    else:
        H, h_c = link.H_c, link.h_c
        Q = np.eye(link.n_t) if link.shape is None else link.shape
        Q = Q / np.trace(Q).real
    HQH = H @ Q @ H.conj().T
    noise_a = (link.sigma2_nc * np.eye(H.shape[0])
               + link.a_c * link.sigma2_s * np.outer(h_c, h_c.conj()))
    k_a = link.g_c * np.linalg.eigvals(np.linalg.solve(noise_a, HQH)).real
    k_b1 = link.g_c / link.sigma2_nc * np.linalg.eigvalsh(HQH)
    w_inf = 1.0 - link.R_l / link.legacy_capacity
    off = math.log1p(link.a_c * link.sigma2_s * float(np.vdot(h_c, h_c).real) / link.sigma2_nc)
    offset_a = w_inf * float(np.log(k_a / w_inf).sum())
    if off <= link.R_l:
        return DecodeMode.TREAT_AS_NOISE, w_inf, offset_a
    if 1.0 - link.R_l / off < w_inf:
        return DecodeMode.RATE_SPLIT_B2, w_inf, offset_a + off - link.R_l
    return DecodeMode.SUCCESSIVE_B1, w_inf, w_inf * float(np.log(k_b1 / w_inf).sum())


class SampledPsd:
    """Per-sample N_t x N_t Hermitian PSD matrices on a half-band grid. The
    constructor checks that the stack is finite, Hermitian and positive
    semidefinite to the tolerances scaled by max(1, max|v|) over the whole
    stack, so that a level near zero is not held to a tolerance near zero,
    and stores the read-only Hermitian part as `values`."""

    def __init__(self, grid: FrequencyGrid, values: np.ndarray):
        v = np.asarray(values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != grid.n_points or v.shape[1] != v.shape[2]:
            raise ValueError("PSD matrix field must have shape (n_points, Nt, Nt)")
        if not np.isfinite(v).all():
            raise ValueError("PSD matrices must be finite")
        herm = v.conj().transpose(0, 2, 1)
        scale = max(1.0, float(np.abs(v).max()))
        if np.abs(v - herm).max() > _HERM_TOL * scale:
            raise ValueError("PSD matrices must be Hermitian")
        # halved before the sum, which would overflow past half the largest float
        v = 0.5 * v + 0.5 * herm
        if np.linalg.eigvalsh(v).min() < _EIG_FLOOR * scale:
            raise ValueError("PSD matrices must be positive semidefinite")
        v.flags.writeable = False
        self.grid, self.values = grid, v

    @property
    def n_t(self) -> int:
        return self.values.shape[1]


def trace_power(psd: PsdMatrix | SampledPsd) -> float:
    """Total transmit power (1/2pi) int trace(phi(w)) dw."""
    tr = np.trace(psd.values, axis1=1, axis2=2).real
    return psd.grid.mean(tr)


def legacy_rate_mimo(psd: PsdMatrix | SampledPsd, channel: MimoChannel) -> float:
    """Legacy rate with the vector cognitive signal collapsed through h_l."""
    hl = channel.h_l
    if hl.size != psd.n_t:
        raise ValueError("PSD matrix dimension does not match h_l")
    interf = np.einsum("i,kij,j->k", hl, psd.values, hl.conj()).real
    sinr = channel.a_l * channel.sigma2_s / (
        channel.g_l * interf + channel.sigma2_nl)
    return psd.grid.mean(np.log1p(sinr))


def _batched_logdet(mats: np.ndarray) -> np.ndarray:
    sign, ld = np.linalg.slogdet(mats)
    if np.any(sign.real <= 0):
        raise ValueError("log-det argument is not positive definite")
    return ld


def decode_rate_mimo(psd: PsdMatrix | SampledPsd, channel: MimoChannel) -> float:
    """Rate for decoding the scalar legacy signal at the cognitive array while
    treating the cognitive signal as noise."""
    H, hc = channel.H_c, channel.h_c
    n_r = channel.n_r
    cov = channel.g_c * np.einsum("ri,kij,sj->krs", H, psd.values, H.conj())
    cov = cov + channel.sigma2_nc * np.eye(n_r)
    sol = np.linalg.solve(cov, np.broadcast_to(hc, (psd.grid.n_points, n_r))[..., None])
    sinr = channel.a_c * channel.sigma2_s * np.einsum(
        "i,ki->k", hc.conj(), sol[..., 0]).real
    return psd.grid.mean(np.log1p(sinr))


def cognitive_rate_mimo(psd: PsdMatrix | SampledPsd, channel: MimoChannel,
                        decode_mode: DecodeMode | str, check: bool = True) -> float:
    """Cognitive log-det rate under the selected legacy-handling mode."""
    mode = DecodeMode(decode_mode)
    H = channel.H_c
    if H.shape[1] != psd.n_t:
        raise ValueError("PSD matrix dimension does not match H_c")
    n_r = channel.n_r
    eye = np.eye(n_r)
    HQH = np.einsum("ri,kij,sj->krs", H, psd.values, H.conj())
    hco = np.outer(channel.h_c, channel.h_c.conj())

    if mode is DecodeMode.TREAT_AS_NOISE:
        hc2 = float(np.vdot(channel.h_c, channel.h_c).real)
        quiet = math.log1p(channel.a_c * channel.sigma2_s * hc2 / channel.sigma2_nc)
        if check and quiet > channel.R_l * (1 + _MODE_TOL):
            raise ValueError("legacy signal is decodable: treat-as-noise mode does not apply")
        noise = channel.sigma2_nc * eye + channel.a_c * channel.sigma2_s * hco
        arg = eye + channel.g_c * HQH @ np.linalg.inv(noise)
        return psd.grid.mean(_batched_logdet(arg))

    if mode is DecodeMode.SUCCESSIVE_B1:
        if check and decode_rate_mimo(psd, channel) < channel.R_l * (1 - _MODE_TOL) - _MODE_TOL:
            raise ValueError("legacy signal not decodable: successive decoding does not apply")
        arg = eye + (channel.g_c / channel.sigma2_nc) * HQH
        return psd.grid.mean(_batched_logdet(arg))

    if check and decode_rate_mimo(psd, channel) > channel.R_l * (1 + _MODE_TOL) + _MODE_TOL:
        raise ValueError("legacy decodable as-is: rate splitting does not apply")
    arg = eye + (channel.g_c * HQH + channel.a_c * channel.sigma2_s * hco) / channel.sigma2_nc
    return psd.grid.mean(_batched_logdet(arg)) - channel.R_l
