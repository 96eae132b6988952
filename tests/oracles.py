"""Independent references that the solvers are checked against.

- `flat_case_closed_form`: the on-off optimum for flat spectra in case 2.
- `sweep_golden_rate`: the case-2 support search the uncoded solver used
  before it searched from the water-filling kink, a geometric sweep of the
  support fraction plus golden-section refinement around the best sweep
  point. It shares only the per-support evaluation with the solver, so it
  checks the search over supports, at about 100 evaluations a solve.
- `json_text`: the CLI's JSON layout as the standard library writes it,
  every float rounded to 12 significant digits first. The CLI writes the
  same text in one pass per array.
"""

from __future__ import annotations

import json
import math

import numpy as np

from specshape import shaping
from specshape.errors import InfeasibleScenarioError
from specshape.estimation import UncodedScenario
from specshape.shaping import CaseTag, ShapingSolution
from specshape.spectra import Spectrum

SWEEP_POINTS = 40
GOLDEN_ITERS = 56


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
    P, D = scenario.P, scenario.D
    rates: dict[float, float] = {}

    def f(wfrac: float) -> float:
        wfrac = min(max(wfrac, 1e-9), 1.0)
        if wfrac not in rates:
            cand = shaping._evaluate_support(ws, P, D, wfrac)
            rates[wfrac] = -math.inf if cand is None else cand.rate
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
    """What `cli._json_text` must return for payload. NaN and infinities
    raise ValueError."""
    return json.dumps(_round12(payload), indent=2, sort_keys=True, allow_nan=False)
