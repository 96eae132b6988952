"""The closed-form support MSE of the case-2 search against the real fill,
and the rounding guard that hands low-power steps to the fill."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from specshape import shaping
from specshape.estimation import UncodedScenario
from specshape.spectra import ar1_spectrum, flat_spectrum, make_grid, tabulated_spectrum
from test_case2_search import SCENARIOS


def draws(n, count, seed):
    """(workspace, P, n_full, theta, weights, tilts) on n points: flat, AR(1)
    and 9-knot tabulated legacy spectra, flat and 5-knot shaped noise, P
    log-uniform over 1e-6..1e10, supports from 1e-3 of the band to all of it,
    tilts 0, below 0.25/max q (every discriminant nonnegative) and above it.
    The last draw is flat at P = 1e-6, where every cell is active and the
    closed form cancels."""
    rng = np.random.default_rng(seed)
    g = make_grid(n)
    for k in range(count + 1):
        if k % 3 == 0 or k == count:
            phi_s = flat_spectrum(g, float(np.exp(rng.uniform(-1.0, 1.0))))
        elif k % 3 == 1:
            phi_s = ar1_spectrum(g, 1.0, float(10.0 ** rng.uniform(-2.0, np.log10(0.9))))
        else:
            phi_s = tabulated_spectrum(g, np.exp(rng.uniform(-1.0, 1.0, 9)))
        phi_n = (flat_spectrum(g, 1.0) if rng.uniform() < 0.5 or k == count
                 else tabulated_spectrum(g, np.exp(rng.uniform(-2.0, 2.0, 5))))
        ws = shaping._Workspace(UncodedScenario(float(np.exp(rng.uniform(0.0, 7.0))),
                                                phi_s, phi_n, 1.0, 1.0))
        P = 1e-6 if k == count else float(10.0 ** rng.uniform(-6.0, 10.0))
        wfrac = 1.0 if k % 4 == 0 else float(10.0 ** rng.uniform(-3.0, 0.0))
        n_full, theta = shaping._support(ws, wfrac)
        wts = shaping._weights(ws, n_full, theta)
        nu_all = 0.25 / float(ws.qs[: wts.size].max())
        tilts = (0.0, nu_all * rng.uniform(0.0, 1.0), nu_all * rng.uniform(1.0, 4.0))
        yield ws, P, n_full, theta, wts, tilts


def exact_level(ws, P, wts, nu):
    """(MSE, su, sr) of the fill at the exact level with every cell active,
    from exactly rounded sums; None when a cell would be off."""
    m = wts.size
    q, b, u = ws.qs[:m], ws.bs[:m], ws.us[:m]
    h = 1.0 + np.sqrt(1.0 - 4.0 * nu * q)
    tau = (P * math.pi + math.fsum(wts * b)) / math.fsum(wts * h)
    if not np.all(tau * h > b):
        return None
    su = math.fsum(wts * u)
    sr = math.fsum(wts * u * b / (tau * h))
    return ws.dlow + math.fsum(wts * u * (tau * h - b) / (tau * h)) / math.pi, su, sr


@pytest.mark.parametrize("n, count", [(512, 60), (4096, 45), (32768, 12)])
def test_closed_form_agrees_with_the_fill(n, count):
    # Where the closed form answers, it is within _CANCEL*(su + sr)/pi of the
    # MSE at the exact level, and the real fill, which rounds its level down
    # so as never to spend more than P, within 1e-12*(su + sr)/pi. Where it
    # does not, either a cell is off or the guard saw the cancellation, and
    # then the increment su - sr is small next to su + sr. Past 0.25/max q a
    # discriminant is negative, and the fill always takes over.
    answered = guarded = 0
    for ws, P, n_full, theta, wts, (nu0, nu1, nu_past) in draws(n, count, seed=n):
        for nu in (nu0, nu1):
            closed = shaping._closed_mse(ws, P, n_full, theta, wts, nu)
            ref = exact_level(ws, P, wts, nu)
            if ref is None:
                assert closed is None
                continue
            mse, su, sr = ref
            if closed is None:
                assert shaping._CANCEL * (su + sr) > 0.5 * shaping._MSE_RTOL * (su - sr)
                guarded += 1
                continue
            # Adding the floor rounds each MSE to an ulp of its own.
            ulps = 2.0 * np.spacing(mse)
            assert abs(closed - mse) <= shaping._CANCEL * (su + sr) / math.pi + ulps
            filled = shaping._tilted_fill(ws, P, wts, nu)
            assert abs(closed - filled[0]) <= 1e-12 * (su + sr) / math.pi + ulps
            answered += 1
        assert shaping._closed_mse(ws, P, n_full, theta, wts, nu_past) is None
    assert answered >= count
    assert guarded > 0


def test_steep_low_power_support_takes_the_fallback(monkeypatch):
    # AR(1) with epsilon 0.01 at P = 1e-4: on the cheapest 1% of the band
    # every cell is active, but the increment su - sr is only 2.8e-3 of
    # su = sum w*u, so the closed form's rounding could reach 2.5e-12 of it,
    # 25 times the root-finds' stop tolerance. The guard hands the step to
    # the fill.
    g = make_grid(4096)
    sc = UncodedScenario(1000.0, ar1_spectrum(g, 1.0, 0.01), flat_spectrum(g, 1.0), 0.01, 1e-4)
    ws = shaping._Workspace(sc)
    n_full, theta = shaping._support(ws, 0.01)
    wts = shaping._weights(ws, n_full, theta)
    _, su, sr = exact_level(ws, sc.P, wts, 0.0)
    assert (su - sr) / su < 3e-3
    assert shaping._closed_mse(ws, sc.P, n_full, theta, wts, 0.0) is None
    fills = []
    inner = shaping._tilted_fill
    monkeypatch.setattr(shaping, "_tilted_fill",
                        lambda *args: fills.append(args) or inner(*args))
    mse, filled = shaping._waterfill_on(ws, sc.P, 0.01)
    assert len(fills) == 1 and filled is not None and mse == filled[0]


def test_closed_form_declines_when_only_the_boundary_cell_is_off():
    # The all-active test covers the fractional boundary cell: on a support
    # whose boundary cell has the largest floor, at a power just too low to
    # turn that cell on, the closed form declines and the fill leaves it off.
    checked = 0
    for ws, _, _, _, _, _ in draws(512, 30, seed=7):
        j = int(np.argmax(ws.bs[:256]))
        below = ws.bs[:j]
        if j == 0 or below.max() >= ws.bs[j] * (1 - 1e-6):
            continue
        theta = 0.5
        wts = shaping._weights(ws, j, theta)
        # 2*tau = (1 - 1e-9)*base_j on the support's sums
        P = ((1 - 1e-9) * ws.bs[j] * math.fsum(wts) - math.fsum(wts * ws.bs[: j + 1])) / math.pi
        if P <= 0.0:
            continue
        assert shaping._closed_mse(ws, P, j, theta, wts, 0.0) is None
        assert shaping._tilted_fill(ws, P, wts, 0.0)[1][-1] == 0.0
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("index", [6, 27])
def test_fill_mse_is_exact_to_ulps_next_to_the_floor(index):
    # Targets 1e-3 and 6e-4 (relative) above the floor: the MSE adds only the
    # increments u*phi/(base + phi) to the floor, so it is within a few ulps
    # of the exact MSE of the fill's PSD, on-cell and off-cell terms summed in
    # rationals. Summing those terms in floats, at the level of the floor,
    # was 42 and 34 ulps off here and moved the kink by 5e-12.
    sc = SCENARIOS[index]
    ws = shaping._Workspace(sc)
    n_full, theta = shaping._support(ws, 0.018679450725821)
    wts = shaping._weights(ws, n_full, theta)
    mse, phi, _ = shaping._tilted_fill(ws, sc.P, wts, 0.0)
    a, s, n = F(sc.a), sc.phi_s.values, sc.phi_n.values
    weight = [F(w) for w in sc.grid.weights]
    on = {int(cell): (F(p), F(w)) for cell, p, w in zip(ws.order, phi, wts)}
    total = F(0)
    for cell in range(s.size):
        S, N = F(s[cell]), F(n[cell])
        B = a * S + N
        p, w = on.get(cell, (F(0), F(0)))
        total += w * S * (p + N) / (B + p) + (weight[cell] - w) * S * N / B
    exact = total / F(math.pi)
    assert abs(F(mse) - exact) <= 4 * F(np.spacing(mse))
