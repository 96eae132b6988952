from dataclasses import replace

import numpy as np
import pytest

from oracles import (flat_case_closed_form, high_power_asymptote, preemphasized_psd, wk_floor,
                     wk_mse)
from specshape import shaping
from specshape.errors import InfeasibleScenarioError
from specshape.estimation import UncodedScenario
from specshape.shaping import (
    CaseTag,
    CurveMethod,
    onoff_prelog,
    rate_curve,
    solve,
)
from specshape.spectra import (Spectrum, ar1_spectrum, flat_spectrum, make_grid, mean_power,
                               tabulated_spectrum)
from specshape.waterfill import waterfill

GRID = make_grid(2048)


def flat_study(P=1000.0, grid=GRID):
    # sigma2_s = 0 dB, sigma2_n = 0 dB, D = -20 dB, a = 30 dB
    return UncodedScenario(1000.0, flat_spectrum(grid, 1.0), flat_spectrum(grid, 1.0), 0.01, P)


def ar_study(P=1000.0, grid=GRID):
    return UncodedScenario(1000.0, ar1_spectrum(grid, 1.0, 0.1), flat_spectrum(grid, 1.0), 0.01, P)


def waterfill_mse(sc):
    """MSE of full-band water-filling, the case-1 candidate, through the
    public API."""
    return wk_mse(waterfill(Spectrum(sc.grid, sc.base()), sc.P).phi_x, sc)


def test_preemphasized_flat():
    pe = preemphasized_psd(flat_study())
    assert pe.values == pytest.approx(1000.0 / 1001.0, rel=1e-14)


def test_preemphasized_zero_signal_and_large_gain():
    g = make_grid(64)
    vals = np.linspace(0.0, 2.0, g.n_points)
    sc = UncodedScenario(1e9, Spectrum(g, vals), flat_spectrum(g, 1.0), 0.5, 1.0)
    pe = preemphasized_psd(sc).values
    assert pe[0] == 0.0
    assert pe[1:] == pytest.approx(vals[1:], rel=1e-6)


def test_case1_accepts_small_power():
    sol = solve(flat_study(P=0.1))
    assert sol.case_tag is CaseTag.WATERFILL_FEASIBLE
    assert sol.rate == pytest.approx(np.log1p(0.1 / 1001.0), rel=1e-12)


def test_case1_rejects_beyond_threshold():
    # threshold sigma2_s*D/(sigma2_s-D)*a - sigma2_n = 9.1010...
    sc = flat_study(P=20.0)
    assert waterfill_mse(sc) > sc.D
    assert solve(sc).case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert solve(flat_study(P=9.0)).case_tag is CaseTag.WATERFILL_FEASIBLE


def test_case1_vacuous_target_always_accepts():
    sc = UncodedScenario(1000.0, flat_spectrum(GRID, 1.0), flat_spectrum(GRID, 1.0), 1.5, 1e7)
    assert solve(sc).case_tag is CaseTag.WATERFILL_FEASIBLE


def test_closed_form_reference_values():
    sol = flat_case_closed_form(flat_study(P=1000.0))
    B, dlow = 1001.0, 1.0 / 1001.0
    phi0 = 1000.0 * 1000.0 / ((0.01 - dlow) * B) - B
    w = 1000.0 / phi0
    assert phi0 == pytest.approx(1.09987e5, rel=1e-4)
    assert w == pytest.approx(9.092e-3, rel=1e-3)
    assert sol.rate == pytest.approx(w * np.log1p(phi0 / B), rel=1e-12)
    assert sol.rate == pytest.approx(0.0428090, rel=1e-4)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE


def test_closed_form_rejected_below_threshold():
    with pytest.raises(ValueError):
        flat_case_closed_form(flat_study(P=5.0))


def test_closed_form_degenerate_infeasible():
    sc = flat_study()
    with pytest.raises(InfeasibleScenarioError):
        flat_case_closed_form(UncodedScenario(sc.a, sc.phi_s, sc.phi_n, 1e-5, sc.P))


def test_case2_matches_closed_form_rate():
    for P in (100.0, 1000.0, 10_000.0):
        sc = flat_study(P=P)
        ref = flat_case_closed_form(sc)
        got = solve(sc)
        assert got.rate == pytest.approx(ref.rate, rel=1e-6)
        assert got.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE


def test_case2_continuous_at_case1_threshold():
    thresh = 1.0 * 0.01 / 0.99 * 1000.0 - 1.0
    sc = flat_study(P=thresh)
    r1 = solve(sc)
    ref = flat_case_closed_form(flat_study(P=thresh * (1 + 1e-9)))
    # Full-band water-filling, meeting D with equality.
    assert r1.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert r1.rate == pytest.approx(waterfill(Spectrum(sc.grid, sc.base()), sc.P).rate,
                                    rel=1e-12)
    assert ref.rate == pytest.approx(r1.rate, rel=1e-6)


def test_case2_tightness_and_stationarity():
    for sc in (flat_study(P=1000.0), ar_study(P=1000.0)):
        sol = solve(sc)
        assert abs(sol.mse - sc.D) <= 1e-6 * sc.D
        assert abs(sol.power - sc.P) <= 1e-6 * sc.P
        # rendered spectrum stays inside both constraints
        assert mean_power(sol.phi_x) <= sc.P * (1 + 1e-12)
        assert wk_mse(sol.phi_x, sc) <= sc.D * (1 + 1e-12)
        # local-max expression reproduces phi_x on the active cells
        s, n = sc.phi_s.values, sc.phi_n.values
        disc = 1.0 + 4.0 * sol.lam * sol.mu * sc.a * s * s
        on = sol.phi_x.values > 0
        assert np.all(disc[on] >= -1e-12)
        formula = (np.sqrt(np.maximum(disc, 0.0)) + 1.0) / (-2.0 * sol.mu) - sc.a * s - n
        err = np.abs(formula[on] - sol.phi_x.values[on]) / np.abs(sol.phi_x.values[on])
        assert err.max() <= 1e-6
        assert sol.mu < 0


def test_case2_rate_vanishes_near_floor():
    sc = flat_study(P=100.0)
    dlow = wk_floor(sc)
    tight = UncodedScenario(sc.a, sc.phi_s, sc.phi_n, dlow * 1.0001, 100.0)
    sol = solve(tight)
    assert sol.rate < 1e-3


def test_case2_beats_interference_temperature_on_ar():
    sc = ar_study(P=1000.0)
    it = rate_curve(sc, [1000.0], CurveMethod.INTERFERENCE_TEMPERATURE)[0][1]
    sh = solve(sc).rate
    assert sh > it


def near_waterfilling_flat_study():
    # A flat case-2 scenario where one support's water-filling MSE lands
    # within rounding of D, the edge of the nu root-find's bracket.
    g = make_grid(512)
    return UncodedScenario(573.562905330632, flat_spectrum(g, 1.0830647920223533),
                           flat_spectrum(g, 0.9254806018097813),
                           D=0.06763960691769857, P=98.28130501427688)


def test_case2_bracket_at_waterfilling_mse():
    sc = near_waterfilling_flat_study()
    sol = solve(sc)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert sol.rate == pytest.approx(flat_case_closed_form(sc).rate, rel=1e-9)


def test_solve_dispatch_tags():
    assert solve(flat_study(P=1.0)).case_tag is CaseTag.WATERFILL_FEASIBLE
    assert solve(flat_study(P=1000.0)).case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    sc = flat_study()
    dlow = wk_floor(sc)
    deg = UncodedScenario(sc.a, sc.phi_s, sc.phi_n, dlow, 1.0)
    assert solve(deg).case_tag is CaseTag.DEGENERATE_ZERO
    bad = UncodedScenario(sc.a, sc.phi_s, sc.phi_n, dlow * 0.5, 1.0)
    sol = solve(bad)
    assert sol.case_tag is CaseTag.INFEASIBLE
    assert sol.rate == 0.0


@pytest.mark.parametrize("epsilon", [None, 0.3], ids=["flat", "ar1"])
def test_entry_points_agree_on_the_case_at_the_water_filling_threshold(epsilon):
    # D within the tightness tolerance above the full-band water-filling MSE:
    # water-filling meets D, and meets it with equality, so `solve` tags it
    # both-constraints-active and `rate_curve`, the other entry point over
    # the same search, returns the same rate.
    g, P = make_grid(512), 3.0
    phi_s = flat_spectrum(g, 1.0) if epsilon is None else ar1_spectrum(g, 1.0, epsilon)
    sc = UncodedScenario(10.0, phi_s, flat_spectrum(g, 1.0), 1.0, P)
    D = shaping._waterfill_on(shaping._Workspace(sc), P, 1.0)[0] * (1 + 5e-7)
    sc = UncodedScenario(sc.a, sc.phi_s, sc.phi_n, D, P)
    sol = solve(sc)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert rate_curve(sc, [P], CurveMethod.SPECTRUM_SHAPING) == [(P, sol.rate)]
    assert sol.power == P
    assert mean_power(sol.phi_x) == pytest.approx(P, rel=1e-14)


@pytest.mark.parametrize("shaped", [False, True], ids=["flat", "shaped"])
def test_workspace_prefix_maxima_match_the_scan(shaped):
    # base and q rise along the u-order under flat noise, so the workspace
    # keeps them as their own prefix maxima; under shaped noise neither rises
    # and both are scanned. Either way the maxima are the scan's, bit for bit
    g = make_grid(4096)
    noise = (tabulated_spectrum(g, np.array([4.0, 0.2, 3.0, 0.5, 1.0])) if shaped
             else flat_spectrum(g, 1.0))
    ws = shaping._Workspace(UncodedScenario(10.0, ar1_spectrum(g, 1.0, 0.3), noise, 0.3, 10.0))
    for arr, running in ((ws.bs, ws.maxb), (ws.qs, ws.maxq)):
        assert running.tobytes() == np.maximum.accumulate(arr).tobytes()
        assert (running is arr) == (not shaped)


def test_onoff_prelog_flat_closed_form():
    res = onoff_prelog(flat_study())
    expected = (1.0 + 1.0 / 1000.0) * 0.01 - 1.0 / 1000.0  # 0.00901
    assert res.prelog == pytest.approx(expected, rel=1e-9)


def test_onoff_prelog_snr_limit():
    g = GRID
    sc = UncodedScenario(1e9, flat_spectrum(g, 1.0), flat_spectrum(g, 1.0), 0.3, 1.0)
    assert onoff_prelog(sc).prelog == pytest.approx(0.3, rel=1e-6)
    loose = UncodedScenario(1e9, flat_spectrum(g, 1.0), flat_spectrum(g, 1.0), 1.2, 1.0)
    assert onoff_prelog(loose).prelog == 1.0


def shaped_draw(seed):
    """Random scenario at 64-4096 points: tabulated legacy PSD with 9-225
    knots, 5-knot shaped noise, D = floor * U(1.1, 30)."""
    rng = np.random.default_rng(seed)
    g = make_grid(int(rng.choice([64, 256, 512, 1024, 4096])))
    phi_s = tabulated_spectrum(g, np.exp(rng.uniform(-1, 1, int(rng.integers(9, 226)))))
    phi_n = tabulated_spectrum(g, np.exp(rng.uniform(-2, 2, 5)))
    a = float(np.exp(rng.uniform(0, np.log(3000))))
    floor = wk_floor(UncodedScenario(a, phi_s, phi_n, 1.0, 1.0))
    return UncodedScenario(a, phi_s, phi_n, floor * float(rng.uniform(1.1, 30)), 1.0)


def test_onoff_prelog_is_the_workspace_stop(monkeypatch):
    # the workspace computes its on-off stop once, and solve (the CLI's prelog
    # and gamma) and onoff_prelog read it: it is the stop `_Cells.stops` gives
    # on cells of a sort of u, as the prelog mesh and multilegacy read theirs,
    # to the bit, with flat noise or shaped, and onoff_prelog sorts once
    scenarios = [flat_study(), ar_study(), ar_study(grid=make_grid(32768)),
                 *(shaped_draw(seed) for seed in range(200))]
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    for sc in scenarios:
        u, _, dlow = shaping._preemphasis(sc)
        cells = shaping._Cells(sc.grid, argsort(u, kind="stable"))
        [stop] = cells.stops(u[cells.order], [sc.D - dlow])
        assert np.array(shaping._Workspace(sc).stop).tobytes() == np.array(stop).tobytes()
        prelog, gamma, k, _ = stop
        mask = np.zeros(sc.grid.n_points, dtype=bool)
        mask[cells.order[:k]] = True
        sorts.clear()
        got = onoff_prelog(sc)
        assert len(sorts) == 1
        assert np.array([got.prelog, got.gamma]).tobytes() == np.array([prelog, gamma]).tobytes()
        assert got.support.tobytes() == mask.tobytes()


def test_onoff_prelog_infeasible_returns_zero():
    sc = flat_study()
    bad = UncodedScenario(sc.a, sc.phi_s, sc.phi_n, wk_floor(sc) * 0.5, 1.0)
    res = onoff_prelog(bad)
    assert res.prelog == 0.0 and not res.support.any()


def gamma_equation_residual(sc, res):
    u = preemphasized_psd(sc).values
    w = sc.grid.weights
    mass_full = float(np.dot(w[res.support], u[res.support])) / np.pi
    frac_extra = res.prelog - float(w[res.support].sum()) / np.pi
    return mass_full + frac_extra * res.gamma - (sc.D - wk_floor(sc))


def test_gamma_equation_residual_flat_and_ar():
    for sc in (flat_study(), ar_study()):
        res = onoff_prelog(sc)
        assert 0.0 < res.prelog < 1.0
        assert abs(gamma_equation_residual(sc, res)) <= 1e-9


def test_ar_prelog_dominates_flat():
    flat = onoff_prelog(flat_study()).prelog
    ar = onoff_prelog(ar_study()).prelog
    assert ar >= flat
    assert ar > flat + 1e-4


def test_rate_curve_it_saturates():
    sc = flat_study()
    cap = 1.0 * 0.01 / 0.99 * 1000.0 - 1.0
    pts = rate_curve(sc, [10.0, 100.0, 1e4, 1e6], CurveMethod.INTERFERENCE_TEMPERATURE)
    expected = np.log1p(cap / 1001.0)
    for _, r in pts:
        assert r == pytest.approx(expected, rel=1e-9)


def test_rate_curve_methods_agree_below_threshold():
    sc = flat_study()
    it = rate_curve(sc, [1.0, 5.0, 9.0], CurveMethod.INTERFERENCE_TEMPERATURE)
    sh = rate_curve(sc, [1.0, 5.0, 9.0], CurveMethod.SPECTRUM_SHAPING)
    for (p1, r1), (p2, r2) in zip(it, sh):
        assert p1 == p2
        assert r1 == pytest.approx(r2, rel=1e-12)


def test_rate_curve_shaping_dominates_it():
    sc = flat_study()
    powers = list(np.geomspace(0.1, 1e6, 8))
    it = rate_curve(sc, powers, "InterferenceTemperature")
    sh = rate_curve(sc, powers, "SpectrumShaping")
    for (_, r_it), (_, r_sh) in zip(it, sh):
        assert r_sh >= r_it - 1e-12


def test_rate_curve_slope_tracks_prelog():
    g = make_grid(512)
    powers = np.geomspace(1e4, 1e8, 5)
    for sc in (flat_study(grid=g), ar_study(grid=g)):
        pts = rate_curve(sc, powers, CurveMethod.SPECTRUM_SHAPING)
        slope = np.polyfit(np.log([p for p, _ in pts]), [r for _, r in pts], 1)[0]
        assert slope == pytest.approx(onoff_prelog(sc).prelog, rel=0.02)


def asymptote_draws(grid):
    """Flat, AR(1) at two innovation rates, and three tabulated legacy PSDs
    (9 knots) over shaped noise (5 knots), whose D sits a drawn share of the
    pre-emphasis mass above the smoothing floor."""
    flat = flat_spectrum(grid, 1.0)
    yield UncodedScenario(1000.0, flat, flat, 0.003, 1.0)
    yield UncodedScenario(1000.0, ar1_spectrum(grid, 1.0, 0.1), flat, 0.01, 1.0)
    yield UncodedScenario(100.0, ar1_spectrum(grid, 1.0, 0.5), flat, 0.05, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(3):
        s_knots, n_knots = np.exp(rng.uniform(-1.0, 1.0, 9)), np.exp(rng.uniform(-1.0, 1.0, 5))
        a, share = 10.0 ** rng.uniform(1.0, 3.0), rng.uniform(0.1, 0.6)
        sc = UncodedScenario(a, tabulated_spectrum(grid, s_knots),
                             tabulated_spectrum(grid, n_knots), 1.0, 1.0)
        yield replace(sc, D=wk_floor(sc) + share * mean_power(preemphasized_psd(sc)))


@pytest.mark.parametrize("n", [512, 4096])
def test_rate_meets_its_high_power_asymptote(n):
    # R(P) = p ln P + L_inf + O(1/P), so the relative gap falls about 100x per
    # 100x of P; the oracle's p is the solver's on-off prelog.
    for sc in asymptote_draws(make_grid(n)):
        p, offset = high_power_asymptote(sc)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(onoff_prelog(sc).prelog, abs=1e-12)
        gaps = []
        for P in (1e8, 1e10, 1e12):
            rate = solve(replace(sc, P=P)).rate
            gaps.append(abs(rate - p * np.log(P) - offset) / rate)
        assert gaps[0] >= 50 * gaps[1] and gaps[1] >= 50 * gaps[2], (sc.a, sc.D, gaps)
        assert gaps[2] <= 1e-9, (sc.a, sc.D, gaps)


def test_rate_curve_empty_and_validation():
    sc = flat_study()
    assert rate_curve(sc, [], CurveMethod.SPECTRUM_SHAPING) == []
    with pytest.raises(ValueError):
        rate_curve(sc, [2.0, 1.0], CurveMethod.SPECTRUM_SHAPING)
    with pytest.raises(ValueError):
        rate_curve(sc, [-1.0], CurveMethod.SPECTRUM_SHAPING)


@pytest.mark.parametrize("method", list(CurveMethod))
@pytest.mark.parametrize("powers", [[np.nan], [1.0, np.inf]])
def test_rate_curve_rejects_non_finite_powers(method, powers):
    with pytest.raises(ValueError):
        rate_curve(flat_study(), powers, method)


def test_rate_curve_it_infeasible_raises(monkeypatch):
    # the memoryless target is checked once per curve, before any fill; an
    # empty curve asks nothing of it
    sc = flat_study()
    bad = UncodedScenario(sc.a, sc.phi_s, sc.phi_n, 1e-5, 1.0)
    fills = []
    monkeypatch.setattr(shaping, "waterfill", lambda *args: fills.append(args))
    assert rate_curve(bad, [], CurveMethod.INTERFERENCE_TEMPERATURE) == []
    for powers in ([1.0], [1.0, 10.0, 1e6]):
        with pytest.raises(InfeasibleScenarioError, match="memoryless receiver"):
            rate_curve(bad, powers, CurveMethod.INTERFERENCE_TEMPERATURE)
    assert fills == []


def test_case2_respects_constraints_on_rough_bins():
    # 8-bin piecewise-constant instance; full oracle lives in acceptance.
    g = make_grid(65)
    bins = np.minimum(np.arange(g.n_points) // 8, 7)
    s_levels = np.array([0.2, 1.5, 0.7, 3.0, 0.05, 1.0, 2.2, 0.4])
    n_levels = np.array([1.0, 0.5, 2.0, 1.0, 0.3, 1.5, 0.8, 1.2])
    sc = UncodedScenario(50.0, Spectrum(g, s_levels[bins]), Spectrum(g, n_levels[bins]),
                         D=0.1, P=40.0)
    assert wk_floor(sc) < sc.D < sc.sigma2_s
    assert waterfill_mse(sc) > sc.D
    sol = solve(sc)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert sol.mse == pytest.approx(sc.D, rel=1e-6)
    assert mean_power(sol.phi_x) <= sc.P * (1 + 1e-12)  # rendering rounds down
    assert sol.power == pytest.approx(sc.P, rel=1e-6)
    assert sol.rate > 0


def test_rate_curve_matches_solve():
    # rate_curve reuses one workspace across powers; each point must equal a
    # fresh solve at that power, in both regimes.
    sc = ar_study(grid=make_grid(512))
    powers = [1.0, 100.0, 1e4]
    for p, r in rate_curve(sc, powers, CurveMethod.SPECTRUM_SHAPING):
        assert r == solve(UncodedScenario(sc.a, sc.phi_s, sc.phi_n, sc.D, p)).rate
