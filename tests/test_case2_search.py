"""The case-2 support search against the sweep-and-golden oracle and the
Lagrange dual bound, its evaluation budget, and its independence of the
units."""

import numpy as np
import pytest

from oracles import dual_bound, sweep_golden_rate, wk_floor
from specshape import shaping
from specshape.estimation import UncodedScenario
from specshape.shaping import CaseTag, CurveMethod, rate_curve, solve
from specshape.spectra import (ar1_spectrum, flat_spectrum, make_grid, mean_power,
                               tabulated_spectrum)

GRID = make_grid(512)


def target_for_prelog(a, phi_s, phi_n, prelog):
    """The D whose high-power on-off support is the cheapest `prelog` of the
    band: the smoothing floor plus the pre-emphasis mass of those cells."""
    ws = shaping._Workspace(UncodedScenario(a, phi_s, phi_n, 1.0, 1.0))
    mass = np.interp(prelog * np.pi, ws.cumw, ws.prefix_wu[1:]) / np.pi
    return float(ws.dlow + mass)


def seeded_scenarios(count=60, seed=20240607):
    """Flat, AR(1) and tabulated legacy spectra on 512 points, P log-uniform
    over 1e-1..1e8, D placing the on-off prelog log-uniformly between 1e-5
    (next to the floor) and 0.9."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = ("flat", "ar1", "tab")[i % 3]
        s2s = float(10 ** rng.uniform(-1, 1))
        if kind == "flat":
            phi_s = flat_spectrum(GRID, s2s)
        elif kind == "ar1":
            phi_s = ar1_spectrum(GRID, s2s, float(rng.uniform(0.02, 0.9)))
        else:
            phi_s = tabulated_spectrum(GRID, s2s * np.exp(rng.uniform(-1, 1, int(rng.integers(3, 12)))))
        phi_n = flat_spectrum(GRID, float(10 ** rng.uniform(-1, 1)))
        a = float(10 ** rng.uniform(0, 4))
        D = target_for_prelog(a, phi_s, phi_n, float(10 ** rng.uniform(-5, np.log10(0.9))))
        out.append(UncodedScenario(a, phi_s, phi_n, D, float(10 ** rng.uniform(-1, 8))))
    return out


def near_kink_scenario():
    # The tight branch peaks 4e-8 (relative) past the water-filling kink and
    # beats the kink by 1.7e-8 of the rate, so a search that stops at the
    # kink fails the oracle comparison.
    phi_s = tabulated_spectrum(GRID, [1.988, 1.733, 1.224, 1.09, 1.041])
    return UncodedScenario(20.3, phi_s, flat_spectrum(GRID, 1.0), 0.556111, 11700.0)


def tabulated_noise_scenario():
    # With a shaped noise floor the pre-emphasis order interleaves cells that
    # the tilt leaves unpowered; the rate stays flat across them and rises
    # again after, so the search must read the slope of the next powered cell
    # (it loses 3.0e-5 of the rate when it stops at the first unpowered one).
    phi_s = tabulated_spectrum(GRID, [1.117, 2.668, 1.001, 2.257, 2.463, 2.047, 1.843])
    phi_n = tabulated_spectrum(GRID, [2.341, 0.721, 2.172, 2.722])
    return UncodedScenario(36.9, phi_s, phi_n, 0.334489, 25.6)


SCENARIOS = seeded_scenarios() + [near_kink_scenario(), tabulated_noise_scenario()]


@pytest.mark.parametrize("index", range(len(SCENARIOS)))
def test_solve_not_beaten_by_sweep_oracle(index):
    sc = SCENARIOS[index]
    assert solve(sc).rate >= sweep_golden_rate(sc) * (1 - 1e-12)


def prelog_rounding_scenario():
    # AR(1) at P = 1e8: the prelog support's water-filling MSE lies within
    # rounding of D (1.9e-16 below it; on D from P = 1e10 on)
    g = make_grid(512)
    return UncodedScenario(2.3, ar1_spectrum(g, 1.0, 0.32), flat_spectrum(g, 1.0), 0.181267, 1e8)


def solve_from_past_the_kink(sc, monkeypatch, w0=0.9):
    """solve(sc) with the kink bracket started at support fraction w0 in
    place of the on-off prelog: the fractions at which the solve evaluates
    the water-filling MSE, in order, and the solution."""
    tried = []
    waterfill_on = shaping._waterfill_on

    def spy(ws, P, wfrac):
        tried.append(wfrac)
        return waterfill_on(ws, P, wfrac)

    with monkeypatch.context() as m:
        m.setattr(shaping, "_onoff_support_ws", lambda ws, D: (w0, 0.0, 0, 0.0))
        m.setattr(shaping, "_waterfill_on", spy)
        return tried, solve(sc)


def test_kink_search_when_the_prelog_support_exceeds_d_by_rounding(monkeypatch):
    # The kink bracket starts at the prelog support, whose MSE lies within
    # rounding of D here; the solve is not beaten by the oracle from there,
    # nor from a start past the kink, which the guard halves until its MSE
    # meets D
    sc = prelog_rounding_scenario()
    sol = solve(sc)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    oracle = sweep_golden_rate(sc)
    assert sol.rate >= oracle * (1 - 1e-12)
    assert solve_from_past_the_kink(sc, monkeypatch)[1].rate >= oracle * (1 - 1e-12)


def test_kink_guard_halves_a_bracket_start_past_the_kink(monkeypatch):
    # No known input puts the prelog support past the kink, so the start is
    # patched to w = 0.9, whose water-filling MSE exceeds D: the guard halves
    # it until the MSE meets D, and the solve keeps its rate
    sc = prelog_rounding_scenario()
    assert shaping._waterfill_on(shaping._Workspace(sc), sc.P, 0.9)[0] > sc.D
    ref = solve(sc)
    tried, sol = solve_from_past_the_kink(sc, monkeypatch)
    assert tried[:3] == [1.0, 0.9, 0.45]
    assert sol.case_tag is ref.case_tag
    assert sol.rate == pytest.approx(ref.rate, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_peak_search_that_rises_to_the_full_band(n):
    # AR(1) at P = 1e5: water-filling misses D, but the tight branch still
    # rises at the last cell, so the bracket ladder ends on the full band
    # (it indexed one cell past the grid there)
    g = make_grid(n)
    sc = UncodedScenario(1000.0, ar1_spectrum(g, 1.0, 0.1), flat_spectrum(g, 1.0),
                         10 ** -0.1, 1e5)
    sol = solve(sc)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert sol.rate >= sweep_golden_rate(sc) * (1 - 1e-12)
    assert sol.rate >= dual_bound(sc, sol) * (1 - 1e-12)


def dual_draws(shaped, count=60, grid=GRID):
    """Case-2 draws from default_rng(1000 + k), k < count: tabulated phi_s
    with 9-225 knots exp(U(-1, 1)), unit flat noise or 5-knot noise
    exp(U(-2, 2)), a = e^U(0, 5), D = floor * U(1.1, 3), P = e^U(0, 6). Draws
    where water-filling meets D are dropped. Returns (scenario, solution)."""
    out = []
    for k in range(count):
        rng = np.random.default_rng(1000 + k)
        phi_s = tabulated_spectrum(grid, np.exp(rng.uniform(-1, 1, int(rng.integers(9, 226)))))
        phi_n = (tabulated_spectrum(grid, np.exp(rng.uniform(-2, 2, 5))) if shaped
                 else flat_spectrum(grid, 1.0))
        a = float(np.exp(rng.uniform(0, 5)))
        floor = wk_floor(UncodedScenario(a, phi_s, phi_n, 1.0, 1.0))
        sc = UncodedScenario(a, phi_s, phi_n, floor * float(rng.uniform(1.1, 3)),
                             float(np.exp(rng.uniform(0, 6))))
        sol = solve(sc)
        if sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE:
            out.append((sc, sol))
    return out


def test_solve_meets_the_dual_bound_on_flat_noise():
    # 54 draws; the gap was at most 1.6e-13 of the rate when measured
    draws = dual_draws(shaped=False)
    assert len(draws) >= 50
    for sc, sol in draws:
        bound = dual_bound(sc, sol)
        assert sol.rate >= bound * (1 - 1e-9)
        assert bound >= sol.rate * (1 - 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="with a shaped noise floor the support family (prefixes of the "
                   "pre-emphasis order) misses the optimum: 40 of 44 draws sit more than "
                   "1e-9 below the dual bound, by up to 6.1e-3 of the rate")
def test_solve_meets_the_dual_bound_on_shaped_noise():
    gaps = [dual_bound(sc, sol) / sol.rate - 1 for sc, sol in dual_draws(shaped=True)]
    assert len(gaps) >= 40
    assert max(gaps) <= 1e-9, (sum(g > 1e-9 for g in gaps), max(gaps))


def test_set_reaches_the_case2_search():
    tags = [solve(sc).case_tag for sc in SCENARIOS]
    assert tags.count(CaseTag.BOTH_CONSTRAINTS_ACTIVE) >= 40
    assert tags[-2:] == [CaseTag.BOTH_CONSTRAINTS_ACTIVE] * 2


class Counter:
    """Counts the calls of module.name, the ones that return None, and the
    size of each call's first argument."""

    def __init__(self, monkeypatch, module, name):
        self.calls = self.nones = 0
        self.sizes = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            self.sizes.append(np.size(args[0]))
            out = inner(*args, **kwargs)
            self.nones += out is None
            return out

        monkeypatch.setattr(module, name, counted)


def test_case2_evaluation_budget(monkeypatch):
    # At most 30 support evaluations per case-2 solve; the sweep-and-golden
    # search made 101 on every solve, and up to 1241 fills on this set. The
    # fills counted include the full-band one.
    evals = Counter(monkeypatch, shaping, "_evaluate_support")
    fills = Counter(monkeypatch, shaping, "_fill")
    counts = []
    for sc in SCENARIOS:
        ws = shaping._Workspace(sc)
        if shaping._waterfill_on(ws, sc.P, 1.0)[0] <= sc.D:
            continue
        evals.calls = fills.calls = 0
        shaping._solve_ws(ws, sc.P)
        counts.append((evals.calls, fills.calls))
    assert len(counts) >= 40
    assert max(e for e, _ in counts) <= 30
    assert max(f for _, f in counts) <= 300


def test_case2_fill_budget_at_high_power(monkeypatch):
    # At P = 1e8 every cell of every support the search visits is active, so
    # the kink root-find and the tilt root-finds read closed-form MSEs and
    # the real fill runs once for the kink and once per support evaluation,
    # never on the full band.
    g = make_grid(32768)
    sc = UncodedScenario(1000.0, ar1_spectrum(g, 1.0, 0.1), flat_spectrum(g, 1.0), 0.01, 1e8)
    evals = Counter(monkeypatch, shaping, "_evaluate_support")
    fills = Counter(monkeypatch, shaping, "_fill")
    sol = solve(sc)
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert evals.calls >= 1
    assert fills.calls <= evals.calls + 2
    assert g.n_points not in fills.sizes


@pytest.mark.parametrize("P", [0.1, 1.0, 10.0])
def test_case1_fills_the_full_band_once(monkeypatch, P):
    # Where full-band water-filling meets D, the search's first step is the
    # whole answer: at these powers the closed form does not hold, so the
    # real fill runs, once, and the solution reuses it.
    g = make_grid(32768)
    sc = UncodedScenario(10.0, ar1_spectrum(g, 1.0, 0.3), flat_spectrum(g, 1.0), 0.2, P)
    fills = Counter(monkeypatch, shaping, "_fill")
    assert solve(sc).case_tag is CaseTag.WATERFILL_FEASIBLE
    assert fills.sizes == [g.n_points]


def rescaled_ar1(c, P, D=0.01, grid=make_grid(4096)):
    """AR(1) epsilon 0.1, a = 1000, D = 0.01 (by default) in units scaled by
    c: the same problem and the same rate for every c."""
    return UncodedScenario(1000.0 * c * c, ar1_spectrum(grid, 1.0 / c, 0.1),
                           flat_spectrum(grid, c), D / c, c * P)


def search_costs_agree_across_units(monkeypatch, P, D=0.01):
    # The fills, and the closed-form MSEs that hand their step to a fill (a
    # cell off, or the rounding guard), are the same in every unit.
    fills = Counter(monkeypatch, shaping, "_fill")
    closed = Counter(monkeypatch, shaping, "_closed_mse")
    counts, fallbacks, rates = [], [], []
    for c in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
        fills.calls = closed.nones = 0
        sol = solve(rescaled_ar1(c, P, D))
        assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
        counts.append(fills.calls)
        fallbacks.append(closed.nones)
        rates.append(sol.rate)
    assert max(counts) <= 1.1 * min(counts), counts
    assert len(set(fallbacks)) == 1 and fallbacks[0] > 0, fallbacks
    assert max(rates) - min(rates) <= 1e-12 * max(rates)


@pytest.mark.parametrize("P", [1e2, 1e4])
def test_search_cost_and_rate_do_not_depend_on_units(monkeypatch, P):
    search_costs_agree_across_units(monkeypatch, P)


def test_rounding_guard_does_not_depend_on_units(monkeypatch):
    # At P = 1e-3 with D 8.4e-7 above the floor, the guard hands six steps of
    # the search to the fill.
    search_costs_agree_across_units(monkeypatch, 1e-3, 9.8236e-4)


def test_rate_curve_ar_plateau_point():
    # The figure's AR(1) curve at 15 dB: the coarse rates of the sweep tied to
    # the last ulp on a plateau of unpowered cells, and its golden bracket
    # missed the peak at w = 0.4434, reporting 0.517230588.
    g = make_grid(4096)
    sc = UncodedScenario(1000.0, ar1_spectrum(g, 1.0, 0.1), flat_spectrum(g, 1.0), 0.01,
                         10 ** 1.5)
    sol = solve(sc)
    assert sol.rate >= 0.517233269
    assert sol.case_tag is CaseTag.BOTH_CONSTRAINTS_ACTIVE
    assert rate_curve(sc, [sc.P], CurveMethod.SPECTRUM_SHAPING)[0][1] == sol.rate
    assert mean_power(sol.phi_x) <= sc.P * (1 + 1e-12)
