import numpy as np
import pytest
from hypothesis_or_skip import given, settings, st

from oracles import sorted_fill
from specshape import shaping
from specshape.errors import SolverError
from specshape.estimation import UncodedScenario
from specshape.shaping import CaseTag
from specshape.spectra import (Spectrum, _dot, ar1_spectrum, flat_spectrum, make_grid, mean_power,
                               tabulated_spectrum)
from specshape.waterfill import _fill, rate, waterfill


def two_level_base(n=16):
    # n=16: the first 8 points carry exactly half the quadrature measure.
    g = make_grid(n)
    vals = np.where(np.arange(n) < n // 2, 1.0, 3.0)
    return g, Spectrum(g, vals)


def test_flat_base_fills_flat():
    g = make_grid(256)
    # (1001, 0.1): the budget is small next to the base mass, so a level read
    # off prefix sums alone loses digits to cancellation.
    for level, budget in ((2.0, 5.0), (1001.0, 0.1)):
        base = flat_spectrum(g, level)
        res = waterfill(base, budget)
        assert res.phi_x.values == pytest.approx(budget, rel=1e-9)
        assert res.rate == pytest.approx(np.log1p(budget / level), rel=1e-12)
        assert res.power_used == pytest.approx(budget, rel=1e-9)


def test_two_level_hand_solution():
    # base halves (1, 3) at budget 1: all power on the low half, level 3.
    g, base = two_level_base()
    res = waterfill(base, 1.0)
    lo = base.values == 1.0
    assert res.phi_x.values[lo] == pytest.approx(2.0, abs=1e-9)
    assert res.phi_x.values[~lo] == pytest.approx(0.0, abs=1e-9)
    assert res.water_level == pytest.approx(3.0, rel=1e-9)
    assert res.rate == pytest.approx(0.5 * np.log(3.0), rel=1e-9)


def test_two_level_against_grid_search_oracle():
    # Independent oracle: dense 2-variable search over per-half levels.
    g, base = two_level_base()
    budget = 1.0
    p1 = np.linspace(0.0, 2.0 * budget, 4001)
    p2 = 2.0 * budget - p1  # power constraint tight: (p1+p2)/2 = budget
    ok = p2 >= 0
    rates = 0.5 * np.log1p(p1[ok] / 1.0) + 0.5 * np.log1p(p2[ok] / 3.0)
    best = rates.max()
    res = waterfill(base, budget)
    assert res.rate >= best - 1e-6
    assert res.rate == pytest.approx(best, abs=1e-6)


def test_rate_vanishes_with_budget():
    g = make_grid(64)
    base = flat_spectrum(g, 1.0)
    assert waterfill(base, 1e-12).rate == pytest.approx(0.0, abs=1e-11)


def test_rate_zero_input():
    g = make_grid(64)
    assert rate(flat_spectrum(g, 0.0), flat_spectrum(g, 1.0)) == 0.0


def test_rate_flat_hand_value():
    g = make_grid(64)
    phi, base = flat_spectrum(g, 3.0), flat_spectrum(g, 1.0)
    assert rate(phi, base) == pytest.approx(np.log(4.0), rel=1e-12)


def test_rate_onoff():
    g = make_grid(4096)
    cum = np.cumsum(g.weights)
    mask = cum <= 0.25 * np.pi
    w = float(g.weights[mask].sum()) / np.pi
    phi = Spectrum(g, np.where(mask, 7.0, 0.0))
    base = flat_spectrum(g, 2.0)
    assert rate(phi, base) == pytest.approx(w * np.log1p(7.0 / 2.0), rel=1e-12)


def test_rate_rejects_power_over_zero_floor():
    g = make_grid(64)
    base = Spectrum(g, np.zeros(g.n_points))
    with pytest.raises(ValueError):
        rate(flat_spectrum(g, 1.0), base)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.floats(min_value=1e-3, max_value=1e6))
def test_kkt_and_power_conservation(seed, budget):
    rng = np.random.default_rng(seed)
    g = make_grid(128)
    base = Spectrum(g, rng.uniform(0.05, 20.0, g.n_points))
    res = waterfill(base, budget)
    assert abs(res.power_used - budget) <= 1e-9 * budget
    assert budget * (1 - 1e-13) <= res.power_used <= budget
    level = res.water_level
    on = res.phi_x.values > 0
    if on.any():
        tot = base.values[on] + res.phi_x.values[on]
        assert np.max(np.abs(tot - level)) <= 1e-8 * level
    if (~on).any():
        assert np.min(base.values[~on]) >= level - 1e-8 * level


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rate_monotone_in_budget(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(64)
    base = Spectrum(g, rng.uniform(0.1, 10.0, g.n_points))
    budgets = np.geomspace(0.01, 100.0, 8)
    rates = [waterfill(base, b).rate for b in budgets]
    assert np.all(np.diff(rates) >= -1e-12)


def bisection_level(h, base, weights, budget):
    # Oracle: bisect tau on the power of max(tau*h - base, 0) over cells with h > 0.
    on = h > 0

    def power(tau):
        return float(np.dot(weights[on], np.maximum(tau * h[on] - base[on], 0.0))) / np.pi

    lo, hi = 0.0, 1.0
    while power(hi) < budget:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if power(mid) < budget else (lo, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.floats(min_value=1e-2, max_value=1e6))
def test_fill_matches_bisection_oracle(seed, budget):
    rng = np.random.default_rng(seed)
    n = 40
    # Few distinct values so that base/h ties are common; some cells have
    # h = 0 (never filled), and the last cell is a boundary cell of zero
    # weight (theta = 0) with the lowest threshold base/h.
    base = rng.choice([0.5, 1.0, 2.0, 4.0], n) * rng.choice([1.0, 3.0], n)
    h = rng.choice([0.0, 1.0, 1.5, 2.0], n)
    h[0] = h[-1] = 2.0
    base[-1] = 0.25
    weights = np.full(n, np.pi / (n - 1))
    weights[-1] = 0.0
    phi, tau = _fill(h, base, weights, budget)
    power = float(np.dot(weights, phi)) / np.pi
    assert budget * (1 - 1e-13) <= power <= budget
    assert np.all(phi[h == 0.0] == 0.0)
    assert phi == pytest.approx(np.where(h > 0, np.maximum(tau * h - base, 0.0), 0.0),
                                abs=1e-12 * tau)
    assert tau == pytest.approx(bisection_level(h, base, weights, budget), rel=1e-12)


def tilted_h(q, nu):
    # _tilted_fill's h: 1 + sqrt(1 - 4 nu q), and 0 where the root is complex.
    disc = 1.0 - 4.0 * nu * q
    return np.where(disc >= 0.0, 1.0 + np.sqrt(np.maximum(disc, 0.0)), 0.0)


@pytest.mark.parametrize("n", [512, 4096, 32768])
def test_fill_matches_sorted_fill(n):
    # Solver-shaped inputs: a prefix of a workspace's pre-emphasis order whose
    # last cell is a boundary cell of zero weight (theta = 0), tilted past
    # 0.25/max q in about half the draws so that cells drop out (h = 0).
    rng = np.random.default_rng(n)
    g = make_grid(n)
    dropped = 0
    for _ in range(12):
        if rng.uniform() < 0.5:
            phi_s = ar1_spectrum(g, 1.0, 10.0 ** rng.uniform(-2.0, np.log10(0.9)))
        else:
            phi_s = tabulated_spectrum(g, np.exp(rng.uniform(-1.0, 1.0, 9)))
        phi_n = (flat_spectrum(g, 1.0) if rng.uniform() < 0.5
                 else tabulated_spectrum(g, np.exp(rng.uniform(-2.0, 2.0, 5))))
        ws = shaping._Workspace(UncodedScenario(float(np.exp(rng.uniform(0.0, 7.0))),
                                                phi_s, phi_n, 1.0, 1.0))
        m = int(rng.integers(2, n + 1))
        weights = ws.ws[:m].copy()
        weights[-1] = 0.0
        q, base = ws.qs[:m], ws.bs[:m]
        h = tilted_h(q, rng.uniform(0.0, 2.0) * 0.25 / q.max())
        budget = 10.0 ** rng.uniform(-4.0, 10.0)
        filled, ref = _fill(h, base, weights, budget), sorted_fill(h, base, weights, budget)
        if ref is None:
            assert filled is None
            continue
        dropped += bool(np.any(h == 0.0))
        (phi, tau), (ref_phi, ref_tau) = filled, ref
        assert tau == pytest.approx(ref_tau, rel=1e-14, abs=0.0)
        # Against a base mass far above the budget the spent power is known
        # only to rounding of that mass, for the sorted fill as well.
        slack = max(1e-13 * budget, np.finfo(float).eps * float(np.dot(weights, base)) / np.pi)
        # spent as the library sums it, in slices whatever the BLAS threads
        assert budget - slack <= _dot(weights, phi) / np.pi <= budget
        np.testing.assert_array_equal(phi == 0.0, ref_phi == 0.0)
    assert dropped > 0


@pytest.mark.parametrize("budget", [1e-20, 1e-14, 1e-10, 1e-6])
def test_fill_survives_degenerate_budgets(budget):
    # A budget tiny next to the base mass cancels in the closed-form level, so
    # every cell can test inactive; the fill must still come back, spend no
    # more than the budget and stay finite.
    n = 4096
    g = make_grid(n)
    rng = np.random.default_rng(5)
    bases = [np.full(n, level) for level in (1.0, 1e8, 1e15)]
    bases += [ar1_spectrum(g, 1.0, 0.01).values, rng.uniform(0.05, 20.0, n)]
    for base in bases:
        for h in (np.ones(n), tilted_h(rng.uniform(0.0, 1.0, n), 0.5)):
            filled = _fill(h, base, g.weights, budget)
            assert filled is not None
            phi, tau = filled
            assert np.all(np.isfinite(phi)) and np.isfinite(tau)
            assert float(np.dot(g.weights, phi)) / np.pi <= budget


@pytest.mark.parametrize("n", [512, 4096, 32768])
def test_solve_with_a_budget_below_rounding_of_the_floor(n):
    # Case 1 at a budget that vanishes next to the floor a*phi_s + phi_n.
    g = make_grid(n)
    sc = UncodedScenario(1e15, flat_spectrum(g, 1.0), flat_spectrum(g, 1.0), 0.5, 1e-6)
    sol = shaping.solve(sc)
    assert sol.case_tag is CaseTag.WATERFILL_FEASIBLE
    assert sol.rate == 0.0


@pytest.mark.parametrize("budget", [1e308, 1.7976931348623157e308])
def test_fill_past_float_range_raises(budget):
    # budget * pi overflows, so the water level is not finite: a SolverError,
    # where the final step loop used to spin forever on a NaN level
    g = make_grid(64)
    with pytest.raises(SolverError, match="water level is not finite"):
        _fill(np.ones(64), ar1_spectrum(g, 1.0, 0.1).values, g.weights, budget)
    with pytest.raises(SolverError):
        waterfill(flat_spectrum(g, 1.0), budget)


def test_fill_without_a_usable_cell_is_none():
    weights = np.array([1.0, 0.0, 2.0])
    assert _fill(np.array([0.0, 1.0, 0.0]), np.ones(3), weights, 1.0) is None


def test_budget_must_be_positive():
    g = make_grid(16)
    with pytest.raises(ValueError):
        waterfill(flat_spectrum(g, 1.0), 0.0)


@pytest.mark.parametrize("budget", [np.nan, np.inf])
def test_budget_must_be_finite(budget):
    g = make_grid(16)
    with pytest.raises(ValueError):
        waterfill(flat_spectrum(g, 1.0), budget)
