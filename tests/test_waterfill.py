import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specshape.spectra import Spectrum, flat_spectrum, make_grid, mean_power
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
