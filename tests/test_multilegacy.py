import math

import numpy as np
import pytest
from hypothesis_or_skip import given, settings, st

from oracles import preemphasized_psd, wk_floor
from specshape.errors import SolverError
from specshape.estimation import UncodedScenario
from specshape import multilegacy
from specshape.multilegacy import (
    LegacyReceiver,
    MultiLegacyScenario,
    low_noise_support,
    max_prelog_support,
)
from specshape.shaping import onoff_prelog
from specshape.spectra import (ar1_spectrum, flat_spectrum, make_grid, mean_power,
                               tabulated_spectrum)

GRID = make_grid(1024)


def one_receiver(a=1000.0, s2n=1.0, D=0.01, grid=GRID):
    return LegacyReceiver(a, flat_spectrum(grid, s2n), D)


def receiver_floor(sc, k):
    """Smoothing MSE of receiver k with zero cognitive transmission."""
    r = sc.receivers[k]
    return wk_floor(UncodedScenario(r.a, sc.phi_s, r.phi_n, r.D, 1.0))


def test_floor_flat_hand_value():
    sc = MultiLegacyScenario(flat_spectrum(GRID, 1.0), (one_receiver(),))
    assert receiver_floor(sc, 0) == pytest.approx(1.0 / 1001.0, rel=1e-12)


def test_floor_vanishes_for_huge_gain():
    sc = MultiLegacyScenario(flat_spectrum(GRID, 1.0), (one_receiver(a=1e12),))
    assert receiver_floor(sc, 0) < 1e-11


def test_floor_matches_single_receiver_module():
    phi_s = ar1_spectrum(GRID, 1.0, 0.2)
    sc = MultiLegacyScenario(phi_s, (one_receiver(a=37.0, s2n=0.7, D=0.1),))
    ref = UncodedScenario(37.0, phi_s, flat_spectrum(GRID, 0.7), 0.1, 1.0)
    assert max_prelog_support(sc).budgets[0] == pytest.approx(0.1 - wk_floor(ref), rel=1e-14)


def shaped_k1_draw(seed):
    """Random one-receiver scenario at 64-4096 points: tabulated legacy PSD
    with 9-225 knots, 5-knot shaped noise, D = floor * U(1.1, 30)."""
    rng = np.random.default_rng(seed)
    g = make_grid(int(rng.choice([64, 256, 512, 1024, 4096])))
    phi_s = tabulated_spectrum(g, np.exp(rng.uniform(-1, 1, int(rng.integers(9, 226)))))
    phi_n = tabulated_spectrum(g, np.exp(rng.uniform(-2, 2, 5)))
    a = float(np.exp(rng.uniform(0, np.log(3000))))
    floor = wk_floor(UncodedScenario(a, phi_s, phi_n, 1.0, 1.0))
    return UncodedScenario(a, phi_s, phi_n, floor * float(rng.uniform(1.1, 30)), 1.0)


def exact_prefix_draws(count, seed=1):
    """(scenario, k): zero noise and a = 1 at 512 or 4096 points, phi_s ~
    U(0.5, 2) per sample, and a budget that is exactly the mass of the first
    k cells of the pre-emphasis order, where a plain cumsum's rounding can
    leave cell k - 1 out."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = make_grid(int(rng.choice([512, 4096])))
        s = rng.uniform(0.5, 2.0, g.n_points)
        first = np.argsort(s, kind="stable")[:int(rng.integers(1, g.n_points))]
        D = math.fsum((g.weights[first] * s[first]).tolist()) / math.pi
        phi_s, phi_n = tabulated_spectrum(g, s), flat_spectrum(g, 0.0)
        yield UncodedScenario(1.0, phi_s, phi_n, D, 1.0), first.size


def test_k1_matches_prop2_support_exactly():
    tab_noise = tabulated_spectrum(GRID, [1.0, 0.3, 2.0, 0.8, 1.5])
    singles = [UncodedScenario(1000.0, phi_s, phi_n, 0.01, 1.0) for phi_s, phi_n in (
        (flat_spectrum(GRID, 1.0), flat_spectrum(GRID, 1.0)),
        (ar1_spectrum(GRID, 1.0, 0.1), flat_spectrum(GRID, 1.0)),
        (ar1_spectrum(GRID, 1.0, 0.1), tab_noise))]
    exact = list(exact_prefix_draws(400))
    singles += [shaped_k1_draw(seed) for seed in range(200)] + [sc for sc, _ in exact]
    for single in singles:
        multi = MultiLegacyScenario(
            single.phi_s, (LegacyReceiver(single.a, single.phi_n, single.D),))
        got = max_prelog_support(multi)
        ref = onoff_prelog(single)
        assert np.array_equal(got.support, ref.support)
        assert got.prelog == pytest.approx(ref.prelog, rel=1e-12)
    # on an exact-prefix budget the k-th cell fits, and the support takes it
    assert [int(onoff_prelog(sc).support.sum()) for sc, _ in exact] == [k for _, k in exact]


@pytest.mark.parametrize("n", [512, 32768])
def test_full_band_prelog_is_one(n):
    # the greedy start takes every cell, so the prelog is the band, 1.0, as
    # the single-receiver stop reports it, not the weight sum over pi
    g = make_grid(n)
    phi_s, first = ar1_spectrum(g, 1.0, 0.3), LegacyReceiver(10.0, flat_spectrum(g, 1.0), 5.0)
    assert onoff_prelog(UncodedScenario(10.0, phi_s, first.phi_n, 5.0, 1.0)).prelog == 1.0
    for receivers in ((first,), (first, LegacyReceiver(3.0, flat_spectrum(g, 0.5), 2.0))):
        res = max_prelog_support(MultiLegacyScenario(phi_s, receivers))
        assert res.support.all() and res.prelog == 1.0


def test_k1_needs_no_pivot(monkeypatch):
    # the greedy point is optimal for one receiver, so the first pricing pass
    # returns it; rough_draw(69) (K = 2) needs 21 steps, so it raises
    monkeypatch.setattr(multilegacy, "_MAX_PIVOTS", 1)
    for seed in range(20):
        single = shaped_k1_draw(seed)
        max_prelog_support(MultiLegacyScenario(
            single.phi_s, (LegacyReceiver(single.a, single.phi_n, single.D),)))
    with pytest.raises(SolverError, match="did not settle"):
        max_prelog_support(rough_draw(69))


def test_duplicate_receivers_match_k1():
    phi_s = ar1_spectrum(GRID, 1.0, 0.1)
    r = one_receiver()
    one = max_prelog_support(MultiLegacyScenario(phi_s, (r,)))
    two = max_prelog_support(MultiLegacyScenario(phi_s, (r, r)))
    assert np.array_equal(one.support, two.support)
    assert one.prelog == pytest.approx(two.prelog, rel=1e-12)


def test_receiver_whose_budget_covers_the_band_changes_nothing():
    # the second receiver's stop is the whole band, reached before any
    # divide of its budget by a cell's cost, which would overflow
    g = make_grid(512)
    phi_s = ar1_spectrum(g, 1.0, 0.1)
    r = one_receiver(grid=g)
    one = max_prelog_support(MultiLegacyScenario(phi_s, (r,)))
    two = max_prelog_support(MultiLegacyScenario(phi_s, (r, one_receiver(D=1e308, grid=g))))
    assert np.array_equal(two.support, one.support)
    assert two.prelog == one.prelog


def test_flat_two_receivers_min_budget_caps():
    phi_s = flat_spectrum(GRID, 1.0)
    r1 = one_receiver(a=1000.0, D=0.02)
    r2 = one_receiver(a=1000.0, D=0.01)
    sc = MultiLegacyScenario(phi_s, (r1, r2))
    got = max_prelog_support(sc)
    # flat cost density u0 = a/(a+1); binding receiver is the tighter target
    u0 = 1000.0 / 1001.0
    floors = [receiver_floor(sc, k) for k in range(2)]
    expected = min((r.D - f) / u0 for r, f in zip((r1, r2), floors))
    assert got.prelog == pytest.approx(expected, rel=1e-9)


def test_infeasible_receiver_zeroes_prelog():
    sc = MultiLegacyScenario(
        flat_spectrum(GRID, 1.0),
        (one_receiver(), one_receiver(a=1.0, D=1e-4)))
    got = max_prelog_support(sc)
    assert got.prelog == 0.0 and not got.support.any()


def test_support_satisfies_all_inequalities():
    phi_s = ar1_spectrum(GRID, 1.0, 0.15)
    sc = MultiLegacyScenario(
        phi_s,
        (one_receiver(a=300.0, D=0.05),
         one_receiver(a=2000.0, s2n=0.5, D=0.02),
         one_receiver(a=50.0, s2n=2.0, D=0.2)))
    got = max_prelog_support(sc)
    w = GRID.weights
    s = phi_s.values
    for k, r in enumerate(sc.receivers):
        dens = r.a * s * s / (r.a * s + r.phi_n.values)
        used = float(np.dot(w[got.support], dens[got.support])) / np.pi
        budget = r.D - receiver_floor(sc, k)
        assert used <= budget + 1e-9


def tabulated_draw(seed):
    """Random K >= 2 scenario with tabulated legacy and receiver noise spectra
    and targets D = floor * U(1.1, 30)."""
    rng = np.random.default_rng(seed)
    g = make_grid(int(rng.choice([64, 128, 256, 512, 1024])))
    K = int(rng.integers(2, 5))
    phi_s = tabulated_spectrum(g, np.exp(rng.uniform(-1, 1, 9)))
    recs = []
    for _ in range(K):
        a = float(np.exp(rng.uniform(0, np.log(3000))))
        phi_n = tabulated_spectrum(g, np.exp(rng.uniform(-2, 2, 7)))
        floor = wk_floor(UncodedScenario(a, phi_s, phi_n, 1.0, 1.0))
        recs.append(LegacyReceiver(a, phi_n, floor * float(rng.uniform(1.1, 30))))
    return MultiLegacyScenario(phi_s, tuple(recs))


@pytest.mark.parametrize("seed, n, K", [(3221, 512, 3), (2202, 256, 4)])
def test_simplex_never_ends_below_its_greedy_start(monkeypatch, seed, n, K):
    sc = tabulated_draw(seed)
    assert (sc.grid.n_points, len(sc.receivers)) == (n, K)
    got = max_prelog_support(sc)
    monkeypatch.setattr(multilegacy, "_simplex", lambda w, A, x, basis: x)
    greedy = max_prelog_support(sc)
    assert got.prelog > greedy.prelog
    assert np.all(got.spent <= got.budgets)
    w, s = sc.grid.weights, sc.phi_s.values
    for k, r in enumerate(sc.receivers):
        dens = r.a * s * s / (r.a * s + r.phi_n.values)
        used = float(np.dot(w[got.support], dens[got.support])) / np.pi
        assert used <= got.budgets[k] * (1 + 1e-12)
        assert got.budgets[k] == r.D - receiver_floor(sc, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2000),
       st.floats(min_value=1.05, max_value=3.0))
def test_prelog_monotone_in_targets(seed, scale):
    rng = np.random.default_rng(seed)
    g = make_grid(128)
    phi_s = ar1_spectrum(g, 1.0, float(rng.uniform(0.05, 1.0)))
    recs = tuple(
        LegacyReceiver(float(rng.uniform(10, 2000)),
                       flat_spectrum(g, float(rng.uniform(0.2, 2.0))),
                       float(rng.uniform(0.01, 0.3)))
        for _ in range(int(rng.integers(1, 4))))
    base = max_prelog_support(MultiLegacyScenario(phi_s, recs))
    k = int(rng.integers(0, len(recs)))
    relaxed = list(recs)
    relaxed[k] = LegacyReceiver(recs[k].a, recs[k].phi_n, recs[k].D * scale)
    bigger = max_prelog_support(MultiLegacyScenario(phi_s, tuple(relaxed)))
    assert bigger.prelog >= base.prelog - 1e-12


def lp_prelog(sc):
    """The K-receiver support problem as the linear program it is: maximize
    the measure sum_i w_i x_i / pi subject to every receiver's pre-emphasis
    mass within its slack, 0 <= x <= 1 (boundary cells fractional)."""
    optimize = pytest.importorskip("scipy.optimize")
    w, s = sc.grid.weights, sc.phi_s.values
    costs = np.array([r.a * s * s / (r.a * s + r.phi_n.values) * w / np.pi
                      for r in sc.receivers])
    budgets = [r.D - receiver_floor(sc, k) for k, r in enumerate(sc.receivers)]
    res = optimize.linprog(-w / np.pi, A_ub=costs, b_ub=budgets, bounds=(0.0, 1.0),
                           method="highs")
    assert res.status == 0
    return -res.fun


def rough_draw(seed):
    """Random 512-point scenario with 100-400 knot legacy and noise spectra
    and targets D = floor * U(1.05, 5)."""
    rng = np.random.default_rng(seed)
    g = make_grid(512)
    K = int(rng.integers(2, 5))
    knots = int(rng.integers(100, 401))
    phi_s = tabulated_spectrum(g, np.exp(rng.uniform(-2, 2, knots)))
    recs = []
    for _ in range(K):
        a = float(np.exp(rng.uniform(0, np.log(3000))))
        phi_n = tabulated_spectrum(g, np.exp(rng.uniform(-2, 2, int(rng.integers(5, knots)))))
        floor = wk_floor(UncodedScenario(a, phi_s, phi_n, 1.0, 1.0))
        recs.append(LegacyReceiver(a, phi_n, floor * float(rng.uniform(1.05, 5))))
    return MultiLegacyScenario(phi_s, tuple(recs))


@pytest.mark.parametrize("seed", [4, 5, 8, 10, 12, 17, 22, 28, 41, 44])
def test_greedy_matches_lp_on_smooth_draws(seed):
    sc = tabulated_draw(seed)
    assert sc.grid.n_points == 512
    assert max_prelog_support(sc).prelog == pytest.approx(lp_prelog(sc), rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", [5, 64, 69, 111])
def test_greedy_within_lp_on_rough_draws(seed):
    # the support, fractional cells included, is feasible for the LP
    sc = rough_draw(seed)
    assert max_prelog_support(sc).prelog <= lp_prelog(sc) + 1e-12


@pytest.mark.parametrize("draw", [rough_draw, tabulated_draw])
def test_matches_lp_on_seeded_draws(draw):
    # 160 draws of each kind, K = 2-4; rough_draw(69) is where the old
    # greedy plus swap pass ended 2.8e-3 short
    misses = []
    for seed in range(160):
        sc = draw(seed)
        got, ref = max_prelog_support(sc).prelog, lp_prelog(sc)
        if abs(got - ref) > 1e-12:
            misses.append((seed, got - ref))
    assert not misses


def receivers_on(phi_s, *specs):
    return MultiLegacyScenario(phi_s, tuple(
        LegacyReceiver(a, flat_spectrum(phi_s.grid, s2n), D) for a, s2n, D in specs))


def test_every_cell_fits():
    sc = receivers_on(ar1_spectrum(GRID, 1.0, 0.1), (1000.0, 1.0, 5.0), (30.0, 0.5, 5.0))
    got = max_prelog_support(sc)
    assert got.support.all() and got.prelog == 1.0
    assert np.all(got.spent <= got.budgets)


def test_zero_cost_cells_are_taken_whole():
    g = make_grid(512)
    knots = np.exp(np.random.default_rng(3).uniform(-1, 1, 17))
    knots[[2, 3, 9]] = 0.0
    phi_s = tabulated_spectrum(g, knots)
    free = phi_s.values == 0.0
    assert 0 < free.sum() < g.n_points
    recs = []
    for a, s2n, k in ((500.0, 1.0, 1.5), (40.0, 0.3, 3.0)):
        floor = wk_floor(UncodedScenario(a, phi_s, flat_spectrum(g, s2n), 1.0, 1.0))
        recs.append((a, s2n, floor * k))
    sc = receivers_on(phi_s, *recs)
    got = max_prelog_support(sc)
    assert got.support[free].all() and not got.support.all()
    assert got.prelog == pytest.approx(lp_prelog(sc), rel=0, abs=1e-12)


def test_budget_met_exactly_by_a_whole_prefix():
    # receiver 0's slack is exactly the mass of the first m cells in the
    # fill order, so the stop cell enters the start basis at 0
    phi_s = ar1_spectrum(GRID, 1.0, 0.1)
    a, s2n, m = 1000.0, 1.0, 300
    single = UncodedScenario(a, phi_s, flat_spectrum(GRID, s2n), 1.0, 1.0)
    floor = wk_floor(single)
    order = np.lexsort((np.arange(GRID.n_points), phi_s.values))
    mass = np.cumsum((preemphasized_psd(single).values * GRID.weights / np.pi)[order])[m - 1]
    near = floor + mass + np.arange(-4, 5) * np.spacing(floor + mass)
    D = float(next(d for d in near if d - floor == mass))
    sc = receivers_on(phi_s, (a, s2n, D), (100.0, 2.0, 0.5))
    got = max_prelog_support(sc)
    assert got.budgets[0] == mass and got.budgets[1] > got.spent[1]
    assert np.array_equal(np.flatnonzero(got.support), np.sort(order[:m]))
    assert got.spent[0] == mass
    assert got.prelog == pytest.approx(lp_prelog(sc), rel=0, abs=1e-12)
    assert got.prelog == pytest.approx(GRID.weights[order[:m]].sum() / np.pi, rel=1e-14)


def test_low_noise_flat_fraction():
    phi_s = flat_spectrum(GRID, 1.0)
    sc = MultiLegacyScenario(phi_s, (one_receiver(a=100.0, s2n=0.5, D=0.3),))
    mask = low_noise_support(sc)
    expected = (0.3 - 0.5 / 100.0) / 1.0
    got = float(GRID.weights[mask].sum()) / np.pi
    assert got == pytest.approx(expected, abs=2.0 / GRID.n_points)


def test_low_noise_saturates_to_full_band():
    phi_s = flat_spectrum(GRID, 1.0)
    sc = MultiLegacyScenario(phi_s, (one_receiver(a=100.0, s2n=0.5, D=5.0),))
    assert low_noise_support(sc).all()


def test_low_noise_negative_budget_empty():
    phi_s = flat_spectrum(GRID, 1.0)
    sc = MultiLegacyScenario(phi_s, (one_receiver(a=10.0, s2n=5.0, D=0.1),))
    assert not low_noise_support(sc).any()


def test_low_noise_ar_band_hugs_pi():
    phi_s = ar1_spectrum(GRID, 1.0, 0.1)
    sc = MultiLegacyScenario(phi_s, (one_receiver(a=100.0, s2n=0.1, D=0.3),))
    mask = low_noise_support(sc)
    idx = np.flatnonzero(mask)
    assert idx.size > 0
    assert np.all(np.diff(idx) == 1)  # contiguous band
    assert idx[-1] == GRID.n_points - 1  # anchored at omega = pi


def test_low_noise_stop_on_a_running_sum_a_plain_cumsum_overshoots():
    # a budget equal to the exact running mass of the first k cells, found by
    # a seeded search where np.cumsum has drifted above it: the k cells fit
    # and cell k does not
    grid = make_grid(4096)
    s = np.random.default_rng(0).uniform(0.5, 2.0, grid.n_points)
    order = np.argsort(s, kind="stable")
    terms = grid.weights[order] * s[order]
    k = 3731
    budget = math.fsum(terms[:k].tolist()) / np.pi
    assert np.cumsum(terms)[k - 1] > np.pi * budget
    assert math.fsum(terms[:k + 1].tolist()) / np.pi > budget
    sc = MultiLegacyScenario(tabulated_spectrum(grid, s),
                             (LegacyReceiver(1.0, flat_spectrum(grid, 0.0), budget),))
    assert np.array_equal(np.flatnonzero(low_noise_support(sc)), np.sort(order[:k]))


def test_low_noise_limit_of_general_solver():
    phi_s = ar1_spectrum(GRID, 1.0, 0.2)
    diffs = []
    for s in (1e-2, 1e-4):
        recs = (
            LegacyReceiver(200.0, flat_spectrum(GRID, 1.0 * s), 0.1),
            LegacyReceiver(800.0, flat_spectrum(GRID, 0.5 * s), 0.15),
        )
        sc = MultiLegacyScenario(phi_s, recs)
        general = max_prelog_support(sc).prelog
        ln_mask = low_noise_support(sc)
        ln = float(GRID.weights[ln_mask].sum()) / np.pi
        diffs.append(abs(general - ln))
    assert diffs[0] <= 1e-2
    assert diffs[1] <= max(1e-3, diffs[0])


def test_scenario_validation():
    with pytest.raises(ValueError):
        MultiLegacyScenario(flat_spectrum(GRID, 1.0), ())
    with pytest.raises(ValueError, match="share one grid"):
        MultiLegacyScenario(flat_spectrum(GRID, 1.0),
                            [LegacyReceiver(1.0, flat_spectrum(make_grid(64), 1.0), 0.1)])
    with pytest.raises(ValueError):
        LegacyReceiver(0.0, flat_spectrum(GRID, 1.0), 0.1)
    with pytest.raises(ValueError):
        LegacyReceiver(1.0, flat_spectrum(GRID, 1.0), -0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_receiver_rejects_non_finite(value):
    with pytest.raises(ValueError):
        LegacyReceiver(value, flat_spectrum(GRID, 1.0), 0.1)
    with pytest.raises(ValueError):
        LegacyReceiver(1.0, flat_spectrum(GRID, 1.0), value)
