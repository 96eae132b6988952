import math
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (SampledPsd, cognitive_rate_mimo, legacy_rate_mimo, onoff_asymptote,
                     trace_power)
from specshape.coded import CodedScenario, solve_coded, coded_prelog
from specshape import cli, coded, mimo
from specshape.errors import InfeasibleScenarioError, SolverError
from specshape.mimo import (
    DecodeMode,
    MimoChannel,
    MimoSolution,
    _W_LO,
    _shape_matrix,
    _widest_feasible,
    mimo_prelog,
    solve_mimo,
)
from specshape.spectra import make_grid

GRID = make_grid(512)


def channel(H=None, h_l=None, h_c=None, a_c=1.0, legacy_load=0.5, **kw):
    H = np.eye(2) if H is None else np.asarray(H)
    n_r, n_t = np.atleast_2d(H).shape
    params = dict(a_l=1.0, g_l=1.0, a_c=a_c, g_c=10.0,
                  sigma2_s=1000.0, sigma2_nl=1.0, sigma2_nc=1.0)
    params.update(kw)
    R_l = legacy_load * math.log1p(params["a_l"] * params["sigma2_s"] / params["sigma2_nl"])
    return MimoChannel(
        H_c=H,
        h_l=np.ones(n_t) / math.sqrt(n_t) if h_l is None else np.asarray(h_l),
        h_c=(np.arange(n_r) == 0).astype(float) if h_c is None else np.asarray(h_c),
        R_l=R_l, **params)


def scalar_channel(a_c=1.0, **kw):
    return channel(H=[[1.0]], h_l=[1.0], h_c=[1.0], a_c=a_c, **kw)


def flat_identity_psd(grid, level, n_t):
    field = np.broadcast_to(level * np.eye(n_t), (grid.n_points, n_t, n_t)).copy()
    return SampledPsd(grid, field.astype(complex))


def onoff_identity_psd(grid, level, n_t, frac):
    cum = np.cumsum(grid.weights)
    mask = cum <= frac * np.pi
    field = np.zeros((grid.n_points, n_t, n_t), dtype=complex)
    field[mask] = level * np.eye(n_t)
    return SampledPsd(grid, field), float(grid.weights[mask].sum()) / np.pi


def test_trace_power_flat_identity():
    P = 6.0
    psd = flat_identity_psd(GRID, P / 2, 2)
    assert trace_power(psd) == pytest.approx(P, rel=1e-12)


def test_trace_power_onoff():
    psd, w = onoff_identity_psd(GRID, 3.0, 2, 0.25)
    assert trace_power(psd) == pytest.approx(w * 3.0 * 2, rel=1e-12)


def test_trace_power_rank_one():
    u = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    u *= math.sqrt(7.0) / np.linalg.norm(u)
    field = np.broadcast_to(np.outer(u, u.conj()), (GRID.n_points, 2, 2)).copy()
    assert trace_power(SampledPsd(GRID, field)) == pytest.approx(7.0, rel=1e-12)


def test_legacy_rate_quiet_is_capacity():
    ch = channel()
    psd = flat_identity_psd(GRID, 0.0, 2)
    assert legacy_rate_mimo(psd, ch) == pytest.approx(ch.legacy_capacity, rel=1e-12)


def test_legacy_rate_zero_forcing():
    ch = channel(h_l=[1.0, 0.0])
    v = np.array([0.0, 1.0])  # orthogonal to h_l
    field = np.broadcast_to(1e9 * np.outer(v, v.conj()), (GRID.n_points, 2, 2)).copy()
    psd = SampledPsd(GRID, field)
    assert legacy_rate_mimo(psd, ch) == pytest.approx(ch.legacy_capacity, rel=1e-12)


def test_legacy_rate_scalar_reduction():
    ch = scalar_channel()
    sc = CodedScenario(ch.a_l, ch.g_l, ch.a_c, ch.g_c, ch.sigma2_s,
                       ch.sigma2_nl, ch.sigma2_nc, ch.R_l, P=10.0)
    psd, w = onoff_identity_psd(GRID, 40.0, 1, 0.3)
    expected = w * math.log1p(sc.a_l * sc.sigma2_s / (sc.g_l * 40.0 + sc.sigma2_nl)) \
        + (1 - w) * sc.legacy_capacity
    assert legacy_rate_mimo(psd, ch) == pytest.approx(expected, rel=1e-12)


def test_cognitive_rate_zero_psd():
    ch = channel(a_c=0.01)
    psd = flat_identity_psd(GRID, 0.0, 2)
    assert cognitive_rate_mimo(psd, ch, DecodeMode.TREAT_AS_NOISE) == pytest.approx(0.0, abs=1e-14)


def test_cognitive_rate_b1_identity():
    ch = channel(a_c=1e6)  # decodability slack even with interference
    P_level = 5.0
    psd = flat_identity_psd(GRID, P_level, 2)
    got = cognitive_rate_mimo(psd, ch, DecodeMode.SUCCESSIVE_B1)
    assert got == pytest.approx(2.0 * math.log1p(ch.g_c * P_level / ch.sigma2_nc), rel=1e-12)


def test_cognitive_rate_scalar_reductions():
    P_level = 3.0
    psd = flat_identity_psd(GRID, P_level, 1)
    ch_a = scalar_channel(a_c=0.01)
    got = cognitive_rate_mimo(psd, ch_a, DecodeMode.TREAT_AS_NOISE)
    expected = math.log1p(ch_a.g_c * P_level / (ch_a.a_c * ch_a.sigma2_s + ch_a.sigma2_nc))
    assert got == pytest.approx(expected, rel=1e-12)
    ch_b = scalar_channel(a_c=1.0)
    got_b1 = cognitive_rate_mimo(psd, ch_b, DecodeMode.SUCCESSIVE_B1, check=False)
    assert got_b1 == pytest.approx(math.log1p(ch_b.g_c * P_level / ch_b.sigma2_nc), rel=1e-12)
    got_b2 = cognitive_rate_mimo(psd, ch_b, DecodeMode.RATE_SPLIT_B2, check=False)
    expected_b2 = math.log1p((ch_b.a_c * ch_b.sigma2_s + ch_b.g_c * P_level)
                             / ch_b.sigma2_nc) - ch_b.R_l
    assert got_b2 == pytest.approx(expected_b2, rel=1e-12)


def test_mode_precondition_checked():
    ch = channel(a_c=1.0)  # decodable in silence
    psd = flat_identity_psd(GRID, 0.0, 2)
    with pytest.raises(ValueError):
        cognitive_rate_mimo(psd, ch, DecodeMode.TREAT_AS_NOISE)


def test_mimo_prelog_values():
    assert mimo_prelog(channel()) == pytest.approx(1.0, rel=1e-12)
    rank1 = np.outer([1.0, 1.0], [1.0, 1.0]) / 2.0
    assert mimo_prelog(channel(H=rank1)) == pytest.approx(0.5, rel=1e-12)
    ch1 = scalar_channel()
    sc = CodedScenario(ch1.a_l, ch1.g_l, ch1.a_c, ch1.g_c, ch1.sigma2_s,
                       ch1.sigma2_nl, ch1.sigma2_nc, ch1.R_l, P=1.0)
    assert mimo_prelog(ch1) == pytest.approx(coded_prelog(sc), rel=1e-12)
    overloaded = channel(legacy_load=2.0)
    assert mimo_prelog(overloaded) == 0.0
    # the on-level reaches rank(H_c Q^(1/2)) modes, not rank(H_c)
    assert mimo_prelog(channel(shape=np.diag([1.0, 0.0]))) == pytest.approx(0.5, rel=1e-12)
    rng = np.random.default_rng(29)
    G = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    H3 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert mimo_prelog(channel(H=H3)) == pytest.approx(1.5, rel=1e-12)
    assert mimo_prelog(channel(H=H3, shape=G @ G.conj().T)) == pytest.approx(0.5, rel=1e-12)


def test_solve_mimo_scalar_matches_coded():
    for a_c, P in ((0.01, 100.0), (1.0, 100.0), (1.0, 1e6)):
        ch = scalar_channel(a_c=a_c)
        sc = CodedScenario(ch.a_l, ch.g_l, ch.a_c, ch.g_c, ch.sigma2_s,
                           ch.sigma2_nl, ch.sigma2_nc, ch.R_l, P=P)
        mim = solve_mimo(ch, P, grid=GRID)
        cod = solve_coded(sc)
        assert mim.rate == pytest.approx(cod.rate, rel=1e-9)
        assert mim.w == pytest.approx(cod.w, rel=1e-6)


def coded_link_draws(rng, n):
    """n seeded sets of link scalars, each followed by its twin with every
    power times 2^k, and last the edge of
    `test_whitening_with_a_tiny_noise_stays_finite`, where a_c sigma2_s /
    sigma2_nc is 1e310; each with the power scale c."""
    for _ in range(n):
        a_l, g_l, a_c, g_c = 10.0 ** rng.uniform(-3.0, 3.0, 4)
        s2s, s2nl, s2nc = 10.0 ** rng.uniform(-3.0, 3.0, 3)
        R_l = rng.uniform(0.05, 0.95) * math.log1p(a_l * s2s / s2nl)
        for c in (1.0, 2.0 ** int(rng.integers(-60, 61))):
            yield dict(a_l=a_l, g_l=g_l, a_c=a_c, g_c=g_c, sigma2_s=c * s2s, sigma2_nl=c * s2nl,
                       sigma2_nc=c * s2nc, R_l=R_l), c
    yield dict(a_l=1.0, g_l=1.0, a_c=1.0, g_c=1e-300, sigma2_s=1000.0, sigma2_nl=1.0,
               sigma2_nc=1e-307, R_l=0.5 * math.log(1001.0)), 1.0


def bits(read):
    """The bytes of what read() returns, or the type and message it raises."""
    try:
        return np.asarray(read(), dtype=float).tobytes()
    except (ArithmeticError, RuntimeWarning, ValueError) as e:
        return type(e), str(e)


def test_coded_link_is_the_1x1_channel_link():
    # solve_coded adds the scenario's scalars to one unit geometry; every
    # field of that link, and every solve, must repeat a fresh 1x1 channel's
    # bits, which the benchmark's 1e-9 check on the rate cannot see
    rng = np.random.default_rng(34)
    fields = ("lam", "proj", "k_dec", "k_l", "C_l", "off_dec", "gains_a", "gains_b1")
    modes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, c in coded_link_draws(rng, 40):
            coded._setup.cache_clear()
            coded._unit_geometry.cache_clear()
            link = coded._setup(**p)
            ch = MimoChannel(H_c=[[1.0]], h_l=[1.0], h_c=[1.0], **p)
            for name in fields:
                assert bits(lambda: getattr(link, name)) == bits(
                    lambda: getattr(ch._link, name)), (p, name)
            for P in c * 10.0 ** rng.uniform(-3.0, 9.0, 3):
                try:
                    cod = solve_coded(CodedScenario(**p, P=P))
                    got = cod.case_tag, repr((cod.w, cod.rate, cod.residuals))
                except (InfeasibleScenarioError, SolverError) as e:
                    got = type(e), str(e)
                try:
                    mim = solve_mimo(ch, P, grid=GRID)
                    want = coded._CASES[mim.mode], repr((mim.w, mim.rate, mim.residuals))
                    modes.add(mim.mode)
                except (InfeasibleScenarioError, SolverError) as e:
                    want = type(e), str(e)
                assert got == want, (p, P)
    assert got[0] is SolverError
    assert modes == set(DecodeMode)


def test_solve_mimo_power_rendered_exactly():
    ch = channel(a_c=1.0)
    sol = solve_mimo(ch, 50.0, grid=GRID)
    assert trace_power(sol.psd) == pytest.approx(50.0, rel=1e-9)


def test_solve_mimo_zero_forcing_full_band():
    ch = channel(a_c=0.01, h_l=[1.0, 0.0])
    v = np.array([0.0, 1.0])
    sol = solve_mimo(replace(ch, shape=np.outer(v, v.conj())), 1e4, grid=GRID)
    assert sol.w == pytest.approx(1.0, abs=1e-6)
    assert sol.residuals["legacy"] > 0


def test_solve_mimo_rank_scaling_slopes():
    powers = np.geomspace(1e4, 1e8, 7)
    g = make_grid(64)
    full = [solve_mimo(channel(a_c=1.0), p, grid=g).rate for p in powers]
    slope_full = np.polyfit(np.log(powers), full, 1)[0]
    assert slope_full == pytest.approx(1.0, abs=0.05)
    rank1 = np.outer([1.0, 1.0], [1.0, 1.0]) / 2.0
    r1 = [solve_mimo(channel(H=rank1, a_c=1.0), p, grid=g).rate for p in powers]
    slope_r1 = np.polyfit(np.log(powers), r1, 1)[0]
    assert slope_r1 == pytest.approx(0.5, abs=0.05)
    assert slope_full / slope_r1 == pytest.approx(2.0, abs=0.06)


def test_solve_mimo_shape_independent_slope():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Q = A @ A.conj().T + 0.1 * np.eye(2)
    powers = np.geomspace(1e6, 1e12, 9)
    g = make_grid(64)
    iso = [solve_mimo(channel(a_c=1.0), p, grid=g).rate for p in powers]
    shaped = [solve_mimo(replace(channel(a_c=1.0), shape=Q), p, grid=g).rate for p in powers]
    s_iso = np.polyfit(np.log(powers), iso, 1)[0]
    s_shaped = np.polyfit(np.log(powers), shaped, 1)[0]
    assert s_shaped == pytest.approx(s_iso, rel=0.02)


def test_solve_mimo_rank_deficient_shape_slope():
    # a shape that reaches one of the two modes of H_c = I halves the slope,
    # as mimo_prelog says
    ch = replace(channel(a_c=1.0), shape=np.diag([1.0, 0.0]))
    powers = np.geomspace(1e8, 1e12, 9)
    g = make_grid(64)
    slope = np.polyfit(np.log(powers), [solve_mimo(ch, p, grid=g).rate for p in powers], 1)[0]
    assert slope == pytest.approx(mimo_prelog(ch), rel=0.01)


def test_solve_mimo_infeasible():
    with pytest.raises(InfeasibleScenarioError):
        solve_mimo(channel(legacy_load=1.2), 1.0, grid=GRID)


ONES = np.ones(2)


def test_solve_mimo_default_grid_is_4096_points():
    ch = channel(h_l=ONES, h_c=ONES)
    sol, ref = solve_mimo(ch, 100.0), solve_mimo(ch, 100.0, grid=make_grid(4096))
    assert sol.psd.grid.n_points == 4096
    assert sol.psd.k == ref.psd.k
    assert np.array_equal(sol.psd.level, ref.psd.level)


def test_solve_mimo_without_a_feasible_support():
    # a legacy load just below 1 passes the channel check (R_l below the
    # capacity), but the legacy constraint fails already at the smallest
    # support the search tries
    with pytest.raises(InfeasibleScenarioError, match="no feasible operating point"):
        solve_mimo(channel(h_l=ONES, h_c=ONES, legacy_load=1 - 1e-12), 100.0, grid=GRID)


def test_solve_mimo_on_level_past_the_float_range():
    ch = channel(H=1e-30 * np.eye(2), h_l=ONES, h_c=ONES)
    with pytest.raises(SolverError, match="the on-level P/w is not finite"):
        solve_mimo(ch, 1e308, grid=make_grid(64))


def test_psd_matrix_validation():
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    for level in (bad, -np.eye(2)):
        with pytest.raises(ValueError):
            SampledPsd(GRID, np.broadcast_to(level, (GRID.n_points, 2, 2)))
    with pytest.raises(ValueError):
        SampledPsd(GRID, np.zeros((3, 2, 2), dtype=complex))


def test_hermitian_preserved_through_construction():
    ch = channel(a_c=1.0)
    sol = solve_mimo(ch, 10.0, grid=GRID)
    assert not sol.psd.level.flags.writeable
    v = sol.psd.values
    assert np.abs(v - v.conj().transpose(0, 2, 1)).max() <= 1e-12 * max(1.0, np.abs(v).max())
    assert np.linalg.eigvalsh(v).min() >= -1e-12


def test_channel_validation():
    with pytest.raises(ValueError):
        MimoChannel(np.eye(2), [1.0], [1.0, 0.0], 1, 1, 1, 1, 1, 1, 1, R_l=1.0)
    with pytest.raises(ValueError):
        channel(g_c=-1.0)
    # a shape of the wrong size, one whose entries pass the float range once
    # divided by its trace, and one that is not Hermitian
    for shape, message in ((np.eye(3), "wrong dimensions"),
                           ([[1e-300, 1e10], [1e10, 1e-300]], "positive semidefinite"),
                           ([[1, 1], [0, 1]], "Hermitian")):
        with pytest.raises(ValueError, match=message):
            replace(channel(), shape=shape)


@pytest.mark.parametrize("n_r, n_t", [(1, 0), (0, 2)])
def test_channel_rejects_an_empty_h_c(n_r, n_t):
    # no transmit antenna leaves the shape no trace to normalize, and no
    # receive antenna leaves no cognitive link to solve
    with pytest.raises(ValueError, match="H_c must be a matrix with at least one row"):
        MimoChannel(np.zeros((n_r, n_t)), np.ones(n_t), np.ones(n_r), 1, 1, 1, 1, 1, 1, 1,
                    R_l=1.0)


@pytest.mark.parametrize("field", ["a_l", "g_l", "a_c", "g_c", "sigma2_s",
                                   "sigma2_nl", "sigma2_nc", "R_l"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_channel_rejects_non_finite_scalars(field, value):
    with pytest.raises(ValueError):
        replace(channel(), **{field: value})


@pytest.mark.parametrize("field", ["H_c", "h_l", "h_c"])
def test_channel_rejects_non_finite_arrays(field):
    bad = np.array(getattr(channel(), field))
    bad.flat[0] = math.nan
    with pytest.raises(ValueError):
        replace(channel(), **{field: bad})


def test_channel_rejects_arrays_whose_squares_overflow():
    # H_c and h_c are checked on size max|entry|^2, which bounds the squares
    # the link setup forms; h_l only feeds a gain, which may overflow to inf
    for field in ("H_c", "h_c"):
        for big in (1e300, 1e308, 1e308 + 1e308j):
            bad = np.array(getattr(channel(), field), dtype=complex)
            bad.flat[0] = big
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"{field} is too large"):
                    replace(channel(), **{field: bad})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # just inside the bound, the squares the geometry forms are floats
        # (the link's gains may pass it: test_link_gains_past_the_float_range)
        for field in ("H_c", "h_c"):
            good = np.array(getattr(channel(), field))
            good.flat[0] = 0.999 * math.sqrt(sys.float_info.max / good.size)
            ch = replace(channel(), **{field: good})
            geo = mimo._Geometry(ch.H_c, ch.h_l, ch.h_c, ch._Q)
            assert np.isfinite([*geo.lam, *geo.proj, geo.hc2]).all()
        sol = solve_mimo(replace(channel(), h_l=np.array([1e300, 0.5])), 1e4, grid=GRID)
    assert math.isfinite(sol.rate)


def test_link_gains_past_the_float_range():
    # inside the H_c bound, g_c = 10 takes the gain g_c * lam past the largest
    # float: the link forms its gains as Python-float products, so the gain
    # is +inf with no numpy warning, and every solve ends in a finite result
    # or a SolverError
    ch = channel(H=[[0.999 * math.sqrt(sys.float_info.max / 4), 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(mimo_prelog(ch))
        assert math.inf in ch._link.k_dec
        for P in POWERS9:
            try:
                sol = solve_mimo(ch, P, grid=GRID)
            except SolverError:
                continue
            assert math.isfinite(sol.rate)


@pytest.mark.parametrize("P", [math.nan, math.inf])
def test_solve_mimo_rejects_non_finite_budget(P):
    with pytest.raises(ValueError):
        solve_mimo(channel(), P, grid=GRID)


def test_non_finite_psd_and_shape_rejected():
    field = np.broadcast_to(np.eye(2), (GRID.n_points, 2, 2)).astype(complex)
    field[3, 0, 0] = math.nan
    with pytest.raises(ValueError):
        SampledPsd(GRID, field)
    with pytest.raises(ValueError):
        replace(channel(), shape=[[1.0, 0.0], [0.0, math.inf]])


@pytest.mark.parametrize("P", [1.0, 100.0])
def test_indefinite_shape_rejected(P):
    # a negative eigenvalue would put a negative on-level on the legacy link;
    # the channel rejects it before any budget reaches a solve
    with pytest.raises(ValueError, match="positive semidefinite"):
        solve_mimo(replace(channel(h_l=[0.0, 1.0]), shape=[[1.0, 0.0], [0.0, -0.5]]), P,
                   grid=GRID)


def line(root):
    """The constraint root - w with its derivative in w."""
    return lambda w: (root - w, -1.0)


@pytest.mark.parametrize("constraints, expected", [
    ([line(0.3)], [0.3]),
    # feasible on the whole band
    ([line(1.0)], [1.0]),
    ([line(0.5), lambda w: (math.log(0.25 / w), -1.0 / w)], [0.5, 0.25]),
    ([lambda w: (-1.0, 0.0)], [None]),
    # a root at 3e-9, within the first 1/512 of the band
    ([line(3e-9)], [3e-9]),
    ([line(0.70002), lambda w: (1.0, 0.0), line(0.7)], [0.70002, 1.0, 0.7]),
])
def test_feasible_intervals(constraints, expected):
    # A constraint nonincreasing in w is feasible on [_W_LO, root]: the root
    # is found to 1e-14, 1.0 when c(1) >= 0, None when c(_W_LO) < 0, and
    # comes back with its constraint value.
    for c, e in zip(constraints, expected):
        got = _widest_feasible(c)
        if e is None:
            assert got is None
        else:
            w, value = got
            assert w == pytest.approx(e, rel=0, abs=1e-14)
            assert value == c(w)[0]


def test_widest_feasible_ends():
    w, value = _widest_feasible(line(1.0))
    assert w == 1.0 and value == line(1.0)(w)[0]
    w, value = _widest_feasible(line(_W_LO))
    assert w == _W_LO and value == line(_W_LO)(w)[0]
    assert _widest_feasible(line(0.5 * _W_LO)) is None


def recorded(c):
    """c, and the list of the points it is evaluated at."""
    points = []

    def rec(w):
        points.append(w)
        return c(w)
    return rec, points


def test_low_end_is_not_read_when_newton_steps_stay_inside():
    # every step of line(0.3) is a Newton step into the bracket, and the
    # feasible one proves c(_W_LO) >= 0, as c never rises
    c, points = recorded(line(0.3))
    assert _widest_feasible(c) == (0.3, 0.0)
    assert _W_LO not in points


@pytest.mark.parametrize("c", [line(0.5 * _W_LO), lambda w: (-1.0, 0.0)])
def test_low_end_is_read_before_an_infeasible_end(c):
    c, points = recorded(c)
    assert _widest_feasible(c) is None
    assert _W_LO in points


@pytest.mark.parametrize("c", [
    lambda w: (math.nan, -1.0),
    lambda w: (-1.0 if w == 1.0 else math.nan, -1.0),
    # NaN at the first Newton point, w = 0.5
    lambda w: (math.nan if 0.1 < w < 1.0 else 0.5 - w, -1.0),
])
def test_widest_feasible_raises_on_nan(c):
    with pytest.raises(SolverError, match="is NaN"):
        _widest_feasible(c)


def test_widest_feasible_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(mimo, "_MAX_STEPS", 2)
    with pytest.raises(SolverError, match="did not converge in 2 steps"):
        _widest_feasible(lambda w: (math.log(0.25 / w), -1.0 / w))


def direct_onoff(ch, P, w):
    """Legacy rate, legacy decode rate and per-mode cognitive rate of the
    isotropic on-off strategy at support fractions w, from direct log-dets and
    direct quadratic forms (no eigenmode decomposition)."""
    Q = np.eye(ch.n_t) / ch.n_t
    HQH = ch.H_c @ Q @ ch.H_c.conj().T
    eye = np.eye(ch.n_r)
    hco = np.outer(ch.h_c, ch.h_c.conj())
    level = ch.g_c * (P / w)[:, None, None]
    q_l = float((ch.h_l.conj() @ Q @ ch.h_l).real)
    legacy = (w * np.log1p(ch.a_l * ch.sigma2_s / (ch.g_l * (P / w) * q_l + ch.sigma2_nl))
              + (1.0 - w) * ch.legacy_capacity)
    cov = ch.sigma2_nc * eye + level * HQH
    x = np.linalg.solve(cov, np.broadcast_to(ch.h_c, (w.size, ch.n_r))[..., None])[..., 0]
    q_c = (x @ ch.h_c.conj()).real
    quiet = math.log1p(ch.a_c * ch.sigma2_s * float(np.vdot(ch.h_c, ch.h_c).real)
                       / ch.sigma2_nc)
    decode = w * np.log1p(ch.a_c * ch.sigma2_s * q_c) + (1.0 - w) * quiet

    def logdet(m):
        sign, ld = np.linalg.slogdet(m)
        assert np.all(sign.real > 0)
        return ld

    noise = ch.sigma2_nc * eye + ch.a_c * ch.sigma2_s * hco
    rates = {
        DecodeMode.TREAT_AS_NOISE: w * (logdet(noise + level * HQH) - logdet(noise)),
        DecodeMode.SUCCESSIVE_B1: w * logdet(eye + level * HQH / ch.sigma2_nc),
        DecodeMode.RATE_SPLIT_B2: (w * logdet(eye + (level * HQH + ch.a_c * ch.sigma2_s * hco)
                                              / ch.sigma2_nc)
                                   + (1.0 - w) * quiet - ch.R_l),
    }
    return legacy, decode, quiet, rates


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3)], ids=["2x2", "3x2", "2x3"])
def test_solve_mimo_beats_dense_w_oracle(shape):
    rng = np.random.default_rng(11)
    n_r, n_t = shape
    w = np.linspace(1e-9, 1.0, 20001)
    modes = set()
    for a_c in (1e-3, 1.0):  # legacy undecodable / decodable in silence
        H = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h_l = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
        h_c = rng.normal(size=n_r) + 1j * rng.normal(size=n_r)
        ch = channel(H=H, h_l=h_l, h_c=h_c, a_c=a_c)
        for P in (10.0, 1e3, 1e5):
            legacy, decode, quiet, rates = direct_onoff(ch, P, w)
            legal = legacy >= ch.R_l - 1e-12
            if quiet <= ch.R_l:
                allowed = {DecodeMode.TREAT_AS_NOISE: legal}
            else:
                allowed = {DecodeMode.SUCCESSIVE_B1: legal & (decode >= ch.R_l - 1e-12),
                           DecodeMode.RATE_SPLIT_B2: legal & (decode <= ch.R_l + 1e-12)}
            best = max(float(np.max(np.where(ok, rates[m], -np.inf)))
                       for m, ok in allowed.items())
            sol = solve_mimo(ch, P, grid=GRID)
            assert sol.mode in allowed
            assert sol.rate >= best - 1e-6 * abs(best)
            if sol.w < 1.0:  # a support narrower than the band sits on a constraint
                assert min(map(abs, sol.residuals.values())) <= 1e-12 * max(1.0, ch.R_l)
            # the reported rate and residuals are those of the returned w
            legacy, decode, _, rates = direct_onoff(ch, P, np.array([sol.w]))
            assert sol.rate == pytest.approx(rates[sol.mode][0], rel=1e-9)
            assert sol.residuals["legacy"] == pytest.approx(legacy[0] - ch.R_l, abs=1e-9)
            if sol.mode is not DecodeMode.TREAT_AS_NOISE:
                assert sol.residuals["decodability"] == pytest.approx(
                    decode[0] - ch.R_l, abs=1e-9)
            modes.add(sol.mode)
    assert DecodeMode.TREAT_AS_NOISE in modes and len(modes) >= 2


def test_rate_split_rate_matches_direct_logdet():
    # B-2 reads mode A's whitened gains and the quiet decode rate; the direct
    # log-det of its own matrix at the returned w must agree. Complex Gaussian
    # H_c is full rank; a_c and P are drawn where rate splitting often wins.
    rng = np.random.default_rng(25)
    shapes = []
    for _ in range(120):
        n_r, n_t = (int(n) for n in rng.integers(1, 5, size=2))
        H = rng.normal(size=(n_r, n_t)) + 1j * rng.normal(size=(n_r, n_t))
        h_l = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
        h_c = rng.normal(size=n_r) + 1j * rng.normal(size=n_r)
        ch = channel(H=H, h_l=h_l, h_c=h_c, a_c=10.0 ** rng.uniform(-1.5, 0.0),
                     legacy_load=rng.uniform(0.2, 0.8))
        P = 10.0 ** rng.uniform(1.0, 5.0)
        sol = solve_mimo(ch, P, grid=GRID)
        if sol.mode is not DecodeMode.RATE_SPLIT_B2:
            continue
        shapes.append((n_r, n_t))
        direct = direct_onoff(ch, P, np.array([sol.w]))[3][DecodeMode.RATE_SPLIT_B2][0]
        assert sol.rate == pytest.approx(direct, rel=1e-9), (n_r, n_t, P)
    assert len(shapes) >= 20
    assert {n_r for n_r, _ in shapes} == {1, 2, 3, 4}
    assert {n_t for _, n_t in shapes} == {1, 2, 3, 4}


def test_onoff_rates_nondecreasing_in_w():
    # The on-off search takes each mode's widest feasible support; that rests
    # on every mode's rate, at a fixed power, never falling as w grows, and on
    # the legacy and decode rates never rising.
    rng = np.random.default_rng(23)
    w = np.linspace(1e-9, 1.0, 20001)
    for n_r in (1, 2, 3):
        for n_t in (1, 2, 3):
            H = rng.normal(size=(n_r, n_t)) + 1j * rng.normal(size=(n_r, n_t))
            h_l = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
            h_c = rng.normal(size=n_r) + 1j * rng.normal(size=n_r)
            ch = channel(H=H, h_l=h_l, h_c=h_c, a_c=10.0 ** rng.uniform(-3, 0),
                         legacy_load=rng.uniform(0.1, 0.9))
            for P in 10.0 ** rng.uniform([-2, 1, 5], [1, 5, 8]):
                # Once the on-level nears 1/eps, the direct log-dets lose the
                # noise eigenvalues of a rank-deficient H_c Q H_c^H.
                legacy, decode, _, rates = direct_onoff(ch, P, w[ch.g_c * P / w <= 1e12])
                for mode, r in rates.items():
                    if mode is DecodeMode.RATE_SPLIT_B2:
                        r = r + ch.R_l  # positive, for a relative slack
                    assert np.all(np.diff(r) >= -1e-12 * np.abs(r[1:])), (n_r, n_t, P, mode)
                # and each constraint has one root: the legacy and decode
                # rates never rise with w
                for name, r in (("legacy", legacy), ("decode", decode)):
                    assert np.all(np.diff(r) <= 1e-12 * np.abs(r[1:])), (n_r, n_t, P, name)


def test_null_mode_at_huge_budget():
    # rank(H_c) = 1: the on-level of the null eigenmode is 0 at every w, also
    # where P/w overflows, and the search must not meet it as inf * 0
    ch = channel(H=[[1.0, 0.0], [0.0, 0.0]], h_l=[1.0, 0.0], h_c=[1.0, 0.1])
    ref = solve_mimo(ch, 1e290, grid=GRID)
    sol = solve_mimo(ch, 1e300, grid=GRID)
    assert (sol.mode, sol.w) == (ref.mode, ref.w) == (DecodeMode.SUCCESSIVE_B1, 0.5)
    assert math.isfinite(sol.rate) and sol.rate > ref.rate
    assert all(map(math.isfinite, sol.residuals.values()))
    assert abs(sol.residuals["legacy"]) <= 1e-12 * max(1.0, ch.R_l)


def test_overflowing_on_level_raises_solver_error():
    # at w = 0.5 the on-level P/w overflows; a zero of the shape would meet it
    # as inf * 0 = NaN, so the solve ends as a non-finite result
    ch = channel(H=[[1.0, 0.0], [0.0, 0.0]], h_l=[1.0, 0.0], h_c=[1.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="not finite"):
            solve_mimo(ch, 1.7e308, grid=GRID)


@pytest.mark.parametrize("P", [5e307, np.float64(5e307)], ids=["float", "float64"])
def test_overflowing_rate_raises_solver_error(P):
    # at w = 0.5 the on-level P/w is finite, but the B-1 mode gain
    # g_c P/w = 1e309 overflows, so the rate is inf; a float64 P must not warn
    ch = channel(H=[[1.0, 0.0], [0.0, 0.0]], h_l=[1.0, 0.0], h_c=[1.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="rate is not finite"):
            solve_mimo(ch, P, grid=make_grid(64))
        with pytest.raises(SolverError, match="rate is not finite"):
            solve_coded(CodedScenario(ch.a_l, ch.g_l, ch.a_c, ch.g_c, ch.sigma2_s,
                                      ch.sigma2_nl, ch.sigma2_nc, ch.R_l, P=P))


@pytest.mark.parametrize("P", [5e307, 8e307])
def test_on_level_near_the_float_limit_is_checked(P):
    # the on-level P/w is at least 1e308, past half the largest float: the
    # per-sample check of the field must form its Hermitian part without
    # adding two such entries
    ch = scalar_channel(a_c=0.01, g_c=1.0)
    g = make_grid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_mimo(ch, P, grid=g)
    assert sol.mode is DecodeMode.TREAT_AS_NOISE
    assert math.isfinite(sol.rate)
    field = sol.psd.values[:, 0, 0]
    frac = float(g.weights[field != 0].sum()) / np.pi
    assert field[0] == P / frac >= 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = SampledPsd(g, sol.psd.values)
    assert checked.values.tobytes() == sol.psd.values.tobytes()


def test_whitening_with_a_tiny_noise_stays_finite():
    # mode A whitens by I + a_c sigma2_s h_c h_c^H / sigma2_nc; here the
    # scalar a_c sigma2_s / sigma2_nc = 1e310 overflows, and inf times a zero
    # entry of h_c h_c^H is NaN, while every entry of the matrix stays small
    ch = MimoChannel(H_c=np.eye(2), h_l=[1.0, 0.0], h_c=[1e-155, 0.0], a_l=1.0, g_l=1.0,
                     a_c=1.0, g_c=1e-300, sigma2_s=1000.0, sigma2_nl=1.0, sigma2_nc=1e-307,
                     R_l=0.5 * math.log(1001.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_mimo(ch, 1e3, grid=make_grid(64))
    assert (sol.mode, sol.w) == (DecodeMode.TREAT_AS_NOISE, 0.5610545096983439)
    assert math.isfinite(sol.rate)


def test_hermitian_part_of_huge_entries():
    field = np.broadcast_to(np.array([[1.7e308, 1e308 + 1e308j], [1e308 - 1e308j, 1.7e308]]),
                            (GRID.n_points, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(SampledPsd(GRID, field).values, field)


def per_sample_psd(ch, P, grid, shape=None):
    """The on-off field of solve_mimo, built in full and checked sample by
    sample by the oracle."""
    ch = replace(ch, shape=shape)
    _, w, _, _ = ch._link.search(ch._budget(P))
    mask = np.cumsum(grid.weights) <= w * np.pi
    if not mask.any():
        mask[0] = True
    frac = float(grid.weights[mask].sum()) / np.pi
    field = np.zeros((grid.n_points, ch.n_t, ch.n_t), dtype=complex)
    field[mask] = (P / frac) * ch._Q
    return SampledPsd(grid, field)


def outcome(build):
    """The field's bytes, or the type and message of the ValueError raised."""
    try:
        return build().values.tobytes()
    except ValueError as e:
        return type(e), str(e)


def random_draw(rng, complex_only=False):
    n_r, n_t = rng.integers(1, 5, size=2)
    cplx = rng.random() < 0.5 or complex_only

    def normal(*size):
        z = rng.normal(size=size)
        return z + 1j * rng.normal(size=size) if cplx else z

    rank = min(n_r, n_t)
    if rank > 1 and rng.random() < 0.3:
        rank = int(rng.integers(1, rank))
    H = normal(n_r, rank) @ normal(rank, n_t)
    a_c = float(rng.choice([1e-3, 0.1, 1.0, 10.0]))
    ch = channel(H=H, h_l=normal(n_t), h_c=normal(n_r), a_c=a_c,
                 legacy_load=rng.uniform(0.2, 0.8))
    shape = None
    if rng.random() < 0.5:
        G = normal(n_t, int(rng.integers(1, n_t + 1)))
        shape = G @ G.conj().T
    return ch, shape


def test_solve_mimo_field_matches_per_sample_check():
    rng = np.random.default_rng(2008)
    grids = {n: make_grid(n) for n in (16, 64, 512, 4096)}
    fields = 0
    for i in range(48):
        ch, shape = random_draw(rng)
        P = 10.0 ** rng.uniform(-3, 9)
        grid = grids[(16, 64, 512, 4096)[i % 4]]
        got = outcome(lambda: solve_mimo(replace(ch, shape=shape), P, grid=grid).psd)
        assert got == outcome(lambda: per_sample_psd(ch, P, grid, shape)), (i, P)
        fields += isinstance(got, bytes)
    assert fields >= 40


def test_residuals_are_never_negative():
    # The legacy link never fails, nor does B-1's decoding of the legacy
    # signal: 300 seeded draws, 1-4 antennas a side, complex H_c.
    rng = np.random.default_rng(17)
    grid = make_grid(16)
    modes = set()
    for i in range(300):
        ch, shape = random_draw(rng, complex_only=True)
        P = 10.0 ** rng.uniform(-3, 12)
        sol = solve_mimo(replace(ch, shape=shape), P, grid=grid)
        modes.add(sol.mode)
        assert sol.residuals["legacy"] >= 0.0, (i, P, sol.residuals)
        if sol.mode is DecodeMode.SUCCESSIVE_B1:
            assert sol.residuals["decodability"] >= 0.0, (i, P, sol.residuals)
    assert modes == set(DecodeMode)


def test_on_off_rate_meets_its_high_power_asymptote():
    # R(P) = n_r w_inf ln P + L_inf + o(1) in the mode the oracle predicts, and
    # the relative gap falls by about 100x per 100x of P: 48 seeded draws with
    # n_r <= n_t <= 4 (so that the on-level reaches all n_r modes), complex
    # H_c, and three in four with a full-rank shape. Draws within 1e-3 of
    # off = C_l, where B-1 and B-2 all but tie, are skipped.
    rng = np.random.default_rng(7)
    grid = make_grid(16)
    modes, kept = set(), 0
    while kept < 48:
        n_t = int(rng.integers(1, 5))
        n_r = int(rng.integers(1, n_t + 1))

        def normal(*size):
            return rng.normal(size=size) + 1j * rng.normal(size=size)

        ch = channel(H=normal(n_r, n_t), h_l=normal(n_t), h_c=normal(n_r),
                     a_c=float(rng.choice([1e-3, 0.1, 1.0, 10.0])),
                     legacy_load=rng.uniform(0.2, 0.8))
        if rng.random() < 0.75:
            G = normal(n_t, n_t)
            ch = replace(ch, shape=G @ G.conj().T)
        off = math.log1p(ch.a_c * ch.sigma2_s * float(np.vdot(ch.h_c, ch.h_c).real)
                         / ch.sigma2_nc)
        if math.isclose(off, ch.legacy_capacity, rel_tol=1e-3):
            continue
        kept += 1
        mode, w_inf, offset = onoff_asymptote(ch)
        modes.add(mode)
        gaps = []
        for P in (1e8, 1e10, 1e12):
            sol = solve_mimo(ch, P, grid=grid)
            assert sol.mode is mode, (kept, P)
            gaps.append(abs(sol.rate - (w_inf * n_r * math.log(P) + offset)) / sol.rate)
        assert gaps[0] >= 50 * gaps[1] and gaps[1] >= 50 * gaps[2], (kept, gaps)
    assert modes == set(DecodeMode)


# The on-off problem does not change under a unitary change of basis at
# either array, nor under one power unit c on sigma2_s, both noises and P:
# rates depend on power ratios, and the search on the eigenstructure alone.
# The legacy receiver sees h_l^T x (its interference is h_l^T Phi conj(h_l)),
# so sending x = V x' gives the link (U H_c V, V^T h_l, U h_c) and the shape
# V^H Q V; V^H h_l gives the same link only for an isotropic shape or a real V.

def unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def invariance_twins():
    """(mode, w, rate) of 48 seeded draws, each followed by those of its
    rotated and its rescaled twin."""
    rng = np.random.default_rng(606)
    grid = make_grid(16)
    out = []
    for _ in range(48):
        ch, shape = random_draw(rng)
        P = 10.0 ** rng.uniform(-3, 9)
        U, V = unitary(rng, ch.n_r), unitary(rng, ch.n_t)
        c = 10.0 ** rng.uniform(-3, 3)
        rotated = replace(ch, H_c=U @ ch.H_c @ V, h_l=V.T @ ch.h_l, h_c=U @ ch.h_c)
        rescaled = replace(ch, sigma2_s=c * ch.sigma2_s, sigma2_nl=c * ch.sigma2_nl,
                           sigma2_nc=c * ch.sigma2_nc)
        sols = [solve_mimo(replace(ch, shape=shape), P, grid=grid),
                solve_mimo(replace(rotated, shape=None if shape is None
                                   else V.conj().T @ shape @ V), P, grid=grid),
                solve_mimo(replace(rescaled, shape=shape), c * P, grid=grid)]
        out.append([(sol.mode, sol.w, sol.rate) for sol in sols])
    return out


def test_on_off_mode_and_w_are_invariant(invariance_twins):
    for i, (base, *twins) in enumerate(invariance_twins):
        for mode, w, _ in twins:
            assert mode is base[0], i
            assert w == pytest.approx(base[1], rel=1e-12, abs=0), i
    assert {base[0] for base, *_ in invariance_twins} == set(DecodeMode)


def test_on_off_rate_is_invariant(invariance_twins):
    for i, (base, *twins) in enumerate(invariance_twins):
        for _, _, rate in twins:
            assert rate == pytest.approx(base[2], rel=1e-12, abs=0), i


@pytest.mark.parametrize("P", [1e-3, 1.0, 1e3])
def test_shape_check_has_one_outcome_at_every_power(P):
    # the unit-trace Q of diag([0.5, -0.9e-12]) has the eigenvalue -1.8e-12,
    # below its floor -1e-12 max|Q|: the channel rejects the shape at every
    # scale, before any budget reaches a solve. Within the floor, the field
    # passes the per-sample check at every power, at the scale P/w.
    ch = channel()
    for c in (1e-290, 1.0, 1e290):
        with pytest.raises(ValueError, match="positive semidefinite"):
            _shape_matrix(ch, c * np.diag([0.5, -0.9e-12]))
    shape = np.diag([0.5, -0.4e-12])
    got = outcome(lambda: solve_mimo(replace(ch, shape=shape), P, grid=GRID).psd)
    assert isinstance(got, bytes)
    assert got == outcome(lambda: per_sample_psd(ch, P, GRID, shape))


def test_borderline_shape_is_rejected_when_the_channel_is_built():
    # the unit-trace Q has max|Q| = 0.5 and the eigenvalue -0.9e-12, below its
    # floor -0.5e-12; a channel built on it solved at P = 0.1 and 1 and failed
    # its field check from P = 10 on
    with pytest.raises(ValueError, match="positive semidefinite"):
        MimoChannel(np.eye(3), np.ones(3), np.ones(3), a_l=1, g_l=0.1, a_c=1, g_c=1,
                    sigma2_s=1, sigma2_nl=1, sigma2_nc=1, R_l=0.3,
                    shape=np.diag([0.5, 0.5, -0.9e-12]))


def tolerance_shape(rng, n, t, rotate):
    """A seeded, exactly Hermitian n x n shape whose unit-trace Q has the
    least eigenvalue t * 1e-12 max|Q|, to within about 1e-3 of that floor:
    diagonal, or in a random unitary basis, with three shifts along the least
    eigenvector."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    U = np.linalg.qr(z)[0] if rotate else np.eye(n)
    S = (U * rng.uniform(0.1, 1.0, size=n)) @ U.conj().T
    for _ in range(3):
        tr = np.trace(S).real
        e, V = np.linalg.eigh(S / tr)
        S = S + (t * 1e-12 * np.abs(S / tr).max() - e[0]) * tr * np.outer(V[:, 0], V[:, 0].conj())
        S = 0.5 * S + 0.5 * S.conj().T
    return S * 10.0 ** rng.uniform(-100, 100)


def test_every_field_passes_the_public_check():
    # Seeded shapes whose Q has its least eigenvalue at +1 or -1 times the
    # tolerance 1e-12 max|Q|, the negative ones 1% inside or outside it, at
    # P from 1e-300 to 5e307. The channel rejects every shape outside the
    # floor when it is built; every field of the others passes the per-sample
    # check SampledPsd(grid, values), which stores the same values bit for
    # bit, bar subnormal entries, where its Hermitian part 0.5 x + 0.5 x
    # rounds: the +-1e-12 entry of three diagonal shapes at P = 1e-300.
    # (Within about 1e-3 of the floor, rounding can flip either verdict; see
    # `_shape_matrix`.)
    rng = np.random.default_rng(20)
    grid = make_grid(64)
    powers = 10.0 ** np.linspace(-300, math.log10(5e307), 16)
    fields, rounded = 0, []
    for i in range(60):
        t = (1.0, -0.99, -1.01)[i % 3]
        n = int(rng.integers(2, 5))
        ch = channel(H=rng.normal(size=(int(rng.integers(1, 5)), n)), a_c=[1e-3, 1.0][i % 2])
        S = tolerance_shape(rng, n, t, rotate=i % 4 != 0)
        if t < -1.0:
            with pytest.raises(ValueError, match="positive semidefinite"):
                replace(ch, shape=S)
            continue
        ch = replace(ch, shape=S)
        for P in powers:
            try:
                sol = solve_mimo(ch, P, grid=grid)
            except SolverError:  # the on-level or the rate overflows
                continue
            fields += 1
            checked = SampledPsd(grid, sol.psd.values)
            a, b = (x.values.view(float) for x in (checked, sol.psd))
            moved = a != b
            assert (np.abs(b[moved]) < np.finfo(float).tiny).all(), (i, P)
            assert (np.abs(a[moved] - b[moved]) <= 5e-324).all(), (i, P)
            if moved.any():
                rounded.append((i, P))
    assert fields >= 500
    assert rounded == [(0, 1e-300), (28, 1e-300), (52, 1e-300)]


def test_solve_mimo_eigvalsh_budget(monkeypatch):
    # one matrix, the shape when the channel is built; the solve's field is a
    # multiple of it and is not checked again, where a per-sample field check
    # decomposes all 4096 samples; the isotropic shape needs no check, and the
    # link takes singular values of F = H_c Q^(1/2) and of its whitened form
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        matrices.append(a.size // a.shape[-1] ** 2)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(4096)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for a_c in (1e-3, 1.0):  # treat-as-noise / successive or rate-split
        matrices.clear()
        sol = solve_mimo(replace(channel(H=rng.normal(size=(3, 3)), a_c=a_c),
                                 shape=G @ G.conj().T), 1e3, grid=make_grid(4096))
        assert sol.psd.values.shape == (4096, 3, 3)
        assert matrices == [1], matrices


# The on-off field is kept as its prefix length and its level; the dense
# field is written on its first read, with the bytes it always had.

def sub_cell_channel():
    # w is 1.0e-3 at P = 1e4, below the first cell of a 64-point grid
    return MimoChannel(H_c=np.eye(2), h_l=np.ones(2) / math.sqrt(2), h_c=[1.0, 0.0],
                       a_l=1.0, g_l=1.0, a_c=0.003, g_c=10.0, sigma2_s=1000.0,
                       sigma2_nl=1.0, sigma2_nc=1.0, R_l=0.999 * math.log(1001.0))


def test_on_off_field_is_compact_until_read():
    rng = np.random.default_rng(18)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    shapes = {"eye2": np.eye(2), "rank1": np.outer([1.0, 1.0], [1.0, 1.0]) / 2.0,
              "real4x4": rng.normal(size=(4, 4)), "complex3x3": G}
    cases = [(channel(H=H, a_c=a_c), None) for H in shapes.values()
             for a_c in (0.003, 1.0)]
    cases += [(cases[-1][0], G @ G.conj().T), (sub_cell_channel(), None)]
    grids = [make_grid(64), make_grid(4096)]
    modes = set()
    for grid in grids:
        for ch, shape in cases:
            for P in (1e4, *10.0 ** rng.uniform(-2, 9, 2)):
                sol = solve_mimo(replace(ch, shape=shape), P, grid=grid)
                modes.add(sol.mode)
                assert "values" not in vars(sol.psd)
                assert sol.psd.n_t == ch.n_t
                v = sol.psd.values
                assert v is sol.psd.values and not v.flags.writeable
                assert v.shape == (grid.n_points, ch.n_t, ch.n_t)
                assert v.tobytes() == per_sample_psd(ch, P, grid, shape).values.tobytes()
    assert modes == set(DecodeMode)
    sol = solve_mimo(sub_cell_channel(), 1e4, grid=grids[0])
    assert sol.w < grids[0].weights[0] / np.pi


def test_cli_solve_leaves_the_field_compact(tmp_path, monkeypatch):
    solved = []

    def kept(*args, **kwargs):
        solved.append(solve_mimo(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(mimo, "solve_mimo", kept)
    scenario = Path(__file__).resolve().parents[1] / "scripts" / "scenarios" / "mimo_single.json"
    assert cli.main(["solve", str(scenario), "-o", str(tmp_path / "out.json"), "--quiet"]) == 0
    assert len(solved) == 1 and "values" not in vars(solved[0].psd)


def test_racing_readers_share_one_field():
    # eight threads on two cores read `values` of a fresh field at once;
    # each must get the one array the field keeps
    ch, grid = channel(), make_grid(4096)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            psd = solve_mimo(ch, 10.0, grid=grid).psd
            start, seen = threading.Barrier(8), []

            def read():
                start.wait(timeout=10)
                seen.append(psd.values)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8 and all(v is vars(psd)["values"] for v in seen)
    finally:
        sys.setswitchinterval(interval)


# The link caches: consecutive searches on one channel reuse the
# power-independent setup the channel keeps, consecutive coded solves on one
# link reuse the coded cache's, and nothing else may change.

POWERS9 = tuple(np.geomspace(1.0, 1e8, 9))


def fingerprint(sol):
    if isinstance(sol, MimoSolution):
        return sol.mode, sol.w, sol.rate, sol.residuals, sol.psd.values.tobytes()
    return sol.case_tag, sol.w, sol.phi0, sol.rate, sol.residuals


def cold(solve, *args, **kwargs):
    # empty the coded caches and drop the link the channel keeps
    coded._setup.cache_clear()
    coded._unit_geometry.cache_clear()
    vars(args[0]).pop("_link", None)
    return fingerprint(solve(*args, **kwargs))


def test_link_sweeps_match_cold_solves():
    rng = np.random.default_rng(15)
    H = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    link_a = channel(H=H, a_c=1.0)                     # successive / rate-split
    link_b = channel(H=np.eye(2), a_c=0.003)           # treat-as-noise
    steps = ([(link_a, P) for P in POWERS9] + [(link_b, P) for P in POWERS9]
             + [(link_a, P) for P in POWERS9])
    warm = [fingerprint(solve_mimo(ch, P, grid=GRID)) for ch, P in steps]
    assert warm == [cold(solve_mimo, ch, P, grid=GRID) for ch, P in steps]
    assert {m for m, *_ in warm} == set(DecodeMode)

    scs = [CodedScenario(a_l=1.0, g_l=1.0, a_c=a_c, g_c=10.0, sigma2_s=1000.0,
                         sigma2_nl=1.0, sigma2_nc=1.0, R_l=0.5 * math.log(1001.0), P=P)
           for a_c in (0.003, 1.0, 0.003) for P in POWERS9]
    warm = [fingerprint(solve_coded(sc)) for sc in scs]
    assert warm == [cold(solve_coded, sc) for sc in scs]


def test_link_alternating_shapes_match_cold_solves():
    # an isotropic channel and its shaped twin, solved in turn: each keeps
    # its own link
    rng = np.random.default_rng(16)
    iso = channel(H=rng.normal(size=(3, 3)), a_c=1.0)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    shaped = replace(iso, shape=G @ G.conj().T)
    steps = [(ch, P) for P in POWERS9 for ch in (iso, shaped)]
    warm = [fingerprint(solve_mimo(ch, P, grid=GRID)) for ch, P in steps]
    assert warm == [cold(solve_mimo, ch, P, grid=GRID) for ch, P in steps]
    assert all(a != b for a, b in zip(warm[::2], warm[1::2]))


def test_link_scalar_types_match_cold_solves():
    # the twins hold the same values as other types, and each must solve as
    # it would with no link kept; an int product would be exact where a float
    # one rounds, but the channel stores its scalars as floats, so every twin
    # solves as the float one does
    a_l, s2s, s2nl = 687, 3901345800446953, 6903573505426311872512
    ch = channel(H=[[1.0, 0.5], [0.0, 2.0]], a_l=float(a_l), sigma2_s=float(s2s),
                 sigma2_nl=float(s2nl))
    assert (ch.a_l, ch.sigma2_s, ch.sigma2_nl) == (a_l, s2s, s2nl)
    numpy_twin = replace(ch, **{f: np.float64(getattr(ch, f)) for f in (
        "a_l", "g_l", "a_c", "g_c", "sigma2_s", "sigma2_nl", "sigma2_nc", "R_l")})
    int_twin = replace(ch, a_l=a_l, sigma2_s=s2s, sigma2_nl=s2nl)
    steps = [(c, P * s2nl) for P in (0.1, 1.0, 10.0) for c in (ch, numpy_twin, int_twin)]
    warm = [fingerprint(solve_mimo(c, P, grid=GRID)) for c, P in steps]
    assert warm == [cold(solve_mimo, c, P, grid=GRID) for c, P in steps]
    assert warm[-1][2] == warm[-3][2]
    assert warm[::3] == warm[1::3] == warm[2::3]


def test_failed_link_setup_leaves_nothing_behind(monkeypatch):
    ch = channel(a_c=0.003)
    expected = cold(solve_mimo, ch, 1e4, grid=GRID)
    for name in ("eigh", "cholesky"):  # the eager setup, then the lazy mode-A part
        vars(ch).pop("_link", None)
        with monkeypatch.context() as m:
            def broken(*args, **kwargs):
                raise np.linalg.LinAlgError("broken")
            m.setattr(np.linalg, name, broken)
            with pytest.raises(np.linalg.LinAlgError):
                solve_mimo(ch, 1e4, grid=GRID)
        if name == "eigh":
            assert "_link" not in vars(ch)
        assert fingerprint(solve_mimo(ch, 1e4, grid=GRID)) == expected


def test_failed_coded_setup_caches_nothing(monkeypatch):
    # a failure in the unit geometry's first build, or in the scalar half
    # built on it, leaves nothing in the geometry's cache or the coded slot
    sc = CodedScenario(a_l=1.0, g_l=1.0, a_c=1.0, g_c=10.0, sigma2_s=1000.0, sigma2_nl=1.0,
                       sigma2_nc=1.0, R_l=0.5 * math.log(1001.0), P=1e4)
    expected = cold(solve_coded, sc)
    link_init = mimo._Link.__init__

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("broken")

    def broken_late(self, *args):
        link_init(self, *args)
        broken()

    for owner, name, failure in ((np.linalg, "eigh", broken), (mimo._Link, "__init__", broken_late)):
        coded._setup.cache_clear()
        if owner is np.linalg:
            coded._unit_geometry.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(owner, name, failure)
            with pytest.raises(np.linalg.LinAlgError):
                solve_coded(sc)
        assert coded._setup.cache_info().currsize == 0
        assert coded._unit_geometry.cache_info().currsize == (owner is mimo._Link)
        assert fingerprint(solve_coded(sc)) == expected


def test_link_setup_runs_once_per_sweep(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    ch = channel(H=np.eye(2), a_c=1.0)
    for P in POWERS9:
        solve_mimo(ch, P, grid=GRID)
    assert len(calls) == 1
    solve_mimo(replace(ch, g_c=ch.g_c * 2.0), 1e3, grid=GRID)
    assert len(calls) == 2


def constraint_evaluations(solve):
    """How many times solve() evaluates the legacy or the decode constraint
    of the on-off search."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (event == "call" and code.co_name in ("legacy_con", "decode_con")
                and frame.f_globals["__name__"] == "specshape.mimo"):
            count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        solve()
    finally:
        sys.setprofile(old)
    return count


def test_on_off_search_evaluation_budget():
    # each constraint is evaluated only where its value is still unknown:
    # over the coded study link, in cases A and B, and the four channel
    # shapes of the coded-mimo benchmark workload, 9 powers each, a solve
    # takes at most 6.6 evaluations on average
    link = dict(a_l=1.0, g_l=1.0, g_c=10.0, sigma2_s=1000.0, sigma2_nl=1.0,
                sigma2_nc=1.0, R_l=0.5 * math.log1p(1000.0))
    # by hand: at P = 1e-3 the legacy constraint holds at w = 1 (one
    # evaluation) and the legacy signal is decodable there (one more), so
    # B-1 runs at w = 1
    sc = CodedScenario(**link, a_c=1.0, P=1e-3)
    assert constraint_evaluations(lambda: solve_coded(sc)) == 2
    sol = solve_coded(sc)
    assert (sol.case_tag, sol.w) == (coded.CodedCase.B1, 1.0)
    rng = np.random.default_rng(2008)
    shapes = [np.eye(2), np.outer([1.0, 1.0], [1.0, 1.0]) / 2.0, rng.normal(size=(4, 4)),
              rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
    counts = []
    for a_c in (0.01, 1.0):
        counts += [constraint_evaluations(lambda: solve_coded(CodedScenario(**link, a_c=a_c, P=P)))
                   for P in POWERS9]
    for H in shapes:
        ch = channel(H=H)
        counts += [constraint_evaluations(lambda: solve_mimo(ch, P, grid=GRID))
                   for P in POWERS9]
    assert sum(counts) <= 6.6 * len(counts)


def test_shape_is_checked_once_per_channel(monkeypatch):
    # n_r = 2 and n_t = 3: the shape is checked when the channel is built,
    # and no solve of a sweep checks its on-level again; the link decomposes
    # no n_r x n_r matrix with eigvalsh
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(28)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ch = channel(H=rng.normal(size=(2, 3)), a_c=1.0, shape=G @ G.conj().T)
    assert sizes == [3]
    for P in POWERS9:
        solve_mimo(ch, P, grid=GRID)
    assert sizes == [3]


def test_complex_channel_inputs_stay_writable():
    H = np.eye(2, dtype=complex)
    h_l, h_c = np.ones(2, dtype=complex), np.array([1.0, 0.0], dtype=complex)
    S = np.eye(2, dtype=complex)
    ch = channel(H=H, h_l=h_l, h_c=h_c, shape=S)
    assert all(a.flags.writeable for a in (H, h_l, h_c, S))
    assert not any(a.flags.writeable for a in (ch.H_c, ch.shape, ch._Q))


def test_writes_through_a_view_base_leave_the_channel_unchanged():
    # the channel copies its arrays, the shape among them, so neither it nor
    # the link it keeps follows a write through the base of a view it was
    # built from
    base = np.eye(2, dtype=complex)
    ch = channel(H=base[:, :])
    before = fingerprint(solve_mimo(ch, 1e4, grid=GRID))
    base[1, 1] = 0.0
    assert fingerprint(solve_mimo(ch, 1e4, grid=GRID)) == before
    assert cold(solve_mimo, ch, 1e4, grid=GRID) == before
    assert cold(solve_mimo, channel(H=base), 1e4, grid=GRID) != before

    # a copy made by replace normalizes the stored shape again, so it too
    # must not have followed the write
    S = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    shaped = channel(shape=S[:, :])
    before = fingerprint(solve_mimo(shaped, 1e4, grid=GRID))
    S[0, 1] = S[1, 0] = 0.0
    assert fingerprint(solve_mimo(shaped, 1e4, grid=GRID)) == before
    assert cold(solve_mimo, shaped, 1e4, grid=GRID) == before
    assert cold(solve_mimo, replace(shaped), 1e4, grid=GRID) == before
    assert cold(solve_mimo, channel(shape=S), 1e4, grid=GRID) != before


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the field renders sample 0 at power P when w is below "
                   "its cell, so it breaks the legacy constraint it reports met")
def test_sub_cell_support_renders_a_feasible_field():
    grid = make_grid(64)
    ch = sub_cell_channel()
    sol = solve_mimo(ch, 1e4, grid=grid)
    # w is 1.0e-3, the first cell 1/126 of the band; the field's legacy rate
    # is 0.048 short of R_l and its own rate 0.238, against a reported 0.034
    assert sol.w < grid.weights[0] / np.pi
    assert sol.residuals["legacy"] == pytest.approx(0.0, abs=1e-12)
    assert legacy_rate_mimo(sol.psd, ch) >= ch.R_l - 1e-9
