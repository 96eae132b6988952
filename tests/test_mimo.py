import math

import numpy as np
import pytest

from specshape.coded import CodedScenario, solve_coded, coded_prelog
from specshape.errors import InfeasibleScenarioError
from specshape.mimo import (
    DecodeMode,
    MimoChannel,
    PsdMatrix,
    cognitive_rate_mimo,
    decode_rate_mimo,
    legacy_rate_mimo,
    mimo_prelog,
    solve_mimo,
    trace_power,
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
    return PsdMatrix(grid, field.astype(complex))


def onoff_identity_psd(grid, level, n_t, frac):
    cum = np.cumsum(grid.weights)
    mask = cum <= frac * np.pi
    field = np.zeros((grid.n_points, n_t, n_t), dtype=complex)
    field[mask] = level * np.eye(n_t)
    return PsdMatrix(grid, field), float(grid.weights[mask].sum()) / np.pi


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
    assert trace_power(PsdMatrix(GRID, field)) == pytest.approx(7.0, rel=1e-12)


def test_legacy_rate_quiet_is_capacity():
    ch = channel()
    psd = flat_identity_psd(GRID, 0.0, 2)
    assert legacy_rate_mimo(psd, ch) == pytest.approx(ch.legacy_capacity, rel=1e-12)


def test_legacy_rate_zero_forcing():
    ch = channel(h_l=[1.0, 0.0])
    v = np.array([0.0, 1.0])  # orthogonal to h_l
    field = np.broadcast_to(1e9 * np.outer(v, v.conj()), (GRID.n_points, 2, 2)).copy()
    psd = PsdMatrix(GRID, field)
    assert legacy_rate_mimo(psd, ch) == pytest.approx(ch.legacy_capacity, rel=1e-12)


def test_legacy_rate_scalar_reduction():
    ch = scalar_channel()
    sc = CodedScenario(ch.a_l, ch.g_l, ch.a_c, ch.g_c, ch.sigma2_s,
                       ch.sigma2_nl, ch.sigma2_nc, ch.R_l, P=10.0)
    psd, w = onoff_identity_psd(GRID, 40.0, 1, 0.3)
    from specshape.coded import legacy_rate as scalar_legacy
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


def test_solve_mimo_scalar_matches_coded():
    for a_c, P in ((0.01, 100.0), (1.0, 100.0), (1.0, 1e6)):
        ch = scalar_channel(a_c=a_c)
        sc = CodedScenario(ch.a_l, ch.g_l, ch.a_c, ch.g_c, ch.sigma2_s,
                           ch.sigma2_nl, ch.sigma2_nc, ch.R_l, P=P)
        mim = solve_mimo(ch, P, grid=GRID)
        cod = solve_coded(sc)
        assert mim.rate == pytest.approx(cod.rate, rel=1e-9)
        assert mim.w == pytest.approx(cod.w, rel=1e-6)


def test_solve_mimo_power_rendered_exactly():
    ch = channel(a_c=1.0)
    sol = solve_mimo(ch, 50.0, grid=GRID)
    assert trace_power(sol.psd) == pytest.approx(50.0, rel=1e-9)


def test_solve_mimo_zero_forcing_full_band():
    ch = channel(a_c=0.01, h_l=[1.0, 0.0])
    v = np.array([0.0, 1.0])
    sol = solve_mimo(ch, 1e4, grid=GRID, shape=np.outer(v, v.conj()))
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
    shaped = [solve_mimo(channel(a_c=1.0), p, grid=g, shape=Q).rate for p in powers]
    s_iso = np.polyfit(np.log(powers), iso, 1)[0]
    s_shaped = np.polyfit(np.log(powers), shaped, 1)[0]
    assert s_shaped == pytest.approx(s_iso, rel=0.02)


def test_solve_mimo_infeasible():
    with pytest.raises(InfeasibleScenarioError):
        solve_mimo(channel(legacy_load=1.2), 1.0, grid=GRID)


def test_psd_matrix_validation():
    bad = np.zeros((GRID.n_points, 2, 2), dtype=complex)
    bad[:, 0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        PsdMatrix(GRID, bad)
    neg = np.broadcast_to(-np.eye(2), (GRID.n_points, 2, 2)).astype(complex)
    with pytest.raises(ValueError):
        PsdMatrix(GRID, neg)
    with pytest.raises(ValueError):
        PsdMatrix(GRID, np.zeros((3, 2, 2), dtype=complex))


def test_hermitian_preserved_through_construction():
    ch = channel(a_c=1.0)
    sol = solve_mimo(ch, 10.0, grid=GRID)
    v = sol.psd.values
    assert np.abs(v - v.conj().transpose(0, 2, 1)).max() <= 1e-12 * max(1.0, np.abs(v).max())
    assert np.linalg.eigvalsh(v).min() >= -1e-12


def test_channel_validation():
    with pytest.raises(ValueError):
        MimoChannel(np.eye(2), [1.0], [1.0, 0.0], 1, 1, 1, 1, 1, 1, 1, R_l=1.0)
    with pytest.raises(ValueError):
        channel(g_c=-1.0)


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
            # the reported rate and residuals are those of the returned w
            legacy, decode, _, rates = direct_onoff(ch, P, np.array([sol.w]))
            assert sol.rate == pytest.approx(rates[sol.mode][0], rel=1e-9)
            assert sol.residuals["legacy"] == pytest.approx(legacy[0] - ch.R_l, abs=1e-9)
            if sol.mode is not DecodeMode.TREAT_AS_NOISE:
                assert sol.residuals["decodability"] == pytest.approx(
                    decode[0] - ch.R_l, abs=1e-9)
            modes.add(sol.mode)
    assert DecodeMode.TREAT_AS_NOISE in modes and len(modes) >= 2
