import numpy as np
import pytest
from hypothesis_or_skip import given, settings, st

from oracles import memoryless_mse, wk_floor, wk_mse
from specshape.estimation import UncodedScenario, memoryless_floor, memoryless_power_cap
from specshape.spectra import Spectrum, ar1_spectrum, flat_spectrum, make_grid


GRID = make_grid(2048)


def flat_scenario(a=1000.0, s2s=1.0, s2n=1.0, D=0.01, P=10.0, grid=GRID):
    return UncodedScenario(a, flat_spectrum(grid, s2s), flat_spectrum(grid, s2n), D, P)


def test_memoryless_mse_no_observation():
    assert memoryless_mse(1.0, 0.0, 1.0, 0.0) == 1.0


def test_memoryless_mse_hand_value():
    assert memoryless_mse(1.0, 1.0, 1.0, 4.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_memoryless_mse_matches_floor():
    assert memoryless_mse(1.0, 0.0, 1.0, 1000.0) == pytest.approx(1.0 / 1001.0, rel=1e-15)
    assert memoryless_floor(1.0, 1.0, 1000.0) == pytest.approx(1.0 / 1001.0, rel=1e-15)


def test_memoryless_floor_limit_without_signal_or_noise():
    # 1 / (1/sigma2_s + a/sigma2_n) tends to 0 as either variance does
    assert memoryless_floor(0.0, 1.0, 1000.0) == 0.0
    assert memoryless_floor(1.0, 0.0, 1000.0) == 0.0
    assert memoryless_floor(1.0, 1e-12, 1.0) == pytest.approx(1e-12, rel=1e-11)


def test_memoryless_mse_all_zero_denominator():
    with pytest.raises(ValueError):
        memoryless_mse(0.0, 0.0, 0.0, 1.0)


def test_power_cap_hand_value():
    sc = flat_scenario(P=1e6)
    # min(1e6, 1000*0.01/0.99 - 1) = 9.10101...
    assert memoryless_power_cap(sc) == pytest.approx(1000.0 * 0.01 / 0.99 - 1.0, rel=1e-14)
    assert memoryless_power_cap(sc) == pytest.approx(9.10101, rel=1e-5)


def test_power_cap_unconstrained_when_target_loose():
    sc = flat_scenario(D=1.5, P=123.0)
    assert memoryless_power_cap(sc) == 123.0


def test_power_cap_infeasible_below_floor():
    floor = memoryless_floor(1.0, 1.0, 1000.0)
    sc = flat_scenario(D=floor * 0.5)
    assert memoryless_power_cap(sc) is None


def test_power_cap_budget_binds_at_small_P():
    sc = flat_scenario(P=1.0)
    assert memoryless_power_cap(sc) == 1.0


def test_wk_mse_zero_input_is_floor():
    sc = flat_scenario()
    zero = flat_spectrum(GRID, 0.0)
    assert wk_mse(zero, sc) == pytest.approx(wk_floor(sc), rel=1e-14)


def test_wk_floor_flat_formula():
    sc = flat_scenario()
    assert wk_floor(sc) == pytest.approx(1.0 / 1001.0, rel=1e-12)
    assert wk_floor(sc) == pytest.approx(9.990e-4, rel=1e-3)


def test_wk_floor_vanishes_for_huge_gain():
    sc = flat_scenario(a=1e12)
    assert wk_floor(sc) < 1e-11


@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.01, max_value=2000.0))
def test_wk_mse_flat_reduces_to_memoryless(s2s, s2x, s2n, a):
    g = make_grid(64)
    sc = UncodedScenario(a, flat_spectrum(g, s2s), flat_spectrum(g, s2n), D=1.0, P=1.0)
    got = wk_mse(flat_spectrum(g, s2x), sc)
    assert got == pytest.approx(memoryless_mse(s2s, s2x, s2n, a), rel=1e-9)


def test_wk_mse_band_blast_limit():
    # phi_x -> infinity on a band: on-band integrand tends to phi_s, off-band
    # stays at the floor integrand.
    g = make_grid(4096)
    sc = UncodedScenario(100.0, ar1_spectrum(g, 1.0, 0.3), flat_spectrum(g, 1.0), 0.5, 1.0)
    cum = np.cumsum(g.weights)
    band = cum <= 0.3 * np.pi
    blast = Spectrum(g, np.where(band, 1e14, 0.0))
    s, n = sc.phi_s.values, sc.phi_n.values
    floor_int = s * n / (sc.a * s + n)
    expected = g.mean(np.where(band, s, floor_int))
    assert wk_mse(blast, sc) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_wk_mse_monotone_in_phi_x(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(128)
    sc = UncodedScenario(
        a=float(rng.uniform(0.1, 100.0)),
        phi_s=Spectrum(g, rng.uniform(0.0, 5.0, g.n_points)),
        phi_n=Spectrum(g, rng.uniform(0.01, 5.0, g.n_points)),
        D=1.0, P=1.0,
    )
    x1 = rng.uniform(0.0, 10.0, g.n_points)
    bump = np.zeros(g.n_points)
    bump[rng.integers(0, g.n_points)] = rng.uniform(0.1, 10.0)
    m1 = wk_mse(Spectrum(g, x1), sc)
    m2 = wk_mse(Spectrum(g, x1 + bump), sc)
    assert m2 >= m1 - 1e-15


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_wk_mse_bounds(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(128)
    sc = UncodedScenario(
        a=float(rng.uniform(0.1, 100.0)),
        phi_s=Spectrum(g, rng.uniform(0.0, 5.0, g.n_points)),
        phi_n=Spectrum(g, rng.uniform(0.01, 5.0, g.n_points)),
        D=1.0, P=1.0,
    )
    phi_x = Spectrum(g, rng.uniform(0.0, 20.0, g.n_points))
    m = wk_mse(phi_x, sc)
    assert wk_floor(sc) - 1e-12 <= m <= sc.sigma2_s + 1e-12


def test_correlation_lowers_the_floor():
    # AR(1) legacy at matched variance is easier to estimate than flat.
    g = make_grid(4096)
    flat = UncodedScenario(1000.0, flat_spectrum(g, 1.0), flat_spectrum(g, 1.0), 0.01, 1.0)
    ar = UncodedScenario(1000.0, ar1_spectrum(g, 1.0, 0.1), flat_spectrum(g, 1.0), 0.01, 1.0)
    assert wk_floor(ar) < wk_floor(flat)


def test_grid_mismatch_rejected():
    sc = flat_scenario()
    other = make_grid(64)
    with pytest.raises(ValueError):
        wk_mse(flat_spectrum(other, 1.0), sc)


def test_scenario_validation():
    with pytest.raises(ValueError):
        flat_scenario(a=0.0)
    with pytest.raises(ValueError):
        flat_scenario(D=-1.0)
    with pytest.raises(ValueError):
        flat_scenario(P=0.0)
    with pytest.raises(ValueError, match="share a grid"):
        UncodedScenario(1.0, flat_spectrum(GRID, 1.0), flat_spectrum(make_grid(64), 1.0), 0.5, 1.0)


def test_scenario_rejects_signal_times_noise_past_the_float_range():
    # a phi_s + phi_n and a phi_s^2 are floats, but phi_s * phi_n, which the
    # smoothing floor forms sample by sample, is not
    g = make_grid(64)
    with pytest.raises(ValueError, match="signal PSD times noise PSD"):
        UncodedScenario(1.0, flat_spectrum(g, 20.0), flat_spectrum(g, 1e307), 0.5, 1.0)


@pytest.mark.parametrize("field", ["a", "D", "P"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scenario_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        flat_scenario(**{field: value})
