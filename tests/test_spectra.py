import numpy as np
import pytest
from hypothesis_or_skip import given, st

from specshape.spectra import (
    FrequencyGrid,
    Spectrum,
    ar1_spectrum,
    flat_spectrum,
    make_grid,
    mean_power,
    tabulated_spectrum,
)


def test_weights_sum_to_pi_small():
    g = make_grid(16)
    assert abs(g.weights.sum() - np.pi) <= 1e-12 * np.pi


def test_constant_integral_is_exact():
    g = make_grid(4096)
    assert abs(g.integrate(np.ones(g.n_points)) - np.pi) <= 1e-12 * np.pi


def test_cosine_integral_vanishes():
    g = make_grid(4096)
    assert abs(g.integrate(np.cos(g.omegas))) <= 1e-8


def test_cos_polynomials_within_1e6():
    g = make_grid(4096)
    # degree <= 2 in cos(w): 1, cos, cos^2 with analytic values pi, 0, pi/2
    for f, exact in [(np.ones(g.n_points), np.pi),
                     (np.cos(g.omegas), 0.0),
                     (np.cos(g.omegas) ** 2, np.pi / 2)]:
        assert abs(g.integrate(f) - exact) <= 1e-6


def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        make_grid(15)


@given(st.integers(min_value=16, max_value=5000))
def test_weights_sum_property(n):
    g = make_grid(n)
    assert abs(g.weights.sum() - np.pi) <= 1e-12 * np.pi
    assert np.all(np.diff(g.omegas) > 0)
    assert g.omegas[0] == 0.0 and abs(g.omegas[-1] - np.pi) < 1e-15


def test_flat_spectrum_mean_power():
    g = make_grid(64)
    assert mean_power(flat_spectrum(g, 1.0)) == pytest.approx(1.0, rel=1e-12)
    assert np.all(flat_spectrum(g, 0.0).values == 0.0)
    assert np.all(flat_spectrum(g, 1000.0).values == 1000.0)
    with pytest.raises(ValueError):
        flat_spectrum(g, -1.0)


def test_ar1_epsilon_one_is_flat_exactly():
    g = make_grid(128)
    ar = ar1_spectrum(g, 1.7, 1.0)
    assert np.array_equal(ar.values, flat_spectrum(g, 1.7).values)


def test_ar1_peak_value_at_zero():
    g = make_grid(4096)
    ar = ar1_spectrum(g, 1.0, 0.1)
    expected = 0.1 / (1.9 - 2.0 * np.sqrt(0.9))  # = 37.9736...
    assert ar.values[0] == pytest.approx(expected, rel=1e-12)
    assert ar.values[0] == pytest.approx(37.97366, rel=1e-5)


def test_ar1_mean_power_normalization():
    g = make_grid(4096)
    assert mean_power(ar1_spectrum(g, 1.0, 0.1)) == pytest.approx(1.0, abs=1e-3)


def test_ar1_mean_power_error_shrinks_with_refinement():
    errs = []
    for n in (256, 1024, 4096):
        g = make_grid(n)
        errs.append(abs(mean_power(ar1_spectrum(g, 1.0, 0.1)) - 1.0))
    assert errs[0] >= errs[1] >= errs[2]


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.1, max_value=10.0))
def test_ar1_positive_and_monotone_extremes(eps, var):
    g = make_grid(256)
    v = ar1_spectrum(g, var, eps).values
    assert np.all(v > 0)
    assert v[0] == v.max()
    assert v[-1] == v.min()


def test_ar1_epsilon_out_of_range():
    g = make_grid(16)
    for eps in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            ar1_spectrum(g, 1.0, eps)


def test_mean_power_onoff():
    g = make_grid(4096)
    cum = np.cumsum(g.weights)
    mask = cum <= 0.25 * np.pi
    w = float(np.dot(g.weights, mask)) / np.pi
    assert mean_power(Spectrum(g, np.where(mask, 8.0, 0.0))) == pytest.approx(w * 8.0, rel=1e-12)
    assert 0.24 < w < 0.26


def test_spectrum_rejects_bad_values():
    g = make_grid(16)
    with pytest.raises(ValueError):
        flat_spectrum(g, np.nan)
    with pytest.raises(ValueError):
        Spectrum(g, -np.ones(g.n_points))
    with pytest.raises(ValueError):
        Spectrum(g, np.ones(g.n_points - 1))
    # an int past the largest float is rejected as an infinite sample is
    huge = 10 ** 400
    for build in (lambda: flat_spectrum(g, huge), lambda: ar1_spectrum(g, huge, 0.5),
                  lambda: tabulated_spectrum(g, [huge, 1])):
        with pytest.raises(ValueError, match="finite"):
            build()


def test_tabulated_resamples_linearly():
    g = make_grid(33)
    src = np.linspace(0, np.pi, 17)
    tab = tabulated_spectrum(g, 1.0 + src)
    assert tab.values == pytest.approx(1.0 + g.omegas, rel=1e-12)


def test_values_are_immutable():
    g = make_grid(16)
    s = flat_spectrum(g, 1.0)
    with pytest.raises(ValueError):
        s.values[0] = 2.0
    with pytest.raises(ValueError):
        g.weights[0] = 0.0
