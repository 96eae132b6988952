import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from specshape.coded import (
    CodedCase,
    CodedScenario,
    classify,
    coded_prelog,
    decode_rate_at_cognitive,
    legacy_rate,
    solve_coded,
)
from specshape.errors import InfeasibleScenarioError


def study_scenario(a_c=0.01, P=100.0, legacy_load=0.5, **kw):
    # a_l = g_l = sigma2_nl = sigma2_nc = 0 dB, sigma2_s = 30 dB, g_c = 10 dB
    params = dict(a_l=1.0, g_l=1.0, a_c=a_c, g_c=10.0,
                  sigma2_s=1000.0, sigma2_nl=1.0, sigma2_nc=1.0)
    params.update(kw)
    R_l = legacy_load * math.log1p(params["a_l"] * params["sigma2_s"] / params["sigma2_nl"])
    return CodedScenario(R_l=R_l, P=P, **params)


def test_classify_case_a_parameters():
    sc = study_scenario(a_c=0.01)
    # log(11) = 2.398 < R_l = 3.454
    assert math.log(11.0) < sc.R_l
    assert classify(sc) == "A"


def test_classify_case_b_parameters():
    sc = study_scenario(a_c=1.0)
    assert math.log(1001.0) > sc.R_l
    assert classify(sc) == "B"


def test_classify_tiny_legacy_rate_is_b():
    sc = study_scenario(a_c=0.01, legacy_load=1e-4)
    assert classify(sc) == "B"


def test_infeasible_scenario_rejected():
    sc = study_scenario(a_c=0.01, legacy_load=1.5)
    assert not sc.is_feasible
    with pytest.raises(InfeasibleScenarioError):
        classify(sc)
    with pytest.raises(InfeasibleScenarioError):
        solve_coded(sc)


def test_case_a_small_power_full_band():
    sc = study_scenario(a_c=0.01, P=1e-6)
    sol = solve_coded(sc)
    assert sol.case_tag is CodedCase.A
    assert sol.w == pytest.approx(1.0, abs=1e-6)
    assert sol.residuals["legacy"] > 0  # constraint slack
    floor = sc.a_c * sc.sigma2_s + sc.sigma2_nc
    assert sol.rate == pytest.approx(math.log1p(sc.g_c * sc.P / floor), rel=1e-6)


def test_case_a_high_power_slope_is_half():
    powers = np.geomspace(1e4, 1e8, 9)
    sols = [solve_coded(study_scenario(a_c=0.01, P=p)) for p in powers]
    assert all(s.case_tag is CodedCase.A for s in sols)
    rates = [s.rate for s in sols]
    slope = np.polyfit(np.log(powers), rates, 1)[0]
    assert slope == pytest.approx(0.5, abs=0.025)


def test_case_a_nearly_loaded_legacy_kills_rate():
    sc = study_scenario(a_c=0.01, legacy_load=0.999, P=1e6)
    tight = solve_coded(sc)
    loose = solve_coded(study_scenario(a_c=0.01, legacy_load=0.5, P=1e6))
    assert tight.case_tag is CodedCase.A and loose.case_tag is CodedCase.A
    assert tight.rate < 0.2 * loose.rate
    assert tight.w < 0.05


def test_case_b1_small_power():
    sc = study_scenario(a_c=1.0, P=1e-6)
    sol = solve_coded(sc)
    assert sol.case_tag is CodedCase.B1
    assert sol.w == pytest.approx(1.0, abs=1e-6)
    assert sol.rate == pytest.approx(math.log1p(sc.g_c * sc.P / sc.sigma2_nc), rel=1e-6)


def test_case_b1_decodability_slack_when_legacy_strong():
    sc = study_scenario(a_c=1e6, P=10.0)
    sol = solve_coded(sc)
    assert sol.case_tag is CodedCase.B1
    assert sol.residuals["decodability"] > 0


def test_b1_b2_objectives_agree_at_decodability_boundary():
    sc = study_scenario(a_c=1.0, P=1e4)

    def m(w):
        return float(decode_rate_at_cognitive(sc, w)) - sc.R_l

    w_star = optimize.brentq(m, 1e-9, 1.0, xtol=1e-15)
    b1_obj = w_star * math.log1p(sc.g_c * sc.P / (w_star * sc.sigma2_nc))
    off = math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc)
    b2_obj = (w_star * math.log1p((sc.a_c * sc.sigma2_s + sc.g_c * sc.P / w_star) / sc.sigma2_nc)
              + (1.0 - w_star) * off - sc.R_l)
    assert abs(b1_obj - b2_obj) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=0.1, max_value=0.9))
def test_b1_b2_boundary_continuity_property(a_c, P, load):
    sc = study_scenario(a_c=a_c, P=P, legacy_load=load)
    if classify(sc) != "B":
        return

    def m(w):
        return float(decode_rate_at_cognitive(sc, w)) - sc.R_l

    if m(1e-9) * m(1.0) > 0:
        return
    w_star = optimize.brentq(m, 1e-9, 1.0, xtol=1e-15)
    b1_obj = w_star * math.log1p(sc.g_c * sc.P / (w_star * sc.sigma2_nc))
    off = math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc)
    b2_obj = (w_star * math.log1p((sc.a_c * sc.sigma2_s + sc.g_c * sc.P / w_star) / sc.sigma2_nc)
              + (1.0 - w_star) * off - sc.R_l)
    assert abs(b1_obj - b2_obj) <= 1e-9 * max(1.0, abs(b1_obj))


def test_case_b_slope_is_half():
    powers = np.geomspace(1e4, 1e8, 9)
    rates = [solve_coded(study_scenario(a_c=1.0, P=p)).rate for p in powers]
    slope = np.polyfit(np.log(powers), rates, 1)[0]
    assert slope == pytest.approx(0.5, abs=0.025)


def test_solve_coded_tags():
    assert solve_coded(study_scenario(a_c=0.01, P=10.0)).case_tag is CodedCase.A
    small = solve_coded(study_scenario(a_c=1.0, P=1e-3))
    assert small.case_tag is CodedCase.B1  # decodability slack at small P
    big = solve_coded(study_scenario(a_c=1.0, P=1e6))
    assert big.case_tag in (CodedCase.B1, CodedCase.B2)


def test_legacy_constraint_active_at_high_power():
    for a_c in (0.01, 1.0):
        sol = solve_coded(study_scenario(a_c=a_c, P=1e5))
        assert abs(sol.residuals["legacy"]) <= 1e-6


def test_prelog_half_when_half_loaded():
    assert coded_prelog(study_scenario()) == pytest.approx(0.5, rel=1e-12)


def test_vanishing_legacy_rate_recovers_single_user_bound():
    sc = study_scenario(a_c=1.0, P=50.0, legacy_load=1e-9)
    sol = solve_coded(sc)
    assert sol.rate == pytest.approx(
        math.log1p(sc.g_c * sc.P / sc.sigma2_nc), rel=1e-6)
    assert sol.w == pytest.approx(1.0, abs=1e-6)


def test_prelog_limits():
    assert coded_prelog(study_scenario(legacy_load=1e-9)) == pytest.approx(1.0, abs=1e-8)
    assert coded_prelog(study_scenario(legacy_load=0.999999)) == pytest.approx(0.0, abs=1e-5)
    assert coded_prelog(study_scenario(legacy_load=2.0)) == 0.0


def test_prelog_ignores_cross_gains():
    base = study_scenario()
    assert coded_prelog(base) == coded_prelog(study_scenario(a_c=0.1))
    perturbed = study_scenario(g_c=100.0)
    assert coded_prelog(base) == coded_prelog(perturbed)
    g_l10 = study_scenario(g_l=10.0)
    assert coded_prelog(base) == coded_prelog(g_l10)


def quick_w_oracle(sc, objective, constraints, n=20001):
    w = np.linspace(1e-9, 1.0, n)
    feas = np.ones(n, dtype=bool)
    for c in constraints:
        feas &= np.asarray(c(w)) >= -1e-12
    vals = np.where(feas, objective(w), -np.inf)
    return float(vals.max())


def test_case_a_beats_w_grid_oracle():
    sc = study_scenario(a_c=0.01, P=10.0)
    floor = sc.a_c * sc.sigma2_s + sc.sigma2_nc
    best = quick_w_oracle(
        sc,
        lambda w: w * np.log1p(sc.g_c * sc.P / (w * floor)),
        [lambda w: legacy_rate(sc, w) - sc.R_l],
    )
    sol = solve_coded(sc)
    assert sol.case_tag is CodedCase.A
    assert sol.rate >= best - 1e-6 * abs(best)


@pytest.mark.parametrize("P", [100.0, 1e4])
def test_case_b_beats_w_grid_oracle(P):
    sc = study_scenario(a_c=1.0, P=P)
    b1 = quick_w_oracle(
        sc,
        lambda w: w * np.log1p(sc.g_c * sc.P / (w * sc.sigma2_nc)),
        [lambda w: legacy_rate(sc, w) - sc.R_l,
         lambda w: decode_rate_at_cognitive(sc, w) - sc.R_l],
    )
    off = math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc)
    b2 = quick_w_oracle(
        sc,
        lambda w: (w * np.log1p((sc.a_c * sc.sigma2_s + sc.g_c * sc.P / w) / sc.sigma2_nc)
                   + (1.0 - w) * off - sc.R_l),
        [lambda w: legacy_rate(sc, w) - sc.R_l,
         lambda w: sc.R_l - decode_rate_at_cognitive(sc, w)],
    )
    best = max(b1, b2)
    sol = solve_coded(sc)
    assert sol.case_tag in (CodedCase.B1, CodedCase.B2)
    assert sol.rate >= best - 1e-6 * abs(best)


def test_scenario_validation():
    with pytest.raises(ValueError):
        study_scenario(g_c=-1.0)
    with pytest.raises(ValueError):
        CodedScenario(1, 1, 1, 1, 1, 1, 1, R_l=-0.5, P=1)
