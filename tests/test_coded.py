import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis_or_skip import given, settings, st

from oracles import brent_widest, decode_rate_at_cognitive, legacy_rate, onoff_asymptote
from specshape import coded, mimo
from specshape.coded import CodedCase, CodedScenario, coded_prelog, solve_coded
from specshape.errors import InfeasibleScenarioError
from specshape.mimo import MimoChannel, solve_mimo
from specshape.spectra import make_grid


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
    assert solve_coded(sc).case_tag is CodedCase.A


def test_classify_case_b_parameters():
    sc = study_scenario(a_c=1.0)
    assert math.log(1001.0) > sc.R_l
    assert solve_coded(sc).case_tag in (CodedCase.B1, CodedCase.B2)


def test_classify_tiny_legacy_rate_is_b():
    sc = study_scenario(a_c=0.01, legacy_load=1e-4)
    assert solve_coded(sc).case_tag in (CodedCase.B1, CodedCase.B2)


def test_infeasible_scenario_rejected():
    sc = study_scenario(a_c=0.01, legacy_load=1.5)
    assert not sc.is_feasible
    with pytest.raises(InfeasibleScenarioError, match="exceeds the legacy channel capacity"):
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

    optimize = pytest.importorskip("scipy.optimize")
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
    if solve_coded(sc).case_tag is CodedCase.A:
        return

    def m(w):
        return float(decode_rate_at_cognitive(sc, w)) - sc.R_l

    if m(1e-9) * m(1.0) > 0:
        return
    optimize = pytest.importorskip("scipy.optimize")
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


def test_huge_budget_over_a_vanishing_legacy_rate_is_finite():
    # The optimum is the whole band, reached without an overflow warning.
    sc = study_scenario(a_c=1.0, P=1e300, legacy_load=1e-300)
    sol = solve_coded(sc)
    assert sol.case_tag is CodedCase.B1
    assert sol.w == 1.0
    assert sol.rate == math.log1p(sc.g_c * sc.P / sc.sigma2_nc) == 693.0781129912077


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


def assert_narrow_support_is_active(sol, sc):
    # the search widens w until a constraint binds or w = 1
    if sol.w < 1.0:
        assert min(map(abs, sol.residuals.values())) <= 1e-12 * max(1.0, sc.R_l)


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
    assert_narrow_support_is_active(sol, sc)


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
    assert_narrow_support_is_active(sol, sc)


def test_solves_are_invariant_in_the_power_unit():
    # one unit c on sigma2_s, both noises and P leaves every power ratio, and
    # with them the case, w and the rate, where they were
    for a_c in (0.003, 0.01, 1.0, 1e6):
        for load in (0.1, 0.5, 0.9):
            for P in np.geomspace(1e-6, 1e12, 7):
                sc = study_scenario(a_c=a_c, P=P, legacy_load=load)
                base = solve_coded(sc)
                for c in (1e-3, 0.37, 3.1, 1e4):
                    sol = solve_coded(replace(sc, sigma2_s=c * sc.sigma2_s,
                                              sigma2_nl=c * sc.sigma2_nl,
                                              sigma2_nc=c * sc.sigma2_nc, P=c * P))
                    assert sol.case_tag is base.case_tag, (a_c, load, P, c)
                    assert sol.w == pytest.approx(base.w, rel=1e-12, abs=0), (a_c, load, P, c)
                    assert sol.rate == pytest.approx(base.rate, rel=1e-12, abs=0), (a_c, load, P, c)


def test_scenario_validation():
    with pytest.raises(ValueError):
        study_scenario(g_c=-1.0)
    with pytest.raises(ValueError):
        CodedScenario(1, 1, 1, 1, 1, 1, 1, R_l=-0.5, P=1)


@pytest.mark.parametrize("field", ["a_l", "g_l", "a_c", "g_c", "sigma2_s",
                                   "sigma2_nl", "sigma2_nc", "R_l", "P"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        replace(study_scenario(), **{field: value})


def random_coded_draws(count=3000, seed=5):
    """Gains e^U(-3, 3), sigma2_s = e^U(0, 8), noises e^U(-2, 2),
    R_l = C_l * U(0.05, 0.95) and P = e^U(-3, 25)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a_l, g_l, a_c, g_c = map(float, np.exp(rng.uniform(-3, 3, 4)))
        s2s = float(np.exp(rng.uniform(0, 8)))
        nl, nc = map(float, np.exp(rng.uniform(-2, 2, 2)))
        R_l = math.log1p(a_l * s2s / nl) * float(rng.uniform(0.05, 0.95))
        yield CodedScenario(a_l, g_l, a_c, g_c, s2s, nl, nc, R_l, float(np.exp(rng.uniform(-3, 25))))


def test_legacy_residual_is_never_negative():
    # The root-find returns the feasible end of its bracket, so the legacy
    # link it reports never fails, and neither does B-1's decoding of it.
    negative = []
    for sc in random_coded_draws():
        sol = solve_coded(sc)
        binding = ["legacy", "decodability"] if sol.case_tag is CodedCase.B1 else ["legacy"]
        negative += [(sc, key, sol.residuals[key]) for key in binding
                     if sol.residuals[key] < 0]
    assert not negative, (len(negative), negative[:3])


def test_search_matches_independent_numerics():
    # The residuals are the paper's constraints at the returned w, and w is
    # SciPy's root of them to 4 ulps. Where the constraint evaluates to 0
    # over more than 4 ulps, every point there is a root as evaluated and
    # the two root-finders may stop at different ones: the oracle must then
    # read exactly 0 at w. That may excuse at most 5% of the draws.
    far = []
    for sc in random_coded_draws():
        sol = solve_coded(sc)

        def legacy(w):
            return float(legacy_rate(sc, w)) - sc.R_l

        def decode(w):
            return float(decode_rate_at_cognitive(sc, w)) - sc.R_l

        assert sol.residuals["legacy"] == pytest.approx(legacy(sol.w), rel=0, abs=1e-13 * sc.R_l)
        if "decodability" in sol.residuals:
            assert sol.residuals["decodability"] == pytest.approx(
                decode(sol.w), rel=0, abs=1e-13 * sc.R_l)
        roots = {legacy: brent_widest(legacy)}
        if sol.case_tag is CodedCase.B1:
            roots[decode] = brent_widest(decode)
        c, root = min(roots.items(), key=lambda item: item[1])
        if abs(sol.w - root) > 4 * math.ulp(sol.w):
            assert c(sol.w) == 0.0, (sc, sol.w, root)
            far.append(sc)
    assert len(far) <= 150


def test_coded_rate_meets_its_high_power_asymptote():
    # R(P) = w_inf ln P + L_inf + o(1) in the mode the oracle predicts, and the
    # relative gap falls by about 100x per 100x of P, since w tends to w_inf as
    # 1/P. Draws within 1e-3 of off = C_l are skipped: there B-1's support cap
    # 1 - R_l/off meets w_inf and the two modes all but tie. The study link at
    # a_c = 1 sits on the tie, where both modes have one line, so only that
    # line is checked.
    def tie(sc):
        return math.isclose(math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc),
                            sc.legacy_capacity, rel_tol=1e-3)

    draws = (sc for sc in random_coded_draws(seed=17) if not tie(sc))
    modes = set()
    for sc in [*(study_scenario(a_c=a_c) for a_c in (0.01, 1.0, 30.0)),
               *itertools.islice(draws, 45)]:
        mode, w_inf, offset = onoff_asymptote(sc)
        gaps = []
        for P in (1e8, 1e10, 1e12):
            sol = solve_coded(replace(sc, P=P))
            if not tie(sc):
                assert sol.case_tag is coded._CASES[mode], (sc, P)
                modes.add(mode)
            gaps.append(abs(sol.rate - (w_inf * math.log(P) + offset)) / sol.rate)
        assert gaps[0] >= 50 * gaps[1] and gaps[1] >= 50 * gaps[2], (sc, gaps)
    assert modes == set(coded._CASES)


# solve_coded keeps its last 1x1 link in an lru_cache keyed by the link
# scalars, which the scenario stores as floats, apart from the link each MIMO
# channel keeps: a hit builds no link, and every sequence solves as it would
# with both empty.

POWERS5 = tuple(np.geomspace(1.0, 1e8, 5))
GRID64 = make_grid(64)


def outcome(step):
    try:
        if isinstance(step, CodedScenario):
            sol = solve_coded(step)
            return sol.case_tag, sol.w, sol.phi0, sol.rate, sol.residuals
        ch, P = step
        sol = solve_mimo(ch, P, grid=GRID64)
        return sol.mode, sol.w, sol.rate, sol.residuals, sol.psd.values.tobytes()
    except InfeasibleScenarioError as e:
        return type(e), str(e)


def assert_matches_cold_solves(steps):
    warm = [outcome(s) for s in steps]
    cold = []
    for s in steps:
        coded._setup.cache_clear()
        coded._unit_geometry.cache_clear()
        if not isinstance(s, CodedScenario):
            vars(s[0]).pop("_link", None)
        cold.append(outcome(s))
    assert warm == cold
    return warm


def test_slot_hit_builds_no_channel(monkeypatch):
    # a coded link is the scenario's scalars on the one unit geometry: a sweep
    # builds no channel at all, and a slot hit builds no link
    built = {"channel": 0, "link": 0}
    post_init, link_init = MimoChannel.__post_init__, mimo._Link.__init__

    def counted_channel(self):
        built["channel"] += 1
        post_init(self)

    def counted_link(self, *args):
        built["link"] += 1
        link_init(self, *args)

    coded._setup.cache_clear()
    monkeypatch.setattr(MimoChannel, "__post_init__", counted_channel)
    monkeypatch.setattr(mimo._Link, "__init__", counted_link)
    for P in POWERS5:
        solve_coded(study_scenario(a_c=1.0, P=P))
    assert built == {"channel": 0, "link": 1}
    solve_coded(study_scenario(a_c=1.0, legacy_load=0.4))
    assert built == {"channel": 0, "link": 2}


def test_int_and_float_twins_match_cold_solves():
    # an int product would be exact where a float one rounds, but the
    # scenario stores its scalars as floats, so the int twin solves as the
    # float twin does
    a_l, s2s, s2nl = 687, 3901345800446953, 6903573505426311872512
    sc = study_scenario(a_c=1.0, a_l=float(a_l), sigma2_s=float(s2s), sigma2_nl=float(s2nl))
    assert (sc.a_l, sc.sigma2_s, sc.sigma2_nl) == (a_l, s2s, s2nl)
    int_twin = replace(sc, a_l=a_l, sigma2_s=s2s, sigma2_nl=s2nl)
    steps = [replace(s, P=P * s2nl) for P in (0.1, 1.0, 10.0) for s in (sc, int_twin)]
    warm = assert_matches_cold_solves(steps)
    assert warm[-1][3] == warm[-2][3]
    assert warm[1::2] == warm[::2]


def test_zero_d_float_and_int_twins_match_cold_solves():
    # 0-d arrays and ints are stored as the float twin's floats, so the three
    # twins share one link and solve alike
    sc = study_scenario(a_c=1.0)
    fields = ("a_l", "g_l", "a_c", "g_c", "sigma2_s", "sigma2_nl", "sigma2_nc", "R_l")
    zero_d = replace(sc, **{f: np.array(getattr(sc, f)) for f in fields})
    int_twin = replace(sc, a_l=1, g_l=1, a_c=1, g_c=10, sigma2_s=1000, sigma2_nl=1, sigma2_nc=1)
    steps = [replace(s, P=P) for P in (100.0, *POWERS5) for s in (sc, zero_d, int_twin)]
    warm = assert_matches_cold_solves(steps)
    assert warm[0][3] == warm[1][3] == 4.0802586021225276
    assert warm[::3] == warm[1::3] == warm[2::3]


def test_legacy_rates_feasibility_and_mimo_solves_match_cold_solves():
    sc = study_scenario(a_c=1.0)
    other_rate = replace(sc, R_l=0.6 * sc.legacy_capacity)
    overloaded = replace(sc, R_l=1.2 * sc.legacy_capacity)
    # the 1x1 channel of sc: the same link scalars, in the channel's own link
    ch = MimoChannel(H_c=[[1.0]], h_l=[1.0], h_c=[1.0], a_l=sc.a_l, g_l=sc.g_l, a_c=sc.a_c,
                     g_c=sc.g_c, sigma2_s=sc.sigma2_s, sigma2_nl=sc.sigma2_nl,
                     sigma2_nc=sc.sigma2_nc, R_l=sc.R_l)
    steps = [s for P in POWERS5 for s in (replace(sc, P=P), replace(other_rate, P=P))]
    steps += [replace(sc, P=1e3), replace(overloaded, P=1e3), replace(sc, P=1e4)]
    steps += [s for P in POWERS5 for s in (replace(sc, P=P), (ch, P))]
    warm = assert_matches_cold_solves(steps)
    assert warm[1] != warm[0] and warm[11][0] is InfeasibleScenarioError
