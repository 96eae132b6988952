"""The benchmark's own numerics and output checks, without the solvers.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
from workloads import AnalyticCli, Item, ShapingSweep, _Uncoded


def test_trapezoid_weights_cover_the_half_band():
    w = ref.trapezoid_weights(513)
    assert w.sum() == pytest.approx(math.pi, rel=1e-15)
    assert w[0] == w[-1] == pytest.approx(w[1] / 2)


def test_exact_waterfill_meets_budget_with_one_level():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.5, 5.0, 257)
    phi, level = ref.exact_waterfill(base, 2.0)
    assert ref.band_mean(phi) == pytest.approx(2.0, rel=1e-12)
    on = phi > 0
    assert np.allclose(phi[on] + base[on], level, rtol=1e-12)
    assert np.all(base[~on] >= level)


def test_exact_waterfill_fills_every_cell_at_high_budget():
    base = np.linspace(1.0, 2.0, 65)
    phi, level = ref.exact_waterfill(base, 1e3)
    assert np.all(phi > 0)
    assert level == pytest.approx(1e3 + ref.band_mean(base), rel=1e-12)


def test_threshold_prelog_flat_closed_form():
    n, a, s2s, s2n, D = 4097, 1000.0, 1.0, 1.0, 0.01
    s, noise = np.full(n, s2s), np.full(n, s2n)
    floor = s2s * s2n / (a * s2s + s2n)
    u = a * s2s ** 2 / (a * s2s + s2n)
    assert ref.smoothing_floor(s, noise, a) == pytest.approx(floor, rel=1e-12)
    assert ref.threshold_prelog(s, noise, a, D) == pytest.approx((D - floor) / u, rel=1e-9)


def test_preemphasis_mass_inverts_support_measure():
    s = ref.ar1_values(1024, 1.0, 0.3)
    noise = np.full(1024, 1.0)
    for budget in (1e-4, 3e-3, 2e-2):
        frac = ref.support_measure_for_mass(s, noise, 1000.0, budget)
        assert ref.preemphasis_mass(s, noise, 1000.0, frac) == pytest.approx(budget, rel=1e-9)


def test_flat_onoff_rate_spends_power_and_meets_target():
    s2s, s2n, a, D, P = 1.0, 1.0, 1000.0, 0.01, 1e4
    B = a * s2s + s2n
    dlow = s2s * s2n / B
    phi0 = a * s2s ** 2 * P / ((D - dlow) * B) - B
    w = P / phi0
    mse = w * s2s * (phi0 + s2n) / (B + phi0) + (1 - w) * dlow
    assert mse == pytest.approx(D, rel=1e-12)
    assert ref.flat_onoff_rate(s2s, s2n, a, D, P) == pytest.approx(w * math.log1p(phi0 / B))
    with pytest.raises(ValueError):
        ref.flat_onoff_rate(s2s, s2n, a, 0.9, 1.0)   # water-filling regime


def test_interference_temperature_saturates_at_the_cap():
    n, a, D = 513, 1000.0, 0.01
    base = np.full(n, a + 1.0)
    cap = D / (1 - D) * a - 1.0
    for P in (1e2, 1e6):
        r = ref.interference_temperature_rate(base, 1.0, 1.0, a, D, P)
        assert r == pytest.approx(math.log1p(min(P, cap) / (a + 1.0)), rel=1e-12)
    assert ref.interference_temperature_rate(base, 1.0, 1.0, a, 1e-4, 1e2) == 0.0


def test_coded_dense_search_finds_feasible_optimum(monkeypatch):
    p = {"a_l": 1.0, "g_l": 1.0, "a_c": 0.003, "g_c": 10.0, "sigma2_s": 1000.0,
         "sigma2_nl": 1.0, "sigma2_nc": 1.0}
    p["R_l"] = 0.5 * math.log1p(1000.0)
    fine = ref.coded_dense_best(p, 1e4)
    monkeypatch.setattr(ref, "DENSE_POINTS", 1000)
    coarse = ref.coded_dense_best(p, 1e4)
    assert fine >= coarse - 1e-12
    assert ref.coded_prelog(p) == pytest.approx(0.5)
    assert ref.coded_legacy_rate(p, 1e4, 1.0) < p["R_l"] < ref.coded_legacy_rate(p, 1e4, 1e-6)


def test_rank_and_slope():
    assert ref.matrix_rank(np.outer([1.0, 1.0], [1.0, 1.0])) == 1
    assert ref.matrix_rank(np.eye(3)) == 3
    P = np.geomspace(1e6, 1e8, 3)
    assert ref.loglog_slope(P, 0.37 * np.log(P) + 2.0) == pytest.approx(0.37)


def _flat_case(n=512, a=1000.0, D=0.01):
    s = np.full(n, 1.0)
    return _Uncoded("flat", n, s, 1.0, a, D)


def _onoff(case, P, cells):
    phi = np.zeros(case.n)
    w = ref.trapezoid_weights(case.n)
    phi[:cells] = P * math.pi / w[:cells].sum()
    return phi


def test_psd_check_accepts_a_consistent_solution():
    case = _flat_case()
    phi = _onoff(case, 1e3, 40) * 0.999
    base = case.a * case.s + case.s2n
    sol = SimpleNamespace(case_tag=SimpleNamespace(value="BothConstraintsActive"),
                          phi_x=SimpleNamespace(values=phi), rate=ref.log_rate(phi, base) * 1.0001)
    case.D = ref.smoothing_mse(phi, case.s, np.full(case.n, 1.0), case.a) * 1.01
    assert ShapingSweep._check_psd("t", case, 1e3, sol) == []


def test_psd_check_flags_power_target_and_rate_faults():
    case = _flat_case()
    phi = _onoff(case, 1e3, 40)
    base = case.a * case.s + case.s2n
    rate = ref.log_rate(phi, base)
    case.D = ref.smoothing_mse(phi, case.s, np.full(case.n, 1.0), case.a)
    tag = SimpleNamespace(value="BothConstraintsActive")

    def problems(values, reported, P=1e3, D=case.D):
        case.D = D
        sol = SimpleNamespace(case_tag=tag, phi_x=SimpleNamespace(values=values), rate=reported)
        return " ".join(ShapingSweep._check_psd("t", case, P, sol))

    assert "power" in problems(phi, rate, P=0.9e3)
    assert "MSE" in problems(phi, rate, D=case.D * 0.9)
    assert "above the reported rate" in problems(phi, rate * 0.9)
    assert "more than one cell" in problems(phi, rate * 1.5)


def _cli_case(tmp_path, phi, P):
    out = tmp_path / "solve.json"
    out.write_text(json.dumps({"case_tag": "WaterfillFeasible", "phi_x": list(phi)}))
    doc = {"a": 10.0, "sigma2_n": 1.0, "P": P}
    return AnalyticCli._check_solve(Item("solve/t", phi.size, 1, None), doc, out,
                                    np.linspace(0.5, 2.0, phi.size))


def test_cli_solve_check_wants_one_water_level(tmp_path):
    s = np.linspace(0.5, 2.0, 129)
    phi, _ = ref.exact_waterfill(10.0 * s + 1.0, 3.0)
    assert _cli_case(tmp_path, phi, 3.0) == []
    assert "power" in " ".join(_cli_case(tmp_path, phi, 3.3))
    bent = phi.copy()
    bent[0] *= 1.01
    assert "water level" in " ".join(_cli_case(tmp_path, bent, ref.band_mean(bent)))


def test_flat_interference_temperature_matches_the_water_fill():
    n, s2s, s2n, a = 513, 1.3, 0.7, 50.0
    base = np.full(n, a * s2s + s2n)
    for D, P in ((0.02, 1e-2), (0.02, 1e6), (2.0, 10.0), (1e-4, 10.0)):
        assert ref.flat_interference_temperature_rate(s2s, s2n, a, D, P) == pytest.approx(
            ref.interference_temperature_rate(base, s2s, s2n, a, D, P), rel=1e-12, abs=1e-15)
    assert ref.memoryless_cap(s2s, s2n, a, 1e-4, 10.0) == 0.0
