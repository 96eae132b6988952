"""Power-of-two twins: the model has no unit of power.

Multiply every power quantity by c = 2^k: the legacy and noise PSDs, the
distortion targets and the budget, or sigma2_s, sigma2_nl, sigma2_nc and P of
a coded link. Gains (a, a_l, g_l, a_c, g_c, H_c, h_l, h_c) are ratios of
powers and stay. Scaling by a power of two changes no rounding in products,
quotients, sums and comparisons of powers, so the twin's solve must repeat
the original's bits: dimensionless results (rates, support fractions,
prelogs, supports, tags, rate residuals) are identical, and power-valued ones
(PSDs, MSEs, budgets) are c times the original's, exactly. A constant with a
unit in the search, such as an absolute tolerance on a power, breaks this,
which a relative-tolerance test in arbitrary units cannot see.

A dB power sweep cannot scale exactly, so rate curves are checked through
`rate_curve` with the powers times c, and the CLI through its `solve` and
`prelog-mesh` files with the dB keys written out linear. Needs numpy and
pytest only.
"""

import json
import math
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from specshape import cli
from specshape.coded import CodedScenario, solve_coded
from specshape.errors import InfeasibleScenarioError
from specshape.estimation import UncodedScenario
from specshape.mimo import MimoChannel, solve_mimo
from specshape.multilegacy import LegacyReceiver, MultiLegacyScenario, max_prelog_support
from specshape.shaping import onoff_prelog, rate_curve, solve
from specshape.spectra import make_grid, mean_power, tabulated_spectrum

SCENARIOS = Path(__file__).parent.parent / "scripts" / "scenarios"
GRID = make_grid(512)
KS = (-40, -3, 5, 8, 9, 60)


def knots(rng, m):
    """A tabulated PSD through m lognormal knots, on GRID."""
    return tabulated_spectrum(GRID, rng.lognormal(sigma=1.0, size=m))


def scaled(spectrum, c):
    return tabulated_spectrum(spectrum.grid, c * spectrum.values)


def target(rng, phi_s, a, phi_n):
    """A distortion target between the smoothing floor and the legacy power."""
    s, n = phi_s.values, phi_n.values
    floor = GRID.mean(s * n / (a * s + n))
    return floor + 10.0 ** rng.uniform(-3.0, -0.3) * (mean_power(phi_s) - floor)


def uncoded_draw(rng):
    phi_s, phi_n, a = knots(rng, 8), knots(rng, 5), 10.0 ** rng.uniform(0.0, 3.0)
    return UncodedScenario(a, phi_s, phi_n, target(rng, phi_s, a, phi_n),
                           10.0 ** rng.uniform(0.0, 6.0))


def multilegacy_draw(rng):
    phi_s, receivers = knots(rng, 8), []
    for _ in range(2):
        phi_n, a = knots(rng, 5), 10.0 ** rng.uniform(0.0, 3.0)
        receivers.append(LegacyReceiver(a, phi_n, target(rng, phi_s, a, phi_n)))
    return MultiLegacyScenario(phi_s, receivers)


def link_draw(rng):
    a_l, g_l, a_c, g_c = 10.0 ** rng.uniform(-1.0, 1.0, 4)
    sigma2_s, sigma2_nl, sigma2_nc = 10.0 ** rng.uniform(-1.0, 3.0, 3)
    R_l = rng.uniform(0.2, 0.8) * math.log1p(a_l * sigma2_s / sigma2_nl)
    return dict(a_l=a_l, g_l=g_l, a_c=a_c, g_c=g_c, sigma2_s=sigma2_s,
                sigma2_nl=sigma2_nl, sigma2_nc=sigma2_nc, R_l=R_l)


def mimo_draw(rng):
    n_r, n_t = rng.integers(1, 5, size=2)
    cplx = rng.random() < 0.5

    def normal(*size):
        z = rng.normal(size=size)
        return z + 1j * rng.normal(size=size) if cplx else z

    shape = None
    if rng.random() < 0.5:
        G = normal(n_t, int(rng.integers(1, n_t + 1)))
        shape = G @ G.conj().T
    return MimoChannel(H_c=normal(n_r, n_t), h_l=normal(n_t), h_c=normal(n_r), shape=shape,
                       **link_draw(rng))


RNG = np.random.default_rng(19)
UNCODED = [uncoded_draw(RNG) for _ in range(20)]
MULTILEGACY = [multilegacy_draw(RNG) for _ in range(20)]
CODED = [CodedScenario(P=10.0 ** RNG.uniform(-2.0, 6.0), **link_draw(RNG)) for _ in range(20)]
MIMO = [(mimo_draw(RNG), 10.0 ** RNG.uniform(-2.0, 6.0)) for _ in range(20)]
LINK_POWERS = ("sigma2_s", "sigma2_nl", "sigma2_nc")


def uncoded_twin(sc, c):
    return UncodedScenario(sc.a, scaled(sc.phi_s, c), scaled(sc.phi_n, c), c * sc.D, c * sc.P)


def assert_twin(got, want, c, same, power=(), per_power=()):
    """Fields in `same` are identical; those in `power` are c times the
    original's and those in `per_power` (Lagrange multipliers of power
    constraints) 1/c times it, exactly."""
    for name in same:
        g, w = attrgetter(name)(got), attrgetter(name)(want)
        assert np.array_equal(g, w) if isinstance(w, np.ndarray) else g == w, name
    for scale, names in ((c, power), (1.0 / c, per_power)):
        for name in names:
            assert np.array_equal(attrgetter(name)(got), scale * attrgetter(name)(want)), name


@pytest.mark.parametrize("k", KS)
def test_solve(k):
    c = 2.0 ** k
    for sc in UNCODED:
        assert_twin(solve(uncoded_twin(sc, c)), solve(sc), c, same=("rate", "case_tag"),
                    power=("mse", "power", "phi_x.values"), per_power=("lam", "mu"))


@pytest.mark.parametrize("k", KS)
def test_onoff_prelog(k):
    c = 2.0 ** k
    for sc in UNCODED:
        assert_twin(onoff_prelog(uncoded_twin(sc, c)), onoff_prelog(sc), c,
                    same=("prelog", "support"), power=("gamma",))


@pytest.mark.parametrize("method", ["SpectrumShaping", "InterferenceTemperature"])
@pytest.mark.parametrize("k", KS)
def test_rate_curve(k, method):
    c = 2.0 ** k
    for sc in UNCODED:
        powers = [sc.P / 100.0, sc.P, sc.P * 100.0]
        twin = uncoded_twin(sc, c)
        try:
            want = rate_curve(sc, powers, method)
        except InfeasibleScenarioError:
            # the memoryless receiver misses its target in both units
            with pytest.raises(InfeasibleScenarioError):
                rate_curve(twin, [c * p for p in powers], method)
            continue
        assert rate_curve(twin, [c * p for p in powers], method) == [(c * p, r) for p, r in want]


@pytest.mark.parametrize("k", KS)
def test_max_prelog_support(k):
    c = 2.0 ** k
    for sc in MULTILEGACY:
        twin = MultiLegacyScenario(scaled(sc.phi_s, c), [
            LegacyReceiver(r.a, scaled(r.phi_n, c), c * r.D) for r in sc.receivers])
        assert_twin(max_prelog_support(twin), max_prelog_support(sc), c,
                    same=("prelog", "support"), power=("spent", "budgets"))


@pytest.mark.parametrize("k", KS)
def test_solve_coded(k):
    c = 2.0 ** k
    for sc in CODED:
        twin = replace(sc, P=c * sc.P, **{f: c * getattr(sc, f) for f in LINK_POWERS})
        assert_twin(solve_coded(twin), solve_coded(sc), c,
                    same=("w", "rate", "case_tag", "residuals"), power=("phi0",))


@pytest.mark.parametrize("k", KS)
def test_solve_mimo(k):
    c = 2.0 ** k
    for ch, P in MIMO:
        twin = replace(ch, **{f: c * getattr(ch, f) for f in LINK_POWERS})
        assert_twin(solve_mimo(twin, c * P, grid=GRID), solve_mimo(ch, P, grid=GRID), c,
                    same=("w", "rate", "mode", "residuals", "psd.k"), power=("psd.level",))


# Scenario-file keys that hold a power, and output keys that hold a power or
# its inverse; the CLI writes 12 significant digits, so only the other keys
# can repeat byte for byte.
FILE_POWERS = {"sigma2_s", "sigma2_n", "sigma2_nl", "sigma2_nc", "D", "P"}
OUTPUT_POWERS = {"gamma", "lambda", "mu", "mse", "phi_x", "power", "phi0", "phi0_matrix",
                 "spent", "budgets"}


def linear_twin(doc, c):
    """A scenario file with each *_db key written linear and each power times c."""
    out = {}
    for key, v in doc.items():
        if isinstance(v, dict) and key != "mesh":
            v = linear_twin(v, c)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            v = [linear_twin(x, c) for x in v]
        if key.endswith("_db"):
            key, v = key[:-3], cli.db_to_linear(v)
        out[key] = c * v if key in FILE_POWERS else v
    return out


def run_twin(tmp_path, command, name, k):
    doc = linear_twin(json.loads((SCENARIOS / name).read_text()), 2.0 ** k)
    f, out = tmp_path / f"{k}.{name}", tmp_path / f"{k}.{name}.out"
    f.write_text(json.dumps(doc))
    assert cli.main([command, str(f), "-o", str(out), "--grid", "512", "--quiet"]) == 0
    return out.read_text()


@pytest.mark.parametrize("name, ks", [
    ("uncoded_single.json", (-30, 7, 50)),
    ("uncoded_waterfill.json", (-30, 7, 50)),
    ("multilegacy_single.json", (-30, 7, 50)),
    ("coded_single.json", (-30, 7, 50)),
    ("mimo_single.json", (-30, 7, 50)),
])
def test_cli_solve(tmp_path, name, ks):
    def dimensionless(text):
        return {key: v for key, v in json.loads(text).items() if key not in OUTPUT_POWERS}

    want = dimensionless(run_twin(tmp_path, "solve", name, 0))
    assert "prelog" in want
    for k in ks:
        assert dimensionless(run_twin(tmp_path, "solve", name, k)) == want, k


@pytest.mark.parametrize("name", ["ar_prelog_mesh.json", "flat_prelog_mesh.json"])
def test_cli_prelog_mesh(tmp_path, name):
    want = run_twin(tmp_path, "prelog-mesh", name, 0)
    for k in (-30, 7, 50):
        assert run_twin(tmp_path, "prelog-mesh", name, k) == want, k
