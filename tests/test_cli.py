import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis_or_skip import given, settings, st

import oracles
from specshape import cli, coded, mimo, shaping
from specshape.errors import SolverError
from specshape.estimation import UncodedScenario
from specshape.spectra import (ar1_spectrum, flat_spectrum, make_grid, mean_power,
                               tabulated_spectrum)

SCENARIOS = Path(__file__).parent.parent / "scripts" / "scenarios"


def write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def written(payload) -> str:
    """The JSON writer's text of payload: its pieces joined."""
    return b"".join(cli._json_pieces(payload)).decode("ascii")


def uncoded_doc(**kw):
    doc = {"kind": "uncoded", "sigma2_s_db": 0, "sigma2_n_db": 0,
           "D_db": -20, "a_db": 30}
    doc.update(kw)
    return doc


@given(st.floats(min_value=1e-6, max_value=1e9))
def test_db_round_trip(x):
    assert cli.db_to_linear(10.0 * math.log10(x)) == pytest.approx(x, rel=1e-12)


def test_db_to_linear_hand_values():
    assert cli.db_to_linear(0.0) == 1.0
    assert cli.db_to_linear(10.0) == 10.0
    assert cli.db_to_linear(30.0) == 1000.0
    assert cli.db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-15)
    assert cli.db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-15)


def test_rate_curve_flat_saturation_and_growth(tmp_path):
    f = write(tmp_path, uncoded_doc(
        power_sweep_db={"start": 20, "stop": 60, "points": 5}))
    out = tmp_path / "curve.csv"
    assert cli.main(["rate-curve", f, "-o", str(out), "--grid", "512", "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "P_db,rate_it,rate_shaping"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    it = [float(r[1]) for r in rows]
    sh = [float(r[2]) for r in rows]
    assert max(it) - min(it) <= 1e-9 * max(it)  # saturated beyond the cap
    assert all(b > a for a, b in zip(sh, sh[1:]))  # shaping keeps growing
    assert all(s >= i - 1e-12 for s, i in zip(sh, it))


def test_rate_curve_ar_above_flat(tmp_path):
    sweep = {"start": 30, "stop": 50, "points": 3}
    flat = write(tmp_path, uncoded_doc(power_sweep_db=sweep), "flat.json")
    ar = write(tmp_path, uncoded_doc(epsilon=0.1, power_sweep_db=sweep), "ar.json")
    out_f, out_a = tmp_path / "f.csv", tmp_path / "a.csv"
    assert cli.main(["rate-curve", flat, "-o", str(out_f), "--grid", "512", "--quiet"]) == 0
    assert cli.main(["rate-curve", ar, "-o", str(out_a), "--grid", "512", "--quiet"]) == 0
    r_f = [float(l.split(",")[2]) for l in out_f.read_text().strip().split("\n")[1:]]
    r_a = [float(l.split(",")[2]) for l in out_a.read_text().strip().split("\n")[1:]]
    assert all(a > f for a, f in zip(r_a, r_f))


def test_rate_curve_empty_sweep_header_only(tmp_path):
    f = write(tmp_path, uncoded_doc(power_sweep_db={"start": 0, "stop": 10, "points": 0}))
    out = tmp_path / "empty.csv"
    assert cli.main(["rate-curve", f, "-o", str(out), "--grid", "512", "--quiet"]) == 0
    assert out.read_text() == "P_db,rate_it,rate_shaping\n"


@pytest.mark.parametrize("noise", [{"sigma2_n": 0.0}, {"phi_n_values": [0.0, 0.0]}])
def test_rate_curve_zero_noise(tmp_path, noise):
    # the memoryless floor of the interference-temperature column is 0 here
    doc = {"kind": "uncoded", "sigma2_s": 1.0, **noise, "a": 1.0, "D": 0.5,
           "power_sweep_db": {"start": 0, "stop": 10, "points": 3}}
    out = tmp_path / "curve.csv"
    assert cli.main(["rate-curve", write(tmp_path, doc), "-o", str(out),
                     "--grid", "64", "--quiet"]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(x)) for row in rows for x in row)


def test_rate_curve_infeasible_memoryless_receiver_writes_nan(tmp_path):
    # AR(1) at a = 10: D = 0.05 lies above the smoothing floor (0.046) but
    # below the memoryless floor 1/11, so only the memoryless column is empty
    doc = {"kind": "uncoded", "sigma2_s": 1, "sigma2_n": 1, "a": 10, "epsilon": 0.1,
           "D": 0.05, "power_sweep_db": {"start": 0, "stop": 40, "points": 5}}
    out = tmp_path / "curve.csv"
    assert cli.main(["rate-curve", write(tmp_path, doc), "-o", str(out),
                     "--grid", "512", "--quiet"]) == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "P_db,rate_it,rate_shaping"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert [row[1] for row in rows] == ["nan"] * 5
    assert all(0.0 < float(row[2]) < math.inf for row in rows)


def test_rate_curve_coded_tags(tmp_path):
    f = str(SCENARIOS / "coded_case_b_curve.json")
    out = tmp_path / "coded.csv"
    assert cli.main(["rate-curve", f, "-o", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "P_db,rate,case_tag"
    tags = {line.split(",")[2] for line in lines[1:]}
    assert tags <= {"A", "B1", "B2"}
    assert len(lines) == 1 + 17


def test_rate_curve_determinism(tmp_path):
    f = write(tmp_path, uncoded_doc(power_sweep_db={"start": 0, "stop": 40, "points": 4}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["rate-curve", f, "-o", str(out1), "--grid", "256", "--quiet"]) == 0
    assert cli.main(["rate-curve", f, "-o", str(out2), "--grid", "256", "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("points", [10**12, 10_001])
def test_rate_curve_sweep_past_the_points_bound_exit_2(tmp_path, capsys, points):
    # 10**12 points made np.linspace raise a MemoryError that escaped main
    f = write(tmp_path, uncoded_doc(power_sweep_db={"start": 0, "stop": 10, "points": points}))
    out = tmp_path / "curve.csv"
    assert cli.main(["rate-curve", f, "-o", str(out), "--grid", "64", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "power_sweep_db.points" in err and "10000" in err and "Traceback" not in err
    assert not out.exists()


def test_log_base_flag_scales_rates(tmp_path):
    f = write(tmp_path, uncoded_doc(power_sweep_db={"start": 30, "stop": 30, "points": 1}))
    out_e, out_2 = tmp_path / "e.csv", tmp_path / "b2.csv"
    assert cli.main(["rate-curve", f, "-o", str(out_e), "--grid", "256", "--quiet"]) == 0
    assert cli.main(["rate-curve", f, "-o", str(out_2), "--grid", "256",
                     "--log-base", "2", "--quiet"]) == 0
    r_e = float(out_e.read_text().strip().split("\n")[1].split(",")[2])
    r_2 = float(out_2.read_text().strip().split("\n")[1].split(",")[2])
    assert r_2 == pytest.approx(r_e / math.log(2.0), rel=1e-9)


def test_prelog_mesh_values_and_zeros(tmp_path):
    doc = {"kind": "uncoded", "sigma2_s_db": 0, "sigma2_n_db": 0,
           "mesh": {"d_ratio": [0.0005, 0.01], "snr_db": [30]}}
    out = tmp_path / "mesh.csv"
    assert cli.main(["prelog-mesh", write(tmp_path, doc), "-o", str(out),
                     "--grid", "4096", "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d_ratio,snr_db,prelog"
    vals = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
    assert vals[("0.0005", "30")] == 0.0  # below the floor 1/1001
    assert vals[("0.01", "30")] == pytest.approx(0.00901, rel=1e-6)


MESH_D_RATIOS, MESH_SNR_DBS = [1e-4, 0.01, 0.2, 0.8, 1.5], [0.0, 12.5, 30.0]
MESH_S2S, MESH_S2N = 1.3, 0.7


def inverted_pair_values(grid):
    """phi_s with one value per grid point, holding two adjacent floats
    x < nextafter(x, inf) whose pre-emphasized PSD u = a*x^2/(a*x + sigma2_n)
    comes out the other way round at one of the mesh gains: found by a seeded
    search over x, with the gains the mesh derives from the whole spectrum."""
    rng = np.random.default_rng(20)
    values = MESH_S2S * np.exp(rng.uniform(-1.0, 1.0, grid.n_points))
    for _ in range(100_000):
        x = MESH_S2S * math.exp(rng.uniform(-1.0, 1.0))
        values[:2] = x, np.nextafter(x, math.inf)
        sigma2_s = mean_power(tabulated_spectrum(grid, values))
        for snr in MESH_SNR_DBS:
            a = cli.db_to_linear(snr) * MESH_S2N / sigma2_s
            u = a * values[:2] * values[:2] / (a * values[:2] + MESH_S2N)
            if u[0] > u[1]:
                return values
    raise AssertionError("no inverted pair found")


def mesh_legacy(case, grid):
    """Scenario keys and the legacy spectrum of a prelog-mesh case: flat
    (None), AR(1) with innovation rate `case`, or tabulated."""
    if case is None:
        return {"sigma2_s": MESH_S2S}, flat_spectrum(grid, MESH_S2S)
    if isinstance(case, float):
        return {"sigma2_s": MESH_S2S, "epsilon": case}, ar1_spectrum(grid, MESH_S2S, case)
    if case == "smooth":
        knots = MESH_S2S * (1.5 + np.cos(np.linspace(0.0, 3.0, 9)))
    elif case == "inverted":
        knots = inverted_pair_values(grid)
    else:  # "rough<seed>": 9-225 knots exp(U(-1, 1))
        rng = np.random.default_rng(int(case[5:]))
        knots = MESH_S2S * np.exp(rng.uniform(-1.0, 1.0, int(rng.integers(9, 226))))
    return {"phi_s_values": knots.tolist()}, tabulated_spectrum(grid, knots)


@pytest.mark.parametrize("case", [None, 0.3, "smooth", "rough1", "rough2", "rough3",
                                  "inverted"])
def test_prelog_mesh_matches_per_cell_onoff_prelog(tmp_path, monkeypatch, case):
    # d_ratio 1e-4 is below the smoothing floor at every SNR (prelog 0), 1.5
    # above the floor plus the whole pre-emphasis mass (prelog 1), and the
    # ratios between give interior prelogs at the higher SNRs
    n = 2048
    grid = make_grid(n)
    keys, phi_s = mesh_legacy(case, grid)
    doc = {"kind": "uncoded", **keys, "sigma2_n": MESH_S2N,
           "mesh": {"d_ratio": MESH_D_RATIOS, "snr_db": MESH_SNR_DBS}}
    phi_n = flat_spectrum(grid, MESH_S2N)
    sigma2_s = mean_power(phi_s)
    shared = np.argsort(phi_s.values, kind="stable")
    rows, prelogs, own_sorts, supports = ["d_ratio,snr_db,prelog"], [], set(), {}
    for d in MESH_D_RATIOS:
        for snr in MESH_SNR_DBS:
            sc = UncodedScenario(a=cli.db_to_linear(snr) * MESH_S2N / sigma2_s, phi_s=phi_s,
                                 phi_n=phi_n, D=d * sigma2_s, P=1.0)
            prelog = shaping.onoff_prelog(sc).prelog
            prelogs.append(prelog)
            rows.append(f"{cli._fmt(d)},{cli._fmt(snr)},{cli._fmt(prelog)}")
            u = oracles.preemphasized_psd(sc).values
            if not np.array_equal(np.argsort(u, kind="stable"), shared):
                own_sorts.add(snr)
            ws = shaping._Workspace(sc)
            supports[snr, d] = (ws.cumw, ws.ws, ws.us, ws.prefix_wu[1:] / np.pi,
                                sc.D - ws.dlow)
    assert 0.0 in prelogs and 1.0 in prelogs
    assert any(0.0 < v < 1.0 for v in prelogs)
    # the mesh sorts phi_s once, and again only for a gain whose u that
    # order does not sort exactly as argsort(u, kind="stable") does
    assert (len(own_sorts) > 0) == (case == "inverted")
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    # and each cell's on-off support reads, bit for bit, the arrays a
    # per-cell workspace builds: the pre-emphasis order, weights and running
    # sums, the own sort's where the shared order does not serve
    calls = []
    onoff = shaping._onoff_support
    monkeypatch.setattr(shaping, "_onoff_support",
                        lambda *args: calls.append(args) or onoff(*args))
    out = tmp_path / "mesh.csv"
    assert cli.main(["prelog-mesh", write(tmp_path, doc), "-o", str(out),
                     "--grid", str(n), "--quiet"]) == 0
    assert len(sorts) == 1 + len(own_sorts)
    assert out.read_text() == "\n".join(rows) + "\n"
    cells = [(snr, d) for snr in MESH_SNR_DBS for d in MESH_D_RATIOS]
    assert len(calls) == len(cells)
    for cell, args in zip(cells, calls):
        want = supports[cell]
        assert [g.tobytes() for g in args[:4]] == [w.tobytes() for w in want[:4]], cell
        assert args[4] == want[4], cell


def run_mesh_bad(tmp_path, capsys, mesh, legacy=None):
    doc = {"kind": "uncoded", **(legacy or {"sigma2_s_db": 0, "sigma2_n_db": 0}),
           "mesh": mesh}
    out = tmp_path / "mesh.csv"
    code = cli.main(["prelog-mesh", write(tmp_path, doc), "-o", str(out),
                     "--grid", "256", "--quiet"])
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    return code


def test_prelog_mesh_snr_overflow_exit_2(tmp_path, capsys):
    assert run_mesh_bad(tmp_path, capsys, {"d_ratio": [0.1], "snr_db": [10.0, 4000.0]}) == 2


def test_prelog_mesh_zero_gain_exit_2(tmp_path, capsys):
    assert run_mesh_bad(tmp_path, capsys, {"d_ratio": [0.1], "snr_db": [-4000.0]}) == 2


def test_prelog_mesh_negative_d_in_later_cell_exit_2(tmp_path, capsys):
    assert run_mesh_bad(tmp_path, capsys,
                        {"d_ratio": [0.1, 0.2, -0.3], "snr_db": [0.0, 10.0]}) == 2


def test_prelog_mesh_zero_noise_exit_2(tmp_path, capsys):
    # the mesh gain a = snr*sigma2_n/sigma2_s is 0 at every SNR, and a cell
    # scenario with a = 0 is rejected
    grid = make_grid(256)
    with pytest.raises(ValueError, match="gain"):
        UncodedScenario(a=cli.db_to_linear(10.0) * 0.0, phi_s=flat_spectrum(grid, 1.0),
                        phi_n=flat_spectrum(grid, 0.0), D=0.5, P=1.0)
    assert run_mesh_bad(tmp_path, capsys, {"d_ratio": [0.5], "snr_db": [10.0]},
                        {"sigma2_s": 1.0, "sigma2_n": 0.0}) == 2


@pytest.mark.parametrize("legacy", [{"sigma2_s": 0.0, "sigma2_n": 1.0},
                                    {"phi_s_values": [0.0, 0.0], "sigma2_n": 1.0}])
def test_prelog_mesh_zero_legacy_power_exit_2(tmp_path, capsys, legacy):
    # the mesh axes are ratios to the legacy power
    assert run_mesh_bad(tmp_path, capsys, {"d_ratio": [0.5], "snr_db": [10.0]}, legacy) == 2


def test_prelog_mesh_ar_dominates_flat(tmp_path):
    out_f, out_a = tmp_path / "f.csv", tmp_path / "a.csv"
    assert cli.main(["prelog-mesh", str(SCENARIOS / "flat_prelog_mesh.json"),
                     "-o", str(out_f), "--grid", "1024", "--quiet"]) == 0
    assert cli.main(["prelog-mesh", str(SCENARIOS / "ar_prelog_mesh.json"),
                     "-o", str(out_a), "--grid", "1024", "--quiet"]) == 0
    flat = [float(l.split(",")[2]) for l in out_f.read_text().strip().split("\n")[1:]]
    ar = [float(l.split(",")[2]) for l in out_a.read_text().strip().split("\n")[1:]]
    assert len(flat) == 100
    assert all(a >= f - 1e-12 for a, f in zip(ar, flat))


def test_solve_uncoded_json(tmp_path):
    out = tmp_path / "sol.json"
    assert cli.main(["solve", str(SCENARIOS / "uncoded_single.json"),
                     "-o", str(out), "--grid", "512", "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "uncoded"
    assert doc["case_tag"] == "BothConstraintsActive"
    assert doc["mse"] == pytest.approx(0.01, rel=1e-6)
    assert doc["power"] == pytest.approx(1000.0, rel=1e-6)
    assert len(doc["phi_x"]) == 512
    assert doc["mu"] < 0


def test_solve_uncoded_case1_tag(tmp_path):
    f = write(tmp_path, uncoded_doc(P_db=0))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", f, "-o", str(out), "--grid", "256", "--quiet"]) == 0
    assert json.loads(out.read_text())["case_tag"] == "WaterfillFeasible"


def test_solve_coded_json(tmp_path):
    out = tmp_path / "sol.json"
    assert cli.main(["solve", str(SCENARIOS / "coded_single.json"),
                     "-o", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["case_tag"] in ("B1", "B2")
    assert doc["prelog"] == pytest.approx(0.5, rel=1e-9)
    assert doc["phi0"] == pytest.approx(1000.0 / doc["w"], rel=1e-9)


def test_solve_mimo_json(tmp_path):
    out = tmp_path / "sol.json"
    assert cli.main(["solve", str(SCENARIOS / "mimo_single.json"),
                     "-o", str(out), "--grid", "256", "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["prelog"] == pytest.approx(1.0, rel=1e-9)
    assert doc["mode"] in ("TreatAsNoise", "SuccessiveB1", "RateSplitB2")
    assert np.asarray(doc["phi0_matrix"]).shape == (2, 2, 2)


@pytest.mark.parametrize("command, name", [("solve", "coded_single.json"),
                                           ("rate-curve", "coded_case_a_curve.json")])
def test_coded_r_l_in_nats_matches_the_legacy_load_file(tmp_path, command, name):
    # R_l as the CLI forms it from legacy_load: the same scenario, the same bytes
    doc = json.loads((SCENARIOS / name).read_text())
    load = doc.pop("legacy_load")
    a_l, sigma2_s, sigma2_nl = (cli.db_to_linear(doc[k])
                                for k in ("a_l_db", "sigma2_s_db", "sigma2_nl_db"))
    doc["R_l"] = load * math.log1p(a_l * sigma2_s / sigma2_nl)
    written = []
    for i, f in enumerate((str(SCENARIOS / name), write(tmp_path, doc))):
        out = tmp_path / f"{i}.out"
        assert cli.main([command, f, "-o", str(out), "--quiet"]) == cli.EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_solve_multilegacy_json(tmp_path):
    out = tmp_path / "sol.json"
    assert cli.main(["solve", str(SCENARIOS / "multilegacy_single.json"),
                     "-o", str(out), "--grid", "512", "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert 0.0 < doc["prelog"] < 1.0
    assert len(doc["support"]) == 512
    assert len(doc["budgets"]) == 2


def test_multilegacy_flat_spectrum_single_receiver_is_the_onoff_prelog(tmp_path):
    doc = {"kind": "multilegacy", "spectrum": {"type": "flat", "sigma2_s": 2.0},
           "receivers": [{"a": 300.0, "sigma2_n": 0.5, "D": 0.05}]}
    out = tmp_path / "sol.json"
    assert cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--grid", "512",
                     "--quiet"]) == cli.EXIT_OK
    g = make_grid(512)
    ref = shaping.onoff_prelog(
        UncodedScenario(300.0, flat_spectrum(g, 2.0), flat_spectrum(g, 0.5), 0.05, 1.0))
    assert 0.0 < ref.prelog < 1.0
    assert json.loads(out.read_text())["prelog"] == float(cli._fmt(ref.prelog))


def test_malformed_json_exit_2_no_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never.csv"
    assert cli.main(["rate-curve", str(bad), "-o", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_top_level_array_exit_2(tmp_path, capsys):
    f = write(tmp_path, [uncoded_doc(P_db=30)])
    out = tmp_path / "o.json"
    assert cli.main(["solve", f, "-o", str(out), "--quiet"]) == cli.EXIT_INPUT
    assert "top level must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_exit_2(tmp_path):
    f = write(tmp_path, uncoded_doc(
        bogus=1, power_sweep_db={"start": 0, "stop": 10, "points": 2}))
    assert cli.main(["rate-curve", f, "-o", str(tmp_path / "o.csv"), "--quiet"]) == 2


def test_both_linear_and_db_rejected(tmp_path):
    doc = uncoded_doc(power_sweep_db={"start": 0, "stop": 10, "points": 2})
    doc["a"] = 1000
    f = write(tmp_path, doc)
    assert cli.main(["rate-curve", f, "-o", str(tmp_path / "o.csv"), "--quiet"]) == 2


def test_missing_file_exit_2(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "o.json"), "--quiet"]) == 2


def test_deeply_nested_file_exit_2(tmp_path, capsys):
    # json.loads stops at the recursion limit, far short of this depth
    f = tmp_path / "deep.json"
    f.write_text('{"kind": "uncoded", "a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "o.json"
    assert cli.main(["solve", str(f), "-o", str(out), "--quiet"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["uncoded_single.json", "mimo_single.json"])
def test_grid_past_the_points_bound_exit_2(tmp_path, capsys, name):
    # rejected before the file is read, so nothing grid-sized is allocated
    out = tmp_path / "o.json"
    code = cli.main(["solve", str(SCENARIOS / name), "-o", str(out),
                     "--grid", str(cli._MAX_GRID_POINTS + 1), "--quiet"])
    assert code == cli.EXIT_INPUT
    assert f"--grid must be at most {cli._MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not out.exists()


def test_infeasible_exit_3(tmp_path):
    f = write(tmp_path, uncoded_doc(D_db=-60, P_db=10))
    out = tmp_path / "o.json"
    assert cli.main(["solve", f, "-o", str(out), "--grid", "256", "--quiet"]) == 3
    assert not out.exists()


def test_case2_at_waterfilling_mse_exit_0(tmp_path):
    # Flat case-2 scenario whose support search meets a water-filling MSE
    # within rounding of D.
    f = write(tmp_path, {"kind": "uncoded", "sigma2_s": 1.0830647920223533,
                         "sigma2_n": 0.9254806018097813, "a": 573.562905330632,
                         "D": 0.06763960691769857, "P": 98.28130501427688})
    out = tmp_path / "o.json"
    assert cli.main(["solve", f, "-o", str(out), "--grid", "512", "--quiet"]) == 0
    assert json.loads(out.read_text())["case_tag"] == "BothConstraintsActive"


def run_bad(tmp_path, capsys, doc, *opts):
    out = tmp_path / "o.json"
    code = cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--quiet", *opts])
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    return code


def test_nan_parameter_exit_2(tmp_path, capsys):
    doc = uncoded_doc(P_db=30)
    del doc["D_db"]
    doc["D"] = math.nan  # json.dumps writes the bare NaN token json.loads accepts
    assert run_bad(tmp_path, capsys, doc) == 2


def test_signal_times_noise_past_the_float_range_exit_2(tmp_path, capsys):
    # phi_s * phi_n = 20 * 1e307 is past the largest float: an input error
    # when the scenario is built, before the smoothing floor forms it
    doc = {"kind": "uncoded", "a": 1.0, "sigma2_s": 20.0, "sigma2_n": 1e307, "D": 0.5, "P": 1.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_bad(tmp_path, capsys, doc) == 2


def test_non_numeric_epsilon_exit_2(tmp_path, capsys):
    assert run_bad(tmp_path, capsys, uncoded_doc(epsilon=[0.1], P_db=30)) == 2


@pytest.mark.parametrize("command, extra", [
    ("solve", {"P": 1.0}),
    ("rate-curve", {"power_sweep_db": {"start": 0, "stop": 10, "points": 3}})])
def test_undefined_rate_over_a_zero_floor_exit_2(tmp_path, capsys, command, extra):
    # phi_s = phi_n = [1, 0]: the floor a*phi_s + phi_n is 0 on the upper half
    # band, where power costs no MSE and the rate is unbounded. The file is
    # rejected when it is read (exit 2); it used to reach the fill, which put
    # power there and failed in rate_bins (exit 4)
    doc = {"kind": "uncoded", "phi_s_values": [1.0, 0.0], "phi_n_values": [1.0, 0.0],
           "a": 1.0, "D": 0.5, **extra}
    out = tmp_path / "o.out"
    code = cli.main([command, write(tmp_path, doc), "-o", str(out), "--grid", "128", "--quiet"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT == 2
    assert "noise floor" in err and "Traceback" not in err
    assert not out.exists()


def test_value_error_inside_the_solve_exit_4(tmp_path, capsys, monkeypatch):
    # the build checked the file, so a plain ValueError raised by the solver
    # is the solver's failure (exit 4), not an input error
    def fail(ws, P):
        raise ValueError("no bracket")
    monkeypatch.setattr(shaping, "_solve_ws", fail)
    out = tmp_path / "o.json"
    code = cli.main(["solve", write(tmp_path, uncoded_doc(P_db=30)), "-o", str(out),
                     "--grid", "64", "--quiet"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER == 4
    assert "solver failed" in err and "no bracket" in err and "Traceback" not in err
    assert not out.exists()


def test_multilegacy_zero_noise_floor_is_valid(tmp_path):
    # the on-off prelog needs no positive floor: the same zero floor in a
    # multilegacy file solves
    doc = {"kind": "multilegacy", "spectrum": {"type": "tabulated", "values": [1, 0]},
           "receivers": [{"a": 10, "sigma2_n": 0, "D": 0.3}]}
    out = tmp_path / "out.json"
    assert cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--grid", "64",
                     "--quiet"]) == cli.EXIT_OK
    assert 0.0 < json.loads(out.read_text())["prelog"] <= 1.0


def test_non_finite_result_exit_4(tmp_path, capsys, monkeypatch):
    solve = coded.solve_coded
    monkeypatch.setattr(coded, "solve_coded", lambda sc: replace(solve(sc), rate=math.nan))
    doc = json.loads((SCENARIOS / "coded_single.json").read_text())
    assert run_bad(tmp_path, capsys, doc) == 4


def test_nan_constraint_exit_4(tmp_path, capsys, monkeypatch):
    # a constraint that reads NaN inside the bracket stops the w root-find
    find = mimo._widest_feasible
    monkeypatch.setattr(mimo, "_widest_feasible", lambda c: find(
        lambda w: c(w) if w in (1.0, mimo._W_LO) else (math.nan, math.nan)))
    doc = json.loads((SCENARIOS / "coded_single.json").read_text())
    out = tmp_path / "o.json"
    code = cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER == 4
    assert "is NaN" in err and "Traceback" not in err
    assert not out.exists()


def test_huge_budget_over_a_vanishing_legacy_rate_exit_0(tmp_path, capsys):
    # the whole band at P = 1e300: a finite rate and no overflow warning
    doc = json.loads((SCENARIOS / "coded_single.json").read_text())
    del doc["P_db"]
    doc.update(legacy_load=1e-300, P=1e300)
    out = tmp_path / "o.json"
    code = cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--quiet"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    got = json.loads(out.read_text())
    assert got["case_tag"] == "B1" and got["w"] == 1.0
    assert got["rate"] == pytest.approx(693.0781129912077, rel=1e-11)


def test_epsilon_with_tabulated_legacy_spectrum_exit_2(tmp_path, capsys):
    doc = {"kind": "uncoded", "phi_s_values": [1.0, 2.0], "epsilon": 0.1,
           "sigma2_n": 1.0, "a": 10.0, "D": 0.5, "P": 1.0}
    out = tmp_path / "o.json"
    assert cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--grid", "64",
                     "--quiet"]) == cli.EXIT_INPUT
    assert "give either epsilon or phi_s_values" in capsys.readouterr().err
    assert not out.exists()


RANK1_MIMO = {"kind": "mimo", "H_c": [[1, 0], [0, 0]], "h_l": [1, 0], "h_c": [1, 0.1],
              "a_l": 1, "g_l": 1, "a_c": 1, "g_c": 10, "sigma2_s": 1000,
              "sigma2_nl": 1, "sigma2_nc": 1, "legacy_load": 0.5}


def test_huge_budget_on_a_rank_deficient_channel_exit_0(tmp_path, capsys):
    # H_c of rank 1 has a null eigenmode; where P/w overflows, its on-level
    # must stay 0 rather than inf * 0 = NaN
    got = {}
    for P in (1e290, 1e300):
        out = tmp_path / f"{P}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", write(tmp_path, dict(RANK1_MIMO, P=P)), "-o", str(out),
                             "--grid", "64", "--quiet"])
        assert code == 0
        got[P] = json.loads(out.read_text())
    assert capsys.readouterr().err == ""
    assert got[1e300]["mode"] == got[1e290]["mode"] == "SuccessiveB1"
    assert got[1e300]["w"] == got[1e290]["w"] == 0.5
    assert math.isfinite(got[1e300]["rate"]) and got[1e300]["rate"] > got[1e290]["rate"]


def test_mimo_without_antennas_exit_2(tmp_path, capsys):
    doc = dict(RANK1_MIMO, H_c=[[]], h_l=[], h_c=[1.0], P=10.0)
    out = tmp_path / "o.json"
    assert cli.main(["solve", write(tmp_path, doc), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: H_c must be a matrix with at least one row and one column\n")
    assert not out.exists()


def test_overflowing_mimo_on_level_exit_4(tmp_path, capsys):
    # the search runs at w = 0.5, where the on-level P/w overflows, and so
    # does the rate, which the search checks first: a non-finite result, not
    # an input error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_bad(tmp_path, capsys, dict(RANK1_MIMO, P=1.7e308)) == 4


def test_overflowing_mimo_rate_exit_4(tmp_path, capsys):
    # at w = 0.5 the on-level is finite but the rate's g_c P/w overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_bad(tmp_path, capsys, dict(RANK1_MIMO, P=5e307), "--grid", "64") == 4


def test_on_level_past_the_float_range_exit_4(tmp_path, capsys):
    # H_c = 1e-30 I leaves the rate finite while the on-level P/w overflows
    doc = dict(RANK1_MIMO, H_c=[[1e-30, 0], [0, 1e-30]], h_l=[1, 1], h_c=[1, 1], P=1e308)
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--grid", "64",
                         "--quiet"])
    assert code == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "the on-level P/w is not finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("P", [5e307, 8e307])
def test_on_level_near_the_float_limit_exit_0(tmp_path, capsys, P):
    # an on-level above half the largest float passes the field check
    doc = dict(RANK1_MIMO, H_c=[[1.0]], h_l=[1.0], h_c=[1.0], a_c=0.01, g_c=1, P=P)
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", write(tmp_path, doc), "-o", str(out), "--grid", "64", "--quiet"])
    assert code == 0 and capsys.readouterr().err == ""
    got = json.loads(out.read_text())
    assert got["mode"] == "TreatAsNoise" and math.isfinite(got["rate"])
    assert got["phi0_matrix"][0][0][0] >= 1e308


def tabulated_uncoded(values):
    doc = uncoded_doc(P_db=30, phi_s_values=values)
    del doc["sigma2_s_db"]
    return doc


def tabulated_multilegacy(values):
    doc = json.loads((SCENARIOS / "multilegacy_single.json").read_text())
    doc["spectrum"] = {"type": "tabulated", "values": values}
    return doc


# Array entries follow the scalar rule: an int past the largest float, a
# bool or a numeric string is an input error wherever an array holds it.
@pytest.mark.parametrize("doc", [
    tabulated_uncoded([1, 10**400]),
    tabulated_multilegacy([1, 10**400]),
    dict(RANK1_MIMO, H_c=[[1, 0], [0, 10**400]], P=10.0),
    tabulated_uncoded(["1", "2.5"]),
    tabulated_uncoded([True, 2.5]),
    dict(RANK1_MIMO, H_c=[[True, False], [False, True]], h_l=["1", 0], P=10.0),
], ids=["phi_s-past-float", "spectrum-past-float", "H_c-past-float",
        "phi_s-strings", "phi_s-bool", "mimo-bools-and-string"])
def test_array_entry_that_is_not_a_number_exit_2(tmp_path, capsys, doc):
    assert run_bad(tmp_path, capsys, doc, "--grid", "64") == 2


def test_wrong_kind_for_mesh_exit_2(tmp_path):
    f = str(SCENARIOS / "coded_single.json")
    assert cli.main(["prelog-mesh", f, "-o", str(tmp_path / "o.csv"), "--quiet"]) == 2


def test_complex_array_parsing():
    assert np.array_equal(cli._complex_array([1.0, 2.0], "v", 1),
                          np.array([1 + 0j, 2 + 0j]))
    got = cli._complex_array([[1.0, -1.0], [0.0, 2.0]], "v", 1)
    assert np.array_equal(got, np.array([1 - 1j, 2j]))
    mat = cli._complex_array([[1.0, 0.0], [0.0, 1.0]], "H", 2)
    assert np.array_equal(mat, np.eye(2).astype(complex))
    with pytest.raises(cli.SchemaError):
        cli._complex_array([[[1, 2, 3]]], "H", 1)


# Finite floats where repr and %.12g lay out the same digits differently
# (integral, 1e12 <= |x| < 1e16, subnormal) or where rounding to 12 digits
# crosses one of those edges.
WRITER_EDGES = [999999999999.5, 1e15, 9999999999999999.0, 1e16, 5e-324,
                2.5e-310, 1e300, 99999999999.95, 0.0, -0.0, 1.0, 123456789012.0,
                2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                # where the writer's test for entries laid out by repr changes
                12345.0000000001, 1.00000000001, 1.000000000004, 1.0000000000000002,
                0.49999999999999994,
                math.nextafter(1e11, 0.0), 1e11, math.nextafter(1e11, math.inf),
                math.nextafter(2.3e-308, 0.0), 2.3e-308, math.nextafter(2.3e-308, 1.0)]

finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(WRITER_EDGES + [-x for x in WRITER_EDGES]),
    st.integers(-10**17, 10**17).map(float),
    st.floats(min_value=1e12, max_value=1e16),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308))


@settings(max_examples=300)
@given(st.lists(finite_floats, max_size=40))
def test_json_writer_matches_oracle_on_float_arrays(values):
    payload = {"v": np.array(values, dtype=float), "s": values[0] if values else 0.5}
    assert written(payload) == oracles.json_text(payload)


def test_json_writer_matches_oracle_on_edges_and_shapes():
    edges = np.array(WRITER_EDGES + [-x for x in WRITER_EDGES])
    payload = {
        "edges": edges,
        "edge_list": [float(x) for x in edges],
        "scalar": np.float64(1e15),
        "scalars": [np.float64(x) for x in edges[:4]],
        "support": np.array([1, 0, 0, 1]),
        "mask": np.array([True, False]),
        "empty_list": [],
        "empty_array": np.zeros(0),
        "empty_ints": np.zeros(0, dtype=int),
        "arrays_in_a_list": [np.array([0.5, -0.0, 1e15]), np.array([3, -7], dtype=np.int32),
                             np.array([2**63], dtype=np.uint64)],
        "matrix": np.array([[1.0, -0.0], [1e15, 2.5e-310]]),
        # more than three slices of the int writer, two levels down
        "ints": {"deep": np.arange(3 * 4096 + 1) - 4096},
        "empty_dict": {},
        "residuals": {"legacy": -1.5e-13, "decodability": 0.0},
        "phi0_matrix": [[[1.0, 0.0], [0.25, -0.5]], [[0.25, 0.5], [2.0, 0.0]]],
        "nested": {"b": {"a": [1, True, None, "x\u00e9"]}},
        "kind": "uncoded",
        "count": 3,
        "flag": False,
    }
    assert written(payload) == oracles.json_text(payload)


# The writer formats each run of bit-equal neighbours once: runs of one pool
# value, up to about 500 entries, with 0.0 and -0.0 runs side by side.
RUN_POOL = WRITER_EDGES + [-x for x in WRITER_EDGES] + [0.0, -0.0, 0.5, -1.5, math.pi, 0.1]


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(RUN_POOL), st.integers(1, 60)), max_size=25))
def test_json_writer_matches_oracle_on_runs(runs):
    values = [x for x, k in runs for _ in range(k)][:500]
    payload = {"v": np.array(values, dtype=float)}
    assert written(payload) == oracles.json_text(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_non_finite(bad):
    for payload in ({"x": bad}, {"x": np.float64(bad)}, {"x": np.array([1.0, bad])},
                    {"x": [[0.5, bad]]}, {"x": {"y": bad}},
                    {"x": np.array([1.0, bad], dtype=object)}):
        with pytest.raises(SolverError):
            cli._json_pieces(payload)


SOLVE_SCENARIOS = sorted(p.name for p in SCENARIOS.glob("*.json")
                         if not p.name.endswith(("_curve.json", "_mesh.json")))


@pytest.mark.parametrize("grid", [512, 4096, 32768])
@pytest.mark.parametrize("name", SOLVE_SCENARIOS)
def test_solve_file_matches_oracle_bytes(tmp_path, monkeypatch, name, grid):
    payloads = []
    write_json = cli._write_json

    def spy(path, payload):
        payloads.append(payload)
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", spy)
    out = tmp_path / "sol.json"
    assert cli.main(["solve", str(SCENARIOS / name), "-o", str(out),
                     "--grid", str(grid), "--quiet"]) == 0
    [payload] = payloads
    assert out.read_bytes() == (oracles.json_text(payload) + "\n").encode()


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # main parses with one parser per process; a sequence of calls with
    # different options, a parse error among them, writes what the same calls
    # write with a fresh parser each
    curve = write(tmp_path, uncoded_doc(power_sweep_db={"start": 0, "stop": 20, "points": 3}),
                  "curve.json")
    mesh = write(tmp_path, {"kind": "uncoded", "sigma2_s": 1.0, "sigma2_n": 1.0,
                            "mesh": {"d_ratio": [0.01, 0.2], "snr_db": [0.0, 20.0]}},
                 "mesh.json")
    solve = str(SCENARIOS / "uncoded_single.json")
    calls = [["rate-curve", curve, "--log-base", "2"], ["rate-curve", curve],
             ["solve", solve, "--grid", "512", "--log-base", "2"], ["solve", solve, "--quiet"],
             ["prelog-mesh", mesh, "--grid", "256"], ["prelog-mesh", mesh, "--quiet"],
             ["solve", solve, "--grid", "oops"], ["solve", solve, "--grid", "512"]]

    def run():
        outputs = []
        for i, argv in enumerate(calls):
            out = tmp_path / f"out{i}"
            out.unlink(missing_ok=True)
            try:
                code = cli.main(argv + ["-o", str(out)])
            except SystemExit as e:
                code = ("exit", e.code)
            outputs.append((code, out.read_bytes() if out.exists() else None,
                            capsys.readouterr().err))
        return outputs

    cached = run()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = run()
    assert cached == fresh
    assert [c for c, _, _ in cached] == [0] * 6 + [("exit", 2), 0]
    assert cached[0][1] != cached[1][1] and cached[2][1] != cached[7][1]
    assert "wrote" in cached[4][2] and cached[5][2] == ""
