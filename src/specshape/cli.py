"""Batch front-end: JSON scenario files in, CSV or JSON results out.

Scenario files carry a "kind" discriminator (uncoded, multilegacy, coded,
mimo). Numeric parameters may be given in dB by suffixing the key with
"_db"; conversion to linear happens once at load and unknown keys are
rejected. Commands:

    specshape rate-curve  scenario.json -o out.csv
    specshape prelog-mesh scenario.json -o out.csv
    specshape solve       scenario.json -o out.json

Exit codes: 0 success, 2 input error, 3 infeasible scenario, 4 solver
non-convergence or a non-finite result. Output files are written only after
the computation succeeds, with fixed 12-significant-digit formatting so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import coded as coded_mod
from . import mimo as mimo_mod
from . import multilegacy as multi_mod
from . import shaping
from .errors import InfeasibleScenarioError, SolverError
from .estimation import UncodedScenario
from .spectra import (FrequencyGrid, Spectrum, ar1_spectrum, flat_spectrum,
                      make_grid, mean_power, tabulated_spectrum)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

_KINDS = ("uncoded", "multilegacy", "coded", "mimo")
_FLOAT_MAX = sys.float_info.max


class SchemaError(ValueError):
    """Scenario file violates the expected schema."""


def db_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _finite(x: float) -> float:
    """Pass a result number through; NaN and infinities must not reach a file."""
    if not math.isfinite(x):
        raise SolverError("the result is not finite")
    return x


class _Params:
    """Strict key extraction with one-shot dB conversion."""

    def __init__(self, doc: dict, context: str):
        if not isinstance(doc, dict):
            raise SchemaError(f"{context}: expected a JSON object")
        self._doc = dict(doc)
        self._ctx = context

    def value(self, name: str) -> float:
        has_lin, has_db = name in self._doc, f"{name}_db" in self._doc
        if has_lin and has_db:
            raise SchemaError(f"{self._ctx}: give either {name} or {name}_db, not both")
        if has_lin:
            v = self._doc.pop(name)
        elif has_db:
            try:
                v = db_to_linear(self._number(f"{name}_db", self._doc.pop(f"{name}_db")))
            except OverflowError as e:
                raise SchemaError(f"{self._ctx}: {name}_db is out of range") from e
        else:
            raise SchemaError(f"{self._ctx}: missing required parameter {name}")
        return self._number(name, v)

    def raw(self, name: str, required: bool = True):
        if name in self._doc:
            return self._doc.pop(name)
        if required:
            raise SchemaError(f"{self._ctx}: missing required key {name}")
        return None

    def has(self, name: str) -> bool:
        return name in self._doc or f"{name}_db" in self._doc

    def finish(self):
        if self._doc:
            raise SchemaError(f"{self._ctx}: unknown keys {sorted(self._doc)}")

    def _number(self, name, v) -> float:
        # abs(v) <= max is False for NaN, infinities and ints beyond float range
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= _FLOAT_MAX:
            raise SchemaError(f"{self._ctx}: {name} must be a finite number")
        return float(v)


def _load_doc(path: str) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return doc


def _kind(p: _Params) -> str:
    kind = p.raw("kind")
    if kind not in _KINDS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    return kind


def _legacy_spectrum(p: _Params, grid: FrequencyGrid) -> Spectrum:
    values = p.raw("phi_s_values", required=False)
    eps = p.raw("epsilon", required=False)
    if values is not None:
        if eps is not None:
            raise SchemaError("give either epsilon or phi_s_values, not both")
        return tabulated_spectrum(grid, _array(values, "phi_s_values"))
    variance = p.value("sigma2_s")
    if eps is not None:
        return ar1_spectrum(grid, variance, p._number("epsilon", eps))
    return flat_spectrum(grid, variance)


def _power_sweep(p: _Params) -> tuple[np.ndarray, np.ndarray]:
    sw = _Params(p.raw("power_sweep_db"), "power_sweep_db")
    start = sw._number("start", sw.raw("start"))
    stop = sw._number("stop", sw.raw("stop"))
    points = sw.raw("points")
    sw.finish()
    if not isinstance(points, int) or isinstance(points, bool) or points < 0:
        raise SchemaError("power_sweep_db.points must be a nonnegative integer")
    db = np.linspace(start, stop, points)
    with np.errstate(over="ignore"):
        powers = 10.0 ** (db / 10.0)
    if not np.all(np.isfinite(powers)):
        raise SchemaError("power_sweep_db: powers out of range")
    return db, powers


def _uncoded_scenario(p: _Params, grid: FrequencyGrid, P: float = 1.0) -> UncodedScenario:
    phi_s = _legacy_spectrum(p, grid)
    noise_values = p.raw("phi_n_values", required=False)
    if noise_values is not None:
        phi_n = tabulated_spectrum(grid, _array(noise_values, "phi_n_values"))
    else:
        phi_n = flat_spectrum(grid, p.value("sigma2_n"))
    return UncodedScenario(a=p.value("a"), phi_s=phi_s, phi_n=phi_n,
                           D=p.value("D"), P=P)


def _legacy_link(p: _Params) -> dict:
    """The gains, noise powers and legacy rate R_l of a coded or mimo file, as
    keyword arguments; read in one fixed order, so the first bad key reported
    is the same for both kinds."""
    a_l = p.value("a_l")
    sigma2_s = p.value("sigma2_s")
    sigma2_nl = p.value("sigma2_nl")
    has_load = "legacy_load" in p._doc
    if has_load == p.has("R_l"):
        raise SchemaError("give exactly one of legacy_load or R_l (R_l in nats)")
    if has_load:
        load = p._number("legacy_load", p.raw("legacy_load"))
        R_l = load * math.log1p(a_l * sigma2_s / sigma2_nl)
    else:
        R_l = p.value("R_l")
    return dict(a_l=a_l, g_l=p.value("g_l"), a_c=p.value("a_c"), g_c=p.value("g_c"),
                sigma2_s=sigma2_s, sigma2_nl=sigma2_nl, sigma2_nc=p.value("sigma2_nc"),
                R_l=R_l)


def _array(raw, name: str) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{name}: not a rectangular numeric array ({e})") from e


def _complex_array(raw, name: str, ndim: int) -> np.ndarray:
    """Real nested lists of the expected depth, or one extra trailing level of
    [re, im] pairs for complex entries."""
    arr = _array(raw, name)
    if arr.ndim == ndim:
        return arr.astype(complex)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise SchemaError(
        f"{name}: expected a rank-{ndim} real array or rank-{ndim} array of [re, im] pairs")


def _mimo_channel(p: _Params) -> mimo_mod.MimoChannel:
    H_c = _complex_array(p.raw("H_c"), "H_c", ndim=2)
    h_l = _complex_array(p.raw("h_l"), "h_l", ndim=1)
    h_c = _complex_array(p.raw("h_c"), "h_c", ndim=1)
    return mimo_mod.MimoChannel(H_c=H_c, h_l=h_l, h_c=h_c, **_legacy_link(p))


def _multilegacy_scenario(p: _Params, grid: FrequencyGrid) -> multi_mod.MultiLegacyScenario:
    spec_p = _Params(p.raw("spectrum"), "spectrum")
    kind = spec_p.raw("type")
    if kind == "flat":
        phi_s = flat_spectrum(grid, spec_p.value("sigma2_s"))
    elif kind == "ar1":
        phi_s = ar1_spectrum(grid, spec_p.value("sigma2_s"),
                             spec_p._number("epsilon", spec_p.raw("epsilon")))
    elif kind == "tabulated":
        phi_s = tabulated_spectrum(grid, _array(spec_p.raw("values"), "spectrum.values"))
    else:
        raise SchemaError(f"spectrum.type must be flat, ar1 or tabulated, not {kind!r}")
    spec_p.finish()
    rec_list = p.raw("receivers")
    if not isinstance(rec_list, list) or not rec_list:
        raise SchemaError("receivers must be a non-empty list")
    receivers = []
    for i, rdoc in enumerate(rec_list):
        rp = _Params(rdoc, f"receivers[{i}]")
        receivers.append(multi_mod.LegacyReceiver(
            a=rp.value("a"),
            phi_n=flat_spectrum(grid, rp.value("sigma2_n")),
            D=rp.value("D")))
        rp.finish()
    return multi_mod.MultiLegacyScenario(phi_s=phi_s, receivers=tuple(receivers))


def _rate_factor(log_base: str) -> float:
    return 1.0 if log_base == "e" else 1.0 / math.log(2.0)


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _float_texts(values: np.ndarray) -> list[str]:
    """repr(float(_fmt(x))) for each x of a float64 array, one format per run.

    Solver output holds long runs of one value: zero stretches off the
    support and in the boundary cells, one water level across a flat
    spectrum. So each run of bit-equal neighbours is formatted once, at its
    first entry, and that text is repeated over the run. Runs are found on
    the bits, not with ==, because 0.0 == -0.0 while their texts differ
    ("0.0" and "-0.0"); bit-equal floats always share a text.

    The run starts are formatted with one %.12g pass. A normal float rounded
    to 12 significant digits has a unique shortest repr, and it has the
    digits of its %.12g form. The two layouts differ only where repr appends
    ".0" or stays positional, that is on integral values (every rounded
    value of 1e12 or more is one), and below the normal range, where repr
    keeps fewer digits. Rounding to 12 digits moves x by at most 5e-12 |x|,
    so every such entry has |x| >= 1e11, |x| < 2.3e-308 or x within
    1e-11 |x| of an integer; those entries are laid out by repr, and on the
    others repr gives the %.12g text back.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise SolverError("the result is not finite")
    bits = values.view(np.int64)
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    firsts = values[starts]
    texts = (("%.12g " * firsts.size) % tuple(firsts.tolist())).split()
    mag = np.abs(firsts)
    redo = ((mag >= 1e11) | (mag < 2.3e-308)
            | (np.abs(firsts - np.rint(firsts)) <= 1e-11 * mag))
    for i in np.flatnonzero(redo).tolist():
        texts[i] = repr(float(texts[i]))
    if starts.size < values.size:
        runs = np.diff(starts, append=values.size)
        texts = np.repeat(np.array(texts, dtype=object), runs).tolist()
    return texts


def _block(opening: str, items: list[str], closing: str, pad: str) -> str:
    if not items:
        return opening + closing
    inner = "\n" + pad + "  "
    return opening + inner + ("," + inner).join(items) + "\n" + pad + closing


def _json_text(obj, pad: str = "") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) lays it out, with each
    float written as repr(float(_fmt(x))) and numpy arrays written as lists.
    NaN and infinities raise SolverError."""
    inner = pad + "  "
    if isinstance(obj, dict):
        return _block("{", [f"{json.dumps(k)}: {_json_text(v, inner)}"
                            for k, v in sorted(obj.items())], "}", pad)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            items = _float_texts(obj)
        elif obj.ndim == 1 and obj.dtype.kind in "iu":
            items = list(map(str, obj.tolist()))
        else:
            items = [_json_text(v, inner) for v in obj.tolist()]
        return _block("[", items, "]", pad)
    if isinstance(obj, (list, tuple)):
        return _block("[", [_json_text(v, inner) for v in obj], "]", pad)
    if isinstance(obj, float):
        return repr(float(_fmt(_finite(obj))))
    return json.dumps(obj)


def _write_json(path: str, payload: dict):
    Path(path).write_text(_json_text(payload) + "\n")


# Each command reads its keys from the scenario file and returns the
# computation: `main` runs it once no key is left over, so a file with an
# unknown key fails before any solve. Rate curves and meshes compute the CSV
# header and rows, `solve` the JSON payload.

def _rate_curve(p: _Params, kind: str, grid_points: int, factor: float):
    """Rate versus power for an uncoded or coded scenario."""
    if kind == "uncoded":
        db_axis, powers = _power_sweep(p)
        sc = _uncoded_scenario(p, make_grid(grid_points))

        def uncoded_rows():
            shaped = shaping.rate_curve(sc, powers, shaping.CurveMethod.SPECTRUM_SHAPING)
            try:
                it = shaping.rate_curve(sc, powers, shaping.CurveMethod.INTERFERENCE_TEMPERATURE)
                it_rates = [_finite(r) for _, r in it]
            except InfeasibleScenarioError:
                # An infeasible memoryless receiver is marked by NaN in its column.
                it_rates = [math.nan] * len(powers)
            return ["P_db", "rate_it", "rate_shaping"], [
                [_fmt(db), _fmt(r_it * factor), _fmt(_finite(r_sh) * factor)]
                for db, r_it, (_, r_sh) in zip(db_axis, it_rates, shaped)]
        return uncoded_rows
    if kind == "coded":
        db_axis, powers = _power_sweep(p)
        sc0 = coded_mod.CodedScenario(**_legacy_link(p), P=1.0)

        def coded_rows():
            rows = []
            for db, pw in zip(db_axis, powers):
                sol = coded_mod.solve_coded(replace(sc0, P=pw))
                rows.append([_fmt(db), _fmt(_finite(sol.rate) * factor), sol.case_tag.value])
            return ["P_db", "rate", "case_tag"], rows
        return coded_rows
    raise SchemaError("rate-curve requires an uncoded or coded scenario")


def _prelog_mesh(p: _Params, kind: str, grid_points: int, factor: float):
    """High-power prelog over a (D/sigma2_s, a*sigma2_s/sigma2_n) mesh.

    Prelogs are slope ratios, so the log base does not enter; infeasible
    cells emit prelog 0.
    """
    if kind != "uncoded":
        raise SchemaError("prelog-mesh requires an uncoded scenario")
    mesh = _Params(p.raw("mesh"), "mesh")
    d_ratios = mesh.raw("d_ratio")
    snr_dbs = mesh.raw("snr_db")
    mesh.finish()
    for name, axis in (("d_ratio", d_ratios), ("snr_db", snr_dbs)):
        if not isinstance(axis, list) or not axis:
            raise SchemaError(f"mesh.{name} must be a non-empty list")
    d_ratios = [mesh._number("d_ratio", v) for v in d_ratios]
    snr_dbs = [mesh._number("snr_db", v) for v in snr_dbs]
    grid = make_grid(grid_points)
    phi_s = _legacy_spectrum(p, grid)
    sigma2_n = p.value("sigma2_n")
    return lambda: (["d_ratio", "snr_db", "prelog"],
                    _mesh_rows(grid, phi_s, sigma2_n, d_ratios, snr_dbs))


def _mesh_rows(grid: FrequencyGrid, phi_s: Spectrum, sigma2_n: float,
               d_ratios: list[float], snr_dbs: list[float]) -> list[list[str]]:
    sigma2_s = mean_power(phi_s)
    if sigma2_s == 0:
        raise SchemaError("prelog-mesh needs a legacy spectrum of positive power: "
                          "the mesh axes are ratios to sigma2_s")
    phi_n = flat_spectrum(grid, sigma2_n)

    try:
        gains = [db_to_linear(snr_db) * sigma2_n / sigma2_s for snr_db in snr_dbs]
    except OverflowError as e:
        raise SchemaError("mesh.snr_db is out of range") from e

    # UncodedScenario checks each target here, at the first gain, and each
    # gain where the loop below makes its scenario.
    cells = [UncodedScenario(a=gains[0], phi_s=phi_s, phi_n=phi_n, D=d_ratio * sigma2_s, P=1.0)
             for d_ratio in d_ratios]
    # The noise is flat, so u = a*phi_s^2/(a*phi_s + sigma2_n) rises with
    # phi_s at every gain: one stable sort of phi_s orders the cells, and
    # their weights, for the whole mesh. A gain needs only its u along that
    # order, the running sums of w*u and its smoothing floor. Rounding can
    # swap the u of two cells, so the order serves a gain only where it is
    # np.argsort(u, kind="stable"): u rising along it, indices rising where u
    # ties. Any other gain sorts in a workspace of its own.
    order = np.argsort(phi_s.values, kind="stable")
    rising = order[1:] > order[:-1]
    wts = grid.weights[order]
    cumw = shaping._prefix_sums(wts)[1:]
    columns = []
    for a in gains:
        sc = replace(cells[0], a=a)
        u, _, dlow = shaping._preemphasis(sc)
        us = u[order]
        if ((us[1:] > us[:-1]) | ((us[1:] == us[:-1]) & rising)).all():
            cum = shaping._prefix_sums(wts * us)[1:] / np.pi
            columns.append([shaping._onoff_support(cumw, wts, us, cum, c.D - dlow)[0]
                            for c in cells])
        else:
            ws = shaping._Workspace(sc)
            columns.append([shaping._onoff_support_ws(ws, c.D)[0] for c in cells])
    return [[_fmt(d_ratio), _fmt(snr_db), _fmt(column[i])]
            for i, d_ratio in enumerate(d_ratios)
            for snr_db, column in zip(snr_dbs, columns)]


def _solve(p: _Params, kind: str, grid_points: int, factor: float):
    """One scenario of any kind, as a JSON payload."""
    return {"uncoded": _solve_uncoded, "multilegacy": _solve_multilegacy,
            "coded": _solve_coded, "mimo": _solve_mimo}[kind](p, grid_points, factor)


def _solve_uncoded(p: _Params, grid_points: int, factor: float):
    grid = make_grid(grid_points)
    P = p.value("P")
    sc = _uncoded_scenario(p, grid, P=P)

    def payload() -> dict:
        ws = shaping._Workspace(sc)
        sol = shaping._solve_ws(ws, P)
        if sol.case_tag is shaping.CaseTag.INFEASIBLE:
            raise InfeasibleScenarioError(
                "distortion target below the zero-transmission smoothing floor")
        prelog, gamma, _ = shaping._onoff_support_ws(ws, sc.D)
        return {
            "kind": "uncoded",
            "case_tag": sol.case_tag.value,
            "rate": sol.rate * factor,
            "mse": sol.mse,
            "power": sol.power,
            "lambda": sol.lam,
            "mu": sol.mu,
            "prelog": prelog,
            "gamma": gamma,
            "omega": grid.omegas,
            "phi_x": sol.phi_x.values,
        }
    return payload


def _solve_multilegacy(p: _Params, grid_points: int, factor: float):
    grid = make_grid(grid_points)
    sc = _multilegacy_scenario(p, grid)

    def payload() -> dict:
        res = multi_mod.max_prelog_support(sc)
        low_noise = multi_mod.low_noise_support(sc)
        return {
            "kind": "multilegacy",
            "prelog": res.prelog,
            "support_fraction": res.support_fraction,
            "support": res.support.astype(int),
            "budgets": res.budgets,
            "spent": res.spent,
            "low_noise_support_fraction":
                float(grid.weights[low_noise].sum()) / math.pi,
        }
    return payload


def _solve_coded(p: _Params, grid_points: int, factor: float):
    P = p.value("P")
    sc = coded_mod.CodedScenario(**_legacy_link(p), P=P)

    def payload() -> dict:
        sol = coded_mod.solve_coded(sc)
        return {
            "kind": "coded",
            "case_tag": sol.case_tag.value,
            "w": sol.w,
            "phi0": sol.phi0,
            "rate": sol.rate * factor,
            "prelog": coded_mod.coded_prelog(sc),
            "residuals": dict(sol.residuals),
        }
    return payload


def _solve_mimo(p: _Params, grid_points: int, factor: float):
    P = p.value("P")
    ch = _mimo_channel(p)

    def payload() -> dict:
        sol = mimo_mod.solve_mimo(ch, P, grid=make_grid(grid_points))
        return {
            "kind": "mimo",
            "mode": sol.mode.value,
            "w": sol.w,
            "rate": sol.rate * factor,
            "prelog": mimo_mod.mimo_prelog(ch),
            "residuals": dict(sol.residuals),
            "phi0_matrix": [[[float(z.real), float(z.imag)] for z in row]
                            for row in sol.psd.level],
        }
    return payload


_COMMANDS = {"rate-curve": _rate_curve, "prelog-mesh": _prelog_mesh, "solve": _solve}


# built once per process: parse_args keeps no state between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specshape",
        description="Cognitive-radio spectrum shaping scenario runner")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (("rate-curve", "rate vs power CSV"),
                           ("prelog-mesh", "prelog mesh CSV"),
                           ("solve", "single solution JSON")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("file", help="scenario JSON file")
        sp.add_argument("-o", "--output", required=True, help="output path")
        sp.add_argument("--grid", type=int, default=4096,
                        help="frequency grid points (default 4096)")
        sp.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="log base for reported rates (default e)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress notes")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        p = _Params(_load_doc(args.file), args.file)
        compute = _COMMANDS[args.command](p, _kind(p), args.grid, _rate_factor(args.log_base))
        p.finish()
        result = compute()
        if args.command == "solve":
            result["log_base"] = args.log_base
            _write_json(args.output, result)
            note = f"wrote {args.output}"
        else:
            _write_csv(args.output, *result)
            note = f"wrote {len(result[1])} rows to {args.output}"
    except InfeasibleScenarioError as e:
        print(f"infeasible scenario: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as e:
        print(f"solver failed to converge: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (SchemaError, OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if not args.quiet:
        print(note, file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
