"""The three workloads: seeded inputs, the batch of timed items, a warm-up
call of each kind, and the output checks.

Every input is drawn from `numpy.random.default_rng(seed)` around a fixed
template, in ways that leave the cost of the work unchanged (see each class),
so every seed runs the same mix of operations at the same cost. The program
is reached only through module attributes (`shaping.solve`, `cli.main`, ...)
so that the tracer's wrappers see every call. Checks compare against
`reference`, never against stored outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (ar1_values, band_mean, coded_dense_best, coded_legacy_rate,
                       coded_prelog, exact_waterfill, flat_interference_temperature_rate,
                       flat_onoff_rate, interference_temperature_rate, interpolated_values,
                       log_rate, loglog_slope, matrix_rank, preemphasis_mass,
                       smoothing_floor, smoothing_mse, threshold_prelog,
                       trapezoid_weights, waterfill_mse)

RTOL = 1e-9


@dataclass
class Item:
    label: str
    grid: int          # grid points the item works on; 0 when it has none
    points: int        # solved operating points the item yields
    call: Callable[[], object]


class Workload:
    """A fixed batch of items built from a seed; see the subclasses.

    `plan` is the benchmark's own preparation: draws from the seed, reference
    numerics and scenario files. `build` makes the program's objects from the
    plan and the timed items that call the program. Set-up time counts
    `build` but not `plan`. `round_seconds` is about how long one round of
    the batch takes on the reference machine described in README.md."""

    round_seconds: float

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.items: list[Item] = []

    def jit(self, x: float, r: float = 0.1) -> float:
        return float(x * (1.0 + self.rng.uniform(-r, r)))

    def unit(self) -> float:
        """A scale factor, log-uniform over two decades around 1."""
        return float(10.0 ** self.rng.uniform(-1.0, 1.0))

    def plan(self):
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError


# --- shaping-sweep -----------------------------------------------------------

@dataclass
class _Uncoded:
    kind: str
    n: int
    s: np.ndarray
    s2n: float
    a: float
    D: float
    s2s: float = 1.0
    shape: object = None     # AR(1) innovation rate or tabulated knots
    p_min: float = 1.0


class ShapingSweep(Workload):
    """rate_curve curves and fresh solve calls, both constraints active.

    Each slot fixes a spectrum shape, a support fraction and a power P0; the
    legacy gain is A0 throughout. D is set so that the high-power on-off
    support covers about that fraction of the band, which keeps every power
    of the item in the both-active regime. The seed draws, per slot, a unit
    c: the program sees sigma2_s = 1/c, sigma2_n = c, a = A0*c^2, P = c*P0
    and D = D0/c. This changes every number it is given but, by the model's
    exact scale invariances, not the problem: the noise-plus-legacy floor
    scales by c, the MSE by 1/c, rates not at all, and a*phi_s^2 (hence the
    tilt nu that the solver brackets with an absolute tolerance) stays fixed.
    Every seed therefore asks for the same work; drawing shapes, gains and
    targets from the seed instead moved a batch's cost by about 30% between
    seeds. Slots below MID_POWER keep c = 1 on every seed: there the
    search's cost jumps with rounding (see the FOUND line on
    `_evaluate_support` in CHANGES.md), so a drawn unit would move it. Flat
    spectra start at P = 1e4: below that, flat case-2 solves fail on some
    inputs.
    """

    round_seconds = 4.2
    A0 = 1000.0
    MID_POWER = 1e4
    CURVE_POWERS = (1e5, 1e6, 1e7, 1e8)
    # (grid, spectrum kind, AR(1) innovation rate or tabulated-knots seed,
    #  support fraction, power P0; None for a curve). Powers are high and
    #  supports narrow where the case-2 search's cost is least sensitive to
    #  rounding (see README, "Seeds"); the two P0 = 1e2 solves stand for the
    #  mid-power points of the figure curves.
    SLOTS = [(512, "flat", None, 0.05, None),
             (512, "ar1", 0.3, 0.03, None),
             (512, "tab", 1, 0.03, None),
             (4096, "flat", None, 0.05, None),
             (4096, "ar1", 0.3, 0.03, None),
             (512, "ar1", 0.6, 0.03, 1e8),
             (512, "ar1", 0.9, 0.03, 1e8),
             (512, "tab", 1, 0.1, 1e8),
             (512, "flat", None, 0.08, 1e4),
             (512, "ar1", 0.3, 0.1, 1e2),
             (4096, "ar1", 0.6, 0.03, 1e8),
             (4096, "ar1", 0.9, 0.03, 1e8),
             (4096, "ar1", 0.3, 0.03, 1e8),
             (4096, "tab", 1, 0.03, 1e8),
             (4096, "tab", 1, 0.03, 1e6),
             (4096, "flat", None, 0.08, 1e6),
             (4096, "ar1", 0.6, 0.1, 1e2),
             (32768, "flat", None, 0.08, 1e4),
             (32768, "flat", None, 0.05, 1e8),
             (32768, "ar1", 0.3, 0.03, 1e8),
             (32768, "ar1", 0.6, 0.03, 1e8),
             (32768, "ar1", 0.9, 0.03, 1e8),
             (32768, "tab", 1, 0.03, 1e8)]

    def _case(self, n, kind, shape, frac, p_min, c):
        """Reference samples and the D target of one slot at unit c."""
        s2s, s2n, a = 1.0 / c, c, self.A0 * c * c
        if kind == "flat":
            s = np.full(n, s2s)
        elif kind == "ar1":
            s = ar1_values(n, s2s, shape)
        else:
            shape = s2s * np.exp(np.random.default_rng(shape).uniform(-0.5, 0.5, 9))
            s = interpolated_values(n, shape)
        noise = np.full(n, s2n)
        D = smoothing_floor(s, noise, a) + preemphasis_mass(s, noise, a, frac)
        if D >= waterfill_mse(a * s + noise, s, noise, a, p_min):
            raise RuntimeError(f"{kind}/n{n}: D={D} leaves the both-active regime at P={p_min}")
        return _Uncoded(kind, n, s, s2n, a, D, s2s, shape, p_min)

    def _scenario(self, case):
        """The program's scenario for a planned case."""
        from specshape import estimation, spectra
        if case.n not in self.grids:
            self.grids[case.n] = spectra.make_grid(case.n)
        grid = self.grids[case.n]
        if case.kind == "flat":
            phi_s = spectra.flat_spectrum(grid, case.s2s)
        elif case.kind == "ar1":
            phi_s = spectra.ar1_spectrum(grid, case.s2s, case.shape)
        else:
            phi_s = spectra.tabulated_spectrum(grid, case.shape)
        return estimation.UncodedScenario(case.a, phi_s, spectra.flat_spectrum(grid, case.s2n),
                                          case.D, case.p_min)

    def plan(self):
        self.cases = []
        for n, kind, shape, frac, P0 in self.SLOTS:
            c = 1.0 if P0 is not None and P0 < self.MID_POWER else self.unit()
            powers = [c * p for p in (self.CURVE_POWERS if P0 is None else [P0])]
            self.cases.append((self._case(n, kind, shape, frac, powers[0], c), powers))
        self.warm_case = self._case(512, "flat", None, 0.05, 1e4, 1.0)

    def build(self):
        from specshape import shaping
        self.grids = {}
        for case, powers in self.cases:
            sc = self._scenario(case)
            if len(powers) > 1:
                self.items.append(Item(
                    f"curve/{case.kind}/n{case.n}", case.n, len(powers),
                    lambda sc=sc, pw=powers: shaping.rate_curve(sc, pw, "SpectrumShaping")))
            else:
                self.items.append(Item(f"solve/{case.kind}/n{case.n}/P{powers[0]:.3g}",
                                       case.n, 1, lambda sc=sc: shaping.solve(sc)))
        self.warm = self._scenario(self.warm_case)

    def warmup(self):
        from specshape import shaping
        shaping.rate_curve(self.warm, [1e4, 1e5], "SpectrumShaping")
        shaping.solve(self.warm)

    def check(self, outputs):
        bad = []
        for item, (case, powers), out in zip(self.items, self.cases, outputs):
            if out is None:
                continue
            where = item.label
            base = case.a * case.s + case.s2n
            s2s = band_mean(case.s)
            rates = [r for _, r in out] if item.points > 1 else [out.rate]
            for P, r in zip(powers, rates):
                it = interference_temperature_rate(base, s2s, case.s2n, case.a, case.D, P)
                if r < it - RTOL * max(1.0, it):
                    bad.append(f"{where}: shaping rate {r} below interference temperature {it} at P={P}")
                if case.kind == "flat":
                    cf = flat_onoff_rate(s2s, case.s2n, case.a, case.D, P)
                    if abs(r - cf) > 1e-6 * cf:
                        bad.append(f"{where}: rate {r} != closed form {cf} at P={P}")
            if item.points > 1:
                if any(b < a for a, b in zip(rates, rates[1:])):
                    bad.append(f"{where}: curve decreases in P")
                prelog = threshold_prelog(case.s, np.full(case.n, case.s2n), case.a, case.D)
                slope = loglog_slope(powers[-3:], rates[-3:])
                if abs(slope - prelog) > 0.02 * prelog:
                    bad.append(f"{where}: high-power slope {slope} vs prelog {prelog}")
                continue
            bad += self._check_psd(where, case, powers[0], out)
        return bad

    @staticmethod
    def _check_psd(where, case, P, sol):
        bad = []
        if sol.case_tag.value != "BothConstraintsActive":
            bad.append(f"{where}: case {sol.case_tag.value}, expected both constraints active")
        phi = np.asarray(sol.phi_x.values)
        noise = np.full(case.n, case.s2n)
        base = case.a * case.s + noise
        power = band_mean(phi)
        if power > P * (1 + RTOL):
            bad.append(f"{where}: phi_x power {power} exceeds P={P}")
        mse = smoothing_mse(phi, case.s, noise, case.a)
        if mse > case.D * (1 + RTOL):
            bad.append(f"{where}: phi_x MSE {mse} exceeds D={case.D}")
        r = log_rate(phi, base)
        on = phi > 0
        cell = (math.pi / (case.n - 1)) / math.pi * float(np.max(np.log1p(phi[on] / base[on]))) \
            if on.any() else math.inf
        if r > sol.rate * (1 + RTOL):
            bad.append(f"{where}: phi_x rate {r} above the reported rate {sol.rate}")
        if sol.rate - r > cell:
            bad.append(f"{where}: phi_x rate {r} short of {sol.rate} by more than one cell ({cell})")
        return bad


# --- analytic-cli ------------------------------------------------------------

def _exit_ok(code: int, argv) -> int:
    if code != 0:
        raise RuntimeError(f"specshape {' '.join(argv)} exited with {code}")
    return code


class AnalyticCli(Workload):
    """specshape commands through cli.main on generated scenario files.

    The seed jitters variances, gains, targets and mesh axes by a few
    percent. These commands sort, fill with a fixed-length bisection or fill
    greedily, so the jitter barely moves their cost.
    """

    round_seconds = 0.9

    MESHES = [(4096, 10), (32768, 6)]                 # (grid, axis length)
    CURVES = [(512, "flat"), (512, "ar1"), (4096, "flat"), (4096, "ar1")]
    CURVE_POINTS = 9
    SOLVES = [(512, "flat", 3.0), (4096, "ar1", 30.0), (4096, "tab", 10.0),
              (32768, "flat", 100.0), (32768, "ar1", 1.0)]
    MULTI = [(512, "ar1", 2), (512, "tab", 4), (4096, "flat", 3), (4096, "ar1", 4)]

    def _write(self, name, doc):
        path = self.scratch / f"{name}.in.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _command(self, label, grid, points, command, doc, out_suffix, expect):
        src = self._write(label, doc)
        out = str(self.scratch / f"{label}.out.{out_suffix}")
        argv = [command, src, "-o", out, "--grid", str(grid), "--quiet"]
        self.commands.append((f"{command}/{label}", grid, points, argv))
        self.expect.append((out, doc, grid, expect))

    def _spectrum(self, kind, n):
        """Scenario keys for the legacy spectrum plus its samples on n points."""
        s2s = self.jit(1.0)
        if kind == "flat":
            return {"sigma2_s": s2s}, np.full(n, s2s)
        if kind == "ar1":
            eps = self.jit(0.2, 0.5)
            return {"sigma2_s": s2s, "epsilon": eps}, ar1_values(n, s2s, eps)
        knots = list(s2s * np.exp(self.rng.uniform(-1.0, 1.0, 9)))
        return {"phi_s_values": knots}, interpolated_values(n, knots)

    def plan(self):
        self.commands = []
        self.expect = []
        for n, m in self.MESHES:
            d = np.sort(np.linspace(0.02, 0.5, m) * [self.jit(1.0, 0.05) for _ in range(m)])
            snr = np.linspace(0.0, 30.0, m) + self.rng.uniform(-0.5, 0.5, m)
            mesh = {"d_ratio": list(d), "snr_db": list(snr)}
            s2s, s2n = self.jit(1.0), self.jit(1.0)
            eps = self.jit(0.2, 0.5)
            for kind, extra in (("flat", {}), ("ar1", {"epsilon": eps})):
                doc = {"kind": "uncoded", "sigma2_s": s2s, "sigma2_n": s2n, "mesh": mesh, **extra}
                self._command(f"mesh-{kind}-n{n}", n, m * m, "prelog-mesh", doc, "csv", "mesh")
        for i, (n, kind) in enumerate(self.CURVES):
            keys, s = self._spectrum(kind, n)
            s2n, a = self.jit(1.0), self.jit(10.0, 0.5)
            start = self.jit(-10.0)
            stop = start + 40.0
            noise = np.full(n, s2n)
            worst = max(waterfill_mse(a * s + noise, s, noise, a, 10.0 ** (db / 10.0))
                        for db in np.linspace(start, stop, self.CURVE_POINTS))
            doc = {"kind": "uncoded", **keys, "sigma2_n": s2n, "a": a,
                   "D": worst * self.jit(1.15, 0.1),
                   "power_sweep_db": {"start": start, "stop": stop,
                                      "points": self.CURVE_POINTS}}
            self._command(f"curve-{kind}-{i}-n{n}", n, self.CURVE_POINTS, "rate-curve",
                          doc, "csv", ("curve", s))
        for i, (n, kind, P) in enumerate(self.SOLVES):
            keys, s = self._spectrum(kind, n)
            s2n, a, P = self.jit(1.0), self.jit(10.0, 0.5), self.jit(P)
            noise = np.full(n, s2n)
            D = waterfill_mse(a * s + noise, s, noise, a, P) * self.jit(1.15, 0.1)
            doc = {"kind": "uncoded", **keys, "sigma2_n": s2n, "a": a, "D": D, "P": P}
            self._command(f"solve-{kind}-{i}-n{n}", n, 1, "solve", doc, "json", ("solve", s))
        for i, (n, kind, K) in enumerate(self.MULTI):
            keys, s = self._spectrum(kind, n)
            spec = ({"type": "flat", "sigma2_s": keys["sigma2_s"]} if kind == "flat" else
                    {"type": "ar1", "sigma2_s": keys["sigma2_s"], "epsilon": keys["epsilon"]}
                    if kind == "ar1" else {"type": "tabulated", "values": keys["phi_s_values"]})
            receivers = []
            for _ in range(K):
                a, s2n = self.jit(1000.0, 0.2), self.jit(1.0, 0.2)
                floor = smoothing_floor(s, np.full(n, s2n), a)
                receivers.append({"a": a, "sigma2_n": s2n, "D": floor * self.jit(6.0, 0.2)})
            doc = {"kind": "multilegacy", "spectrum": spec, "receivers": receivers}
            self._command(f"multi-{kind}-{i}-n{n}", n, 1, "solve", doc, "json", ("multi", s))
        # tiny documents of each command for the warm-up call
        warm = {"kind": "uncoded", "sigma2_s": 1.0, "sigma2_n": 1.0, "a": 10.0, "D": 0.9}
        w_mesh = self._write("warm-mesh", {"kind": "uncoded", "sigma2_s": 1.0, "sigma2_n": 1.0,
                                           "mesh": {"d_ratio": [0.1], "snr_db": [10.0]}})
        w_curve = self._write("warm-curve", {**warm, "power_sweep_db":
                                             {"start": 0.0, "stop": 10.0, "points": 2}})
        w_solve = self._write("warm-solve", {**warm, "P": 1.0})
        w_multi = self._write("warm-multi", {"kind": "multilegacy", "spectrum":
                                             {"type": "flat", "sigma2_s": 1.0}, "receivers":
                                             [{"a": 10.0, "sigma2_n": 1.0, "D": 0.5}] * 2})
        out = str(self.scratch / "warm.out")
        self.warm = [[c, f, "-o", out, "--grid", "512", "--quiet"] for c, f in
                     (("prelog-mesh", w_mesh), ("rate-curve", w_curve),
                      ("solve", w_solve), ("solve", w_multi))]

    def build(self):
        from specshape import cli
        for label, grid, points, argv in self.commands:
            self.items.append(Item(label, grid, points,
                                   lambda argv=argv: _exit_ok(cli.main(argv), argv)))

    def warmup(self):
        from specshape import cli
        for argv in self.warm:
            _exit_ok(cli.main(argv), argv)

    def check(self, outputs):
        bad = []
        meshes = {}
        for item, (out, doc, n, expect), code in zip(self.items, self.expect, outputs):
            if code is None:
                continue
            if expect == "mesh":
                bad += self._check_mesh(item, doc, n, out, meshes)
            elif expect[0] == "curve":
                bad += self._check_curve(item, doc, out, expect[1])
            elif expect[0] == "solve":
                bad += self._check_solve(item, doc, out, expect[1])
            else:
                bad += self._check_multi(item, doc, out, expect[1])
        for n, _ in self.MESHES:
            flat, ar = meshes.get(("flat", n)), meshes.get(("ar1", n))
            if flat is not None and ar is not None and np.any(ar < flat - 1e-12):
                bad.append(f"mesh n{n}: an AR(1) prelog is below the flat prelog")
        return bad

    @staticmethod
    def _rows(path):
        with open(path, newline="") as f:
            return list(csv.DictReader(f))

    def _check_mesh(self, item, doc, n, out, meshes):
        bad = []
        rows = self._rows(out)
        if len(rows) != item.points:
            return [f"{item.label}: {len(rows)} rows, expected {item.points}"]
        s = (ar1_values(n, doc["sigma2_s"], doc["epsilon"]) if "epsilon" in doc
             else np.full(n, doc["sigma2_s"]))
        s2s = band_mean(s)
        noise = np.full(n, doc["sigma2_n"])
        prelogs = []
        for row in rows:
            pl = float(row["prelog"])
            prelogs.append(pl)
            a = 10 ** (float(row["snr_db"]) / 10) * doc["sigma2_n"] / s2s
            slack = float(row["d_ratio"]) * s2s - smoothing_floor(s, noise, a)
            if 0.0 < pl < 1.0:
                res = preemphasis_mass(s, noise, a, pl) - slack
                if abs(res) > 1e-9:
                    bad.append(f"{item.label}: threshold residual {res} at {row}")
            elif (pl == 0.0) != (slack <= 0.0):
                bad.append(f"{item.label}: prelog {pl} with slack {slack} at {row}")
        meshes[("ar1" if "epsilon" in doc else "flat", n)] = np.array(prelogs)
        return bad

    def _check_curve(self, item, doc, out, s):
        bad = []
        rows = self._rows(out)
        if len(rows) != item.points:
            return [f"{item.label}: {len(rows)} rows, expected {item.points}"]
        n, a, s2n, D = s.size, doc["a"], doc["sigma2_n"], doc["D"]
        base = a * s + s2n
        s2s = band_mean(s)
        prev = -math.inf
        for row in rows:
            P = 10 ** (float(row["P_db"]) / 10)
            r_it, r_sh = float(row["rate_it"]), float(row["rate_shaping"])
            wf = log_rate(exact_waterfill(base, P)[0], base)
            if abs(r_sh - wf) > RTOL * wf:
                bad.append(f"{item.label}: shaping rate {r_sh} is not the water-filling rate {wf}")
            if r_sh < prev or r_sh < r_it - RTOL * r_it:
                bad.append(f"{item.label}: shaping rate {r_sh} decreases or is below {r_it}")
            prev = r_sh
            ref = (interference_temperature_rate(base, s2s, s2n, a, D, P) if "epsilon" in doc
                   else flat_interference_temperature_rate(doc["sigma2_s"], s2n, a, D, P))
            if abs(r_it - ref) > RTOL * ref:
                bad.append(f"{item.label}: interference-temperature rate {r_it} != {ref}")
        return bad

    @staticmethod
    def _check_solve(item, doc, out, s):
        res = json.loads(Path(out).read_text())
        phi = np.array(res["phi_x"])
        base = doc["a"] * s + doc["sigma2_n"]
        bad = []
        if res["case_tag"] != "WaterfillFeasible":
            bad.append(f"{item.label}: case {res['case_tag']}")
        if phi.size != s.size:
            return bad + [f"{item.label}: {phi.size} PSD samples, expected {s.size}"]
        power = band_mean(phi)
        if abs(power - doc["P"]) > RTOL * doc["P"]:
            bad.append(f"{item.label}: power {power} != P={doc['P']}")
        on = phi > 0
        level = phi[on] + base[on]
        if np.ptp(level) > RTOL * level.max() or np.any(base[~on] < level.min() * (1 - RTOL)):
            bad.append(f"{item.label}: more than one water level")
        return bad

    def _check_multi(self, item, doc, out, s):
        res = json.loads(Path(out).read_text())
        mask = np.array(res["support"], dtype=bool)
        w = trapezoid_weights(s.size)
        bad = []
        if mask.size != s.size:
            return [f"{item.label}: support has {mask.size} cells, expected {s.size}"]
        for k, r in enumerate(doc["receivers"]):
            noise = np.full(s.size, r["sigma2_n"])
            budget = r["D"] - smoothing_floor(s, noise, r["a"])
            u = r["a"] * s * s / (r["a"] * s + noise)
            spent = float(np.dot(w[mask], u[mask])) / math.pi
            if spent > budget * (1 + RTOL):
                bad.append(f"{item.label}: receiver {k} spent {spent} > budget {budget}")
        if not float(w[mask].sum()) / math.pi <= res["prelog"] * (1 + RTOL) <= 1 + RTOL:
            bad.append(f"{item.label}: prelog {res['prelog']} inconsistent with its support")
        return bad


# --- coded-mimo --------------------------------------------------------------

class CodedMimo(Workload):
    """solve_coded over cases A, B1 and B2, and solve_mimo over several H_c.

    Slots fix the gains, the legacy load and the channel shapes. The seed
    draws, per item, a power unit c that multiplies sigma2_s, both noise
    powers and every P, and for MIMO items random unitary bases U and V: the
    program sees U H_c V, V^H h_l and U h_c. Neither changes the problem
    (rates depend on power ratios, and the isotropic on-level matrix sees
    only the eigenstructure of H_c H_c^H and the projections of h_c on it),
    so every seed asks for the same work.
    """

    round_seconds = 2.8
    POWERS = tuple(np.geomspace(1.0, 1e8, 9))
    # (cross gain a_c, cognitive gain g_c, legacy load); the legacy signal is
    # undecodable at the cognitive receiver (case A) when a_c is 0.003
    CODED = [(0.003, 10.0, 0.3), (0.003, 3.0, 0.6), (0.1, 10.0, 0.3), (0.3, 30.0, 0.5),
             (1.0, 10.0, 0.5), (10.0, 10.0, 0.6), (3.0, 1.0, 0.4)]
    CODED_SETS = 15
    DENSE_CHECK_SETS = 3      # sets whose every solve meets the dense search
    MIMO_SETS = 5
    MIMO_GRIDS = (64, 4096)

    @staticmethod
    def _shapes():
        rng = np.random.default_rng(2008)
        real = rng.normal(size=(4, 4))
        cplx = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return [("eye2", np.eye(2)), ("rank1", np.outer([1.0, 1.0], [1.0, 1.0]) / 2.0),
                ("real4x4", real), ("complex3x3", cplx)]

    def _unitary(self, n):
        z = self.rng.normal(size=(n, n)) + 1j * self.rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def _params(self, a_c, g_c, load, c):
        p = {"a_l": 1.0, "g_l": 1.0, "a_c": a_c, "g_c": g_c, "sigma2_s": 1000.0 * c,
             "sigma2_nl": c, "sigma2_nc": c}
        p["R_l"] = load * math.log1p(p["a_l"] * p["sigma2_s"] / p["sigma2_nl"])
        return p

    def plan(self):
        # (label, params, powers, H_c as drawn or None, (U H V, V^H h_l, U h_c), grid)
        self.records = []
        for _ in range(self.CODED_SETS):
            for a_c, g_c, load in self.CODED:
                c = self.unit()
                self.records.append((f"coded/a_c={a_c}/load={load}",
                                     self._params(a_c, g_c, load, c),
                                     [c * P for P in self.POWERS], None, None, 0))
        for _ in range(self.MIMO_SETS):
            for n in self.MIMO_GRIDS:
                for name, H in self._shapes():
                    c = self.unit()
                    n_r, n_t = H.shape
                    U, V = self._unitary(n_r), self._unitary(n_t)
                    h_l = np.ones(n_t) / math.sqrt(n_t)
                    h_c = (np.arange(n_r) == 0).astype(float)
                    self.records.append((f"mimo/{name}/n{n}", self._params(1.0, 10.0, 0.5, c),
                                         [c * P for P in self.POWERS], H,
                                         (U @ H @ V, V.conj().T @ h_l, U @ h_c), n))

    def build(self):
        from specshape import coded, mimo, spectra
        grids = {n: spectra.make_grid(n) for n in self.MIMO_GRIDS}
        for label, p, powers, H, given, n in self.records:
            if H is None:
                scs = [coded.CodedScenario(**p, P=P) for P in powers]
                self.items.append(Item(
                    label, 0, len(powers),
                    lambda scs=scs: ([coded.solve_coded(sc) for sc in scs],
                                     coded.coded_prelog(scs[0]))))
                continue
            H_c, h_l, h_c = given
            ch = mimo.MimoChannel(H_c=H_c, h_l=h_l, h_c=h_c, **p)
            self.items.append(Item(
                label, n, len(powers),
                lambda ch=ch, powers=powers, grid=grids[n]: (
                    [mimo.solve_mimo(ch, P, grid=grid) for P in powers],
                    mimo.mimo_prelog(ch))))
        p = self._params(1.0, 10.0, 0.5, 1.0)
        self.warm = (coded.CodedScenario(**p, P=1e3),
                     mimo.MimoChannel(H_c=np.eye(2), h_l=[1.0, 0.0], h_c=[1.0, 0.0], **p),
                     grids[64])

    def warmup(self):
        from specshape import coded, mimo
        sc, ch, grid = self.warm
        coded.solve_coded(sc)
        coded.coded_prelog(sc)
        mimo.solve_mimo(ch, 1e3, grid=grid)
        mimo.mimo_prelog(ch)

    def check(self, outputs):
        from specshape import mimo
        bad = []
        dense_items = self.DENSE_CHECK_SETS * len(self.CODED)
        for i, (item, (_, p, powers, H, _, _), out) in enumerate(
                zip(self.items, self.records, outputs)):
            if out is None:
                continue
            sols, prelog = out
            rates = [s.rate for s in sols]
            own = coded_prelog(p)
            if H is None:
                if abs(prelog - own) > 1e-12:
                    bad.append(f"{item.label}: coded_prelog {prelog} != {own}")
                for P, sol in zip(powers, sols):
                    resid = coded_legacy_rate(p, P, sol.w) - p["R_l"]
                    if min(resid, sol.residuals["legacy"]) < -1e-9:
                        bad.append(f"{item.label}: legacy residual {resid} at P={P}")
                    if i >= dense_items:
                        continue
                    best = coded_dense_best(p, P)
                    if sol.rate < best - 1e-6 * abs(best):
                        bad.append(f"{item.label}: rate {sol.rate} below dense search {best} at P={P}")
                if i >= dense_items:
                    continue
                # the scalar solver is the 1x1 case of the MIMO solver
                ch = mimo.MimoChannel(H_c=[[1.0]], h_l=[1.0], h_c=[1.0], **p)
                for P, sol in list(zip(powers, sols))[::4]:
                    r1 = mimo.solve_mimo(ch, P, grid=self.warm[2]).rate
                    if abs(r1 - sol.rate) > 1e-9 * abs(sol.rate):
                        bad.append(f"{item.label}: 1x1 MIMO rate {r1} != coded {sol.rate} at P={P}")
                continue
            rank = matrix_rank(H)
            if abs(prelog - rank * own) > 1e-9 * rank * own:
                bad.append(f"{item.label}: mimo_prelog {prelog} != {rank} x {own}")
            slope = loglog_slope(powers[-3:], rates[-3:])
            if abs(slope - rank * own) > 0.05 * rank * own:
                bad.append(f"{item.label}: slope {slope} does not scale with rank {rank}")
            for P, sol in zip(powers, sols):
                v = np.asarray(sol.psd.values)
                tp = band_mean(np.trace(v, axis1=1, axis2=2).real)
                if abs(tp - P) > 1e-9 * P:
                    bad.append(f"{item.label}: trace power {tp} != P={P}")
                if sol.residuals["legacy"] < -1e-9:
                    bad.append(f"{item.label}: legacy residual {sol.residuals['legacy']}")
        return bad


WORKLOADS = {"shaping-sweep": ShapingSweep, "analytic-cli": AnalyticCli,
             "coded-mimo": CodedMimo}
