"""Vector cognitive transceivers against the scalar coded legacy link, and the
one on-off search behind the scalar and the vector coded solvers.

The cognitive pair carries N_t transmit / N_r receive antennas; the legacy
transceivers stay scalar. The search evaluates the log-det rates of an on-off
field in closed form over the eigenmodes of its on-level; the sampled log-det
evaluators it is checked against, and fields given sample by sample, are test
references (`tests/oracles.py`).

The on-off search puts the on-level matrix (P/w) Q, with Q the channel's
unit-trace Hermitian shape, on a support fraction w. Three operating regimes:
the cognitive receiver cannot decode the legacy signal at all and treats it as
noise (A), decodes it first and cancels (B-1), or rate-splits across the MAC
dominant face (B-2). Every regime is a one-dimensional constrained
maximization in w whose objective never falls as w grows (full power spread
over a wider support; Cover & Thomas, *Elements of Information Theory*, 9.3),
so each regime runs at the largest feasible w.

Both constraints, the legacy rate and the rate of decoding the legacy signal
at the cognitive receiver, never rise with w. Each is w F(K/w) + (1 - w) F(0)
with F(X) = log det(N + S + X) - log det(N + X). Gaussian mutual information
is convex in the noise covariance (Diggavi & Cover, IEEE T-IT 2001), so F is
convex and the derivative in w, F(y) - y F'(y) - F(0) at y = K/w, is at most
0. Each is then convex in w too, and a safeguarded Newton root-find from
w = 1 gives the widest feasible w, met as evaluated: the legacy root w_l,
and the decode root only when the legacy signal is undecodable at w_l. The
scalar coded solver `coded.solve_coded` is the 1x1 case. The high-power
slope scales with the number of modes the on-level reaches,
rank(H_c Q^(1/2)).

The search has a power-independent half, `_Link`: its `_Geometry`, the
singular values of F = H_c Q^(1/2) and the projections of h_c on its left
singular vectors, which the channel's arrays and shape fix, and, on first
use, the singular values of F whitened by mode A's noise over sigma2_nc,
which B-2 shares. Its per-power half runs only the root-finds and the rate
sums, in plain Python floats. A rate curve asks for one link at power after
power, so each channel keeps its link as a cached attribute; its arrays, the
shape among them, are private read-only copies, so that link cannot go stale.
`coded.solve_coded` puts the scenario's scalars on one 1x1 unit geometry and
keeps its last link in an `lru_cache` over them. Results do not depend on
these caches: a link found there is the one a fresh setup would build. The
checks of P and feasibility run on every call.

Every field `solve_mimo` returns is one on-level on a prefix of the grid, and
`PsdMatrix` is that one form, a plain record: the grid, the prefix length k
and the read-only level. Its dense (n_points, N_t, N_t) `values` is written on
its first read. The solver's on-level is always a positive multiple L Q of the
channel's unit-trace shape, and a positive multiple scales every eigenvalue by
L (Golub & Van Loan, *Matrix Computations*, 8.1). So a field has one check,
the scale-free check of Q when the channel is built: a Q that passes it gives
an L Q that passes the per-sample check of `tests/oracles.SampledPsd` at every
L > 0 (to rounding at the floor, `_shape_matrix`), and no solve checks its
field again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InfeasibleScenarioError, SolverError, _positive
from .spectra import FrequencyGrid, make_grid

_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-12
_RANK_RTOL = 1e-9
_W_LO = 1e-9
_MAX_STEPS = 100
_SCALARS = ("a_l", "g_l", "a_c", "g_c", "sigma2_s", "sigma2_nl", "sigma2_nc", "R_l")


class DecodeMode(str, Enum):
    TREAT_AS_NOISE = "TreatAsNoise"
    SUCCESSIVE_B1 = "SuccessiveB1"
    RATE_SPLIT_B2 = "RateSplitB2"


@dataclass(frozen=True)
class PsdMatrix:
    """An on-off PSD-matrix field on a half-band grid: the N_t x N_t Hermitian
    PSD `level` on the first k samples, 1 <= k <= n_points, and zero on the
    rest. `solve_mimo` builds it with a read-only level, a positive multiple
    of a shape the channel checked (`_shape_matrix`). The dense
    (n_points, N_t, N_t) `values` is written on its first read and kept.
    """

    grid: FrequencyGrid
    k: int
    level: np.ndarray

    @property
    def n_t(self) -> int:
        return self.level.shape[0]

    @cached_property
    def values(self) -> np.ndarray:
        v = np.zeros((self.grid.n_points,) + self.level.shape, dtype=complex)
        v[:self.k] = self.level
        v.flags.writeable = False
        # setdefault keeps the first array stored, so racing readers share it
        return vars(self).setdefault("values", v)


class _LegacyLink:
    """The scalar legacy link of a coded scenario, a MIMO channel or a `_Link`:
    its capacity C_l, whether it carries R_l, and the load prelog 1 - R_l/C_l."""

    @property
    def legacy_capacity(self) -> float:
        return math.log1p(self.a_l * self.sigma2_s / self.sigma2_nl)

    @property
    def is_feasible(self) -> bool:
        return self.legacy_capacity > self.R_l

    @property
    def _load_prelog(self) -> float:
        """1 - R_l/C_l; 0 when the legacy link is overloaded."""
        return 1.0 - self.R_l / self.legacy_capacity if self.is_feasible else 0.0

    def _store_scalars(self):
        """Store the eight link scalars as checked floats."""
        for name in _SCALARS:
            object.__setattr__(self, name, _positive(
                getattr(self, name), "gains, powers and R_l must be positive and finite"))

    def _budget(self, P) -> float:
        """P as a float, once it is a positive finite budget and the legacy
        link carries R_l."""
        P = _positive(P, "power budget must be positive and finite")
        if not self.is_feasible:
            raise InfeasibleScenarioError("legacy rate exceeds the legacy channel capacity")
        return P


@dataclass(frozen=True)
class MimoChannel(_LegacyLink):
    """Cognitive MIMO link, the scalar legacy cross-channels and the on-level
    shape (None: isotropic). The arrays, the shape among them, are stored as
    read-only complex copies of the ones given, the scalars as checked Python
    floats. The shape is checked once, here (`_shape_matrix`), and kept as
    given, so that `replace` normalizes the same bits into the unit-trace
    Hermitian `_Q`, of largest entry modulus `_Q_max`. Every field a solve
    returns is a positive multiple of `_Q`.

    H_c and h_c must keep size max|entry|^2, evaluated in Python floats, a
    finite float: it bounds |h_c|^2 and every squared singular value of
    H_c Q^(1/2) (Q has unit trace), the arrays the link setup forms. h_l is
    not held to it: it enters the search only through the scalar gain
    h_l^H Q h_l, which the search takes as +inf when it overflows, as it
    takes every gain past the float range."""

    H_c: np.ndarray   # N_r x N_t cognitive channel matrix
    h_l: np.ndarray   # N_t vector: cognitive transmit -> legacy receiver
    h_c: np.ndarray   # N_r vector: legacy transmit -> cognitive receiver
    a_l: float
    g_l: float
    a_c: float
    g_c: float
    sigma2_s: float
    sigma2_nl: float
    sigma2_nc: float
    R_l: float
    shape: np.ndarray | None = None   # N_t x N_t Hermitian PSD, positive trace

    def __post_init__(self):
        try:  # an int past the largest float is rejected as an infinite entry is
            H, hl, hc = (np.array(a, dtype=complex) for a in (self.H_c, self.h_l, self.h_c))
            shape = None if self.shape is None else np.array(self.shape, dtype=complex)
        except OverflowError:
            raise ValueError("channel arrays must be finite") from None
        H, hl, hc = np.atleast_2d(H), hl.reshape(-1), hc.reshape(-1)
        if H.ndim != 2 or 0 in H.shape:
            raise ValueError("H_c must be a matrix with at least one row and one column")
        if hl.size != H.shape[1] or hc.size != H.shape[0]:
            raise ValueError("channel vector dimensions do not match H_c")
        if not all(np.isfinite(arr).all() for arr in (H, hl, hc)):
            raise ValueError("channel matrix and vectors must be finite")
        for name, arr in (("H_c", H), ("h_c", hc)):
            with np.errstate(over="ignore"):  # |re + i im| of finite parts can overflow
                peak = float(np.abs(arr).max())
            if not math.isfinite(arr.size * peak * peak):
                raise ValueError(f"{name} is too large: its squared norm must be a finite float")
        self._store_scalars()
        for name, arr in (("H_c", H), ("h_l", hl), ("h_c", hc), ("shape", shape)):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        Q = _shape_matrix(self, shape)
        Q.flags.writeable = False
        object.__setattr__(self, "_Q", Q)
        object.__setattr__(self, "_Q_max", float(np.abs(Q).max()))

    @property
    def n_t(self) -> int:
        return self.H_c.shape[1]

    @property
    def n_r(self) -> int:
        return self.H_c.shape[0]

    @cached_property
    def _link(self) -> _Link:
        """The power-independent half of the search; a setup that raises stores nothing."""
        return _Link(_Geometry(self.H_c, self.h_l, self.h_c, self._Q),
                     *(getattr(self, name) for name in _SCALARS))


@dataclass(frozen=True)
class MimoSolution:
    psd: PsdMatrix
    rate: float
    mode: DecodeMode
    w: float
    residuals: dict


def mimo_prelog(channel: MimoChannel) -> float:
    """High-power slope: the legacy-load prelog times rank(H_c Q^(1/2))."""
    lam = channel._link.lam
    return channel._load_prelog * int(np.sum(lam > _RANK_RTOL ** 2 * lam.max()))


def _shape_matrix(channel: MimoChannel, shape) -> np.ndarray:
    """The Hermitian part Q of the shape over its trace (I/N_t, unchecked, for
    None), checked at the scale of Q alone: a Hermitian defect within
    1e-12 max|Q| and eigenvalues at or above -1e-12 max|Q|. A shape S and
    c S, c > 0, are the same channel and get the same verdict, as long as the
    trace and its reciprocal are finite floats.

    The field of every solve is L Q with L = P/w > 0. Q is exactly Hermitian,
    so L Q is too, bit for bit, and L Q's eigenvalues are L times Q's, at or
    above -1e-12 L max|Q| >= -1e-12 max(1, L max|Q|), the floor of the
    per-sample check of `tests/oracles.SampledPsd`: in exact arithmetic L Q
    passes it at every L. In floating point the eigenvalues computed for L Q
    and L times those computed for Q differ by a few ulps of L max|Q|, so a Q
    whose least eigenvalue sits within about 1e-15 max|Q| of its floor may
    give a field that check rejects once L max|Q| > 1.

    The field is L times this Q, not the Q of the mode gains, whose
    eigenvalues `_Geometry` clips to 0 below 4 N_t eps times the largest.
    This Q is the matrix the check decided on, and its trace fixes the
    field's power at P; V diag(e) V^H re-formed from the clipped modes would
    move entries by rounding, the isotropic I/N_t among them. A checked Q has
    no eigenvalue below -1e-12 max|Q|, and the clip moves none above
    4 N_t eps (Q has unit trace), so each eigenvalue of the two differs by
    less than the larger bound, and the rates the search reports agree with
    the field to that order."""
    nt = channel.n_t
    if shape is None:
        return np.eye(nt, dtype=complex) / nt
    Q = np.asarray(shape, dtype=complex)
    if Q.shape != (nt, nt):
        raise ValueError("on-level shape matrix has wrong dimensions")
    if not np.isfinite(Q).all():
        raise ValueError("PSD matrices must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        tr = float(np.trace(Q).real)
    if tr <= 0:
        raise ValueError("on-level shape matrix must have positive trace")
    if not (math.isfinite(tr) and math.isfinite(1.0 / tr)):
        raise ValueError("on-level shape matrix trace is outside the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        Q = Q / tr
    if not np.isfinite(Q).all():
        # a unit-trace PSD matrix has no entry above 1 in modulus
        raise ValueError("PSD matrices must be positive semidefinite")
    herm = Q.conj().T
    scale = float(np.abs(Q).max())
    if np.abs(Q - herm).max() > _HERM_TOL * scale:
        raise ValueError("PSD matrices must be Hermitian")
    # halved before the sum, which would overflow past half the largest float
    Q = 0.5 * Q + 0.5 * herm
    if np.linalg.eigvalsh(Q).min() < _EIG_FLOOR * scale:
        raise ValueError("PSD matrices must be positive semidefinite")
    return Q


def _widest_feasible(c):
    """(w, c(w)) at the largest w in [_W_LO, 1] with c(w) >= 0, for a convex
    constraint c that never rises with w; None when c(_W_LO) < 0. c(w)
    returns the value and its derivative in w.

    Newton steps in w from w = 1: as c is convex in w (not in ln w), they
    land on the feasible side and approach the root from below. The bracket
    [lo, hi], c(lo) >= 0 > c(hi), guards them against rounding: a step that
    leaves it, or a slope that is not negative, bisects it in ln w, and a
    step from hi that rounds to no move moves one ulp. The feasible end
    comes back once c(lo) is 0, a step from lo rounds to no move, or the
    ends are adjacent floats. The steps never read c(lo), so c(_W_LO) is
    evaluated only before the first step that is not a Newton step strictly
    inside the bracket, and before _W_LO itself comes back: a Newton step
    that lands feasible proves c(_W_LO) >= 0, as c never rises. A NaN value,
    or no end within _MAX_STEPS steps, raises SolverError."""
    w = hi = 1.0
    f, d = c(w)
    if f >= 0.0:
        return w, f
    if math.isnan(f):
        raise SolverError(f"the constraint value at w={w!r} is NaN")
    lo, f_lo = _W_LO, None   # f_lo = c(lo), None while c(_W_LO) is unread
    for _ in range(_MAX_STEPS):
        nxt = w - f / d if d < 0.0 else hi
        if nxt == w and f >= 0.0:
            return w, f
        if f_lo is None and not lo < nxt < hi:
            f_lo = _low_end(c)
            if f_lo < 0.0:
                return None
        if nxt == w:
            nxt = math.nextafter(w, lo)
        if not lo < nxt < hi:
            # within a factor 2 the plain mean is close to the geometric one,
            # and it falls strictly inside whenever a float does
            nxt = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        w = nxt
        f, d = c(w)
        if f >= 0.0:
            lo, f_lo = w, f
        elif f < 0.0:
            hi = w
        else:
            raise SolverError(f"the constraint value at w={w!r} is NaN")
        if f == 0.0 or hi - lo <= math.ulp(lo):
            break
    else:
        raise SolverError(f"the w root-find did not converge in {_MAX_STEPS} steps (w={w!r})")
    if f_lo is None:
        f_lo = _low_end(c)
        if f_lo < 0.0:
            return None
    return lo, f_lo


def _low_end(c) -> float:
    """c(_W_LO); SolverError when it is NaN."""
    f = c(_W_LO)[0]
    if math.isnan(f):
        raise SolverError(f"the constraint value at w={_W_LO!r} is NaN")
    return f


class _Geometry:
    """The arrays of a link, fixed by the channel's arrays and unit-trace
    shape Q alone: lam, the squared singular values of F = H_c Q^(1/2)
    zero-padded to n_r, h_c's projections on F's left singular vectors,
    |h_c|^2 and h_l^H Q h_l. Q^(1/2) is read off eigh(Q), its eigenvalues
    below 4 n_t eps times the largest set to 0: a null mode of F has a zero
    singular value, where a formed H_c Q H_c^H gives it eps times the largest
    eigenvalue (Golub & Van Loan on the normal equations)."""

    def __init__(self, H_c: np.ndarray, h_l: np.ndarray, h_c: np.ndarray, Q: np.ndarray):
        e, V = np.linalg.eigh(Q)
        e[e < 4 * H_c.shape[1] * np.finfo(float).eps * e[-1]] = 0.0   # eigh sorts e ascending
        F = H_c @ (V * np.sqrt(e))
        U, s, _ = np.linalg.svd(F)
        self.F, self.h_c = F, h_c
        self.lam = np.concatenate((s * s, np.zeros(H_c.shape[0] - s.size)))
        self.proj = (np.abs(U.conj().T @ h_c) ** 2).tolist()
        self.hc2 = float(np.vdot(h_c, h_c).real)
        self.hQh = float(np.einsum("i,ij,j->", h_l, Q, h_l.conj()).real)


class _Link(_LegacyLink):
    """The power-independent half of the on-off search: a `_Geometry` and the
    checked link scalars in `_SCALARS` order, which fix the legacy and decode
    gains and, on first use, mode A's gains over sigma2_nc. Each w-evaluation
    sums log1p / rational terms over the modes, with every on-level k * P / w
    and the gain folded into k >= 0: a null mode gives 0 and an overflow
    +inf, never inf * 0. The gains are Python-float products over the modes,
    the IEEE products numpy would form, so a gain past the float range is
    +inf with no numpy warning."""

    def __init__(self, geo: _Geometry, *scalars: float):
        vars(self).update(zip(_SCALARS, scalars), geo=geo, lam=geo.lam, proj=geo.proj)
        g_c = self.g_c
        self.k_dec = [g_c * x for x in geo.lam.tolist()]
        self.k_l = self.g_l * geo.hQh
        self.C_l = self.legacy_capacity
        self.off_dec = math.log1p(self.a_c * self.sigma2_s * geo.hc2 / self.sigma2_nc)

    @cached_property
    def gains_a(self) -> list:
        """g_c/sigma2_nc times the squared singular values of F whitened by
        mode A's noise over sigma2_nc, I + a_c sigma2_s h_c h_c^H / sigma2_nc
        = L L^H, formed entrywise: a_c sigma2_s / sigma2_nc can overflow."""
        h_c = self.geo.h_c
        hco = np.outer(h_c, h_c.conj())
        L = np.linalg.cholesky(np.eye(h_c.size) + self.a_c * self.sigma2_s * hco / self.sigma2_nc)
        s = np.linalg.svd(np.linalg.solve(L, self.geo.F), compute_uv=False)
        g = self.g_c / self.sigma2_nc
        return [g * x * x for x in s.tolist()]

    @cached_property
    def gains_b1(self) -> list:
        g = self.g_c / self.sigma2_nc
        return [g * x for x in self.lam.tolist()]

    def search(self, P: float):
        """Best (mode, w, rate, residuals) at the float budget P over the decode
        modes that apply. With w_l the root of the legacy constraint and w_d
        that of decodability, A runs at w_l, B-1 at min(w_l, w_d), and B-2 at
        w_l when the legacy signal is not decodable there. Python floats and
        `math.log1p` make an overflow inf without a numpy warning; the sums run
        in explicit loops, as builtin `sum` compensates from Python 3.12 on. A
        winning rate that is not finite raises SolverError.

        Each constraint is evaluated only where its value is still unknown:
        the root-finds return each root with its constraint value, and the
        residuals are read from those pairs or from a value the search holds.
        In the B regime the decode constraint c_d is read at w_l first, after
        a check that off_dec is finite (SolverError otherwise). Above 0 the
        legacy signal is decodable at w_l, so w_d >= w_l: B-1 runs at w_l, B-2
        does not apply and no decode root-find runs. Otherwise the decode
        root-find runs from w = 1, as the legacy one does: from w_l it would
        end on another float where c_d rounds to 0, for some links."""
        proj, C_l, off_dec, R_l = self.proj, self.C_l, self.off_dec, self.R_l
        s_l, n_l = self.a_l * self.sigma2_s, self.sigma2_nl
        s_c, n_c = self.a_c * self.sigma2_s, self.sigma2_nc
        kP_l = self.k_l * P
        kP_dec = [k * P for k in self.k_dec]

        def on_rate(gains, w):
            total = 0.0
            for k in gains:
                total += math.log1p(k * P / w)
            return total

        # Each constraint returns its value and its derivative in w. An
        # interference x = kP/w has w dx/dw = -x, and each factor
        # x/(x + m) of the derivative is written 1 - m/(x + m), so that
        # x = inf gives 0 and not NaN.
        def legacy_con(w):
            a = kP_l / w + n_l
            u = s_l / a
            on = math.log1p(u)
            return (w * on + (1.0 - w) * C_l - R_l,
                    on + u * (1.0 - (n_l + s_l) / (a + s_l)) - C_l)

        def decode_con(w):
            total = slope = 0.0
            for kP, p in zip(kP_dec, proj):
                a = kP / w + n_c
                b = p / a
                total += b
                slope += b * (1.0 - n_c / a)
            sinr = s_c * total
            on = math.log1p(sinr)
            return (w * on + (1.0 - w) * off_dec - R_l,
                    on + s_c * slope / (1.0 + sinr) - off_dec)

        # Each mode's best w is its widest feasible support. Every rate is
        # w * sum_m log1p(k_m / w) plus terms linear in w, with k_m >= 0, and
        # d/dw [w log(1 + k/w)] = log(1 + x) - x/(1 + x) >= 0 for x = k/w.
        # B-2's matrix I + s_c h_c h_c^H / n_c is mode A's whitening matrix
        # itself, so B-2's whitened gains are mode A's, and its log-det is
        # off_dec by the matrix determinant lemma: B-2's linear terms,
        # w off_dec + (1 - w) off_dec, are off_dec at every w.
        found = _widest_feasible(legacy_con)
        if found is None:
            raise InfeasibleScenarioError("no feasible operating point")
        w_l, res_l = found
        # candidates are (mode, w, rate, decodability residual)
        if off_dec <= R_l:
            candidates = [(DecodeMode.TREAT_AS_NOISE, w_l, w_l * on_rate(self.gains_a, w_l),
                           None)]
        elif not math.isfinite(off_dec):
            raise SolverError(f"the legacy decode rate in silence is not finite ({off_dec!r})")
        else:
            res_d = decode_con(w_l)[0]
            if res_d > 0.0:
                candidates = [(DecodeMode.SUCCESSIVE_B1, w_l, w_l * on_rate(self.gains_b1, w_l),
                               res_d)]
            else:
                candidates = []
                found = _widest_feasible(decode_con)
                if found is not None:
                    w, res = min(found, (w_l, res_d))   # at min(w_d, w_l)
                    candidates.append((DecodeMode.SUCCESSIVE_B1, w,
                                       w * on_rate(self.gains_b1, w), res))
                candidates.append((DecodeMode.RATE_SPLIT_B2, w_l,
                                   w_l * on_rate(self.gains_a, w_l) + off_dec - R_l, res_d))
        mode, w, rate, res_dec = max(candidates, key=lambda t: t[2])
        if not math.isfinite(rate):
            raise SolverError(f"the on-off rate is not finite (P = {P:g}, w = {w:g})")
        residuals = {"legacy": res_l if w == w_l else legacy_con(w)[0]}
        if res_dec is not None:
            residuals["decodability"] = res_dec
        return mode, w, rate, residuals


def solve_mimo(channel: MimoChannel, P: float,
               grid: FrequencyGrid | None = None) -> MimoSolution:
    """Best on-off PSD-matrix strategy at budget P.

    The on-level matrix is (P/w) times the channel's shape at unit trace
    (isotropic by default; `dataclasses.replace(channel, shape=S)` solves
    with the shape S); only the support fraction w is optimized, per mode,
    and the best mode wins. The reported rate is the analytic optimum;
    the returned PSD field quantizes the support to whole grid cells with the
    level rescaled so trace power is exactly P. The support is a prefix of
    the grid that always holds sample 0. Its level (P/frac) Q is a positive
    multiple of the shape the channel checked, so it is stored read-only with
    no second check (`_shape_matrix` says why it needs none). An on-level whose largest
    entry P/frac max|Q| overflows, or a rate that overflows, raises
    SolverError.
    """
    P = channel._budget(P)
    mode, w, rate, residuals = channel._link.search(P)
    if grid is None:
        grid = make_grid()
    # the samples whose running weight stays within w * pi, at least one
    k = max(int(grid.cumulative_weights.searchsorted(w * np.pi, "right")), 1)
    frac = float(grid.weights[:k].sum()) / np.pi
    L = P / frac
    if not math.isfinite(L * channel._Q_max):
        # the level cannot be written: inf * 0 would put NaN in the field
        raise SolverError(f"the on-level P/w is not finite (P = {P:g}, w = {frac:g})")
    level = L * channel._Q
    level.flags.writeable = False
    return MimoSolution(psd=PsdMatrix(grid, k, level), rate=rate, mode=mode, w=w,
                        residuals=residuals)
