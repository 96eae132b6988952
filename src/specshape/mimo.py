"""Vector cognitive transceivers against the scalar coded legacy link, and the
one on-off search behind the scalar and the vector coded solvers.

The cognitive pair carries N_t transmit / N_r receive antennas; the legacy
transceivers stay scalar. PSD matrices are sampled Hermitian-PSD fields on the
half-band grid; rates come from the log-det entropy-rate formula.

The on-off search puts the on-level matrix (P/w) Q, with Q a fixed unit-trace
Hermitian shape, on a support fraction w. Three operating regimes: the
cognitive receiver cannot decode the legacy signal at all and treats it as
noise (A), decodes it first and cancels (B-1), or rate-splits across the MAC
dominant face (B-2). Every regime is a one-dimensional constrained
maximization in w: feasible w-intervals are located on a dense scan with Brent
refinement at the boundaries (constraint monotonicity in w is checked rather
than assumed), then the objective is maximized per interval. The scalar coded
solver `coded.solve_coded` is the 1x1 case. The high-power slope is
insensitive to the spatial shape, scaling instead with rank(H_c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize

from .errors import InfeasibleScenarioError
from .spectra import FrequencyGrid, make_grid

_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-12
_RANK_RTOL = 1e-9
_MODE_TOL = 1e-9
_W_LO = 1e-9
_SCAN_POINTS = 513


class DecodeMode(str, Enum):
    TREAT_AS_NOISE = "TreatAsNoise"
    SUCCESSIVE_B1 = "SuccessiveB1"
    RATE_SPLIT_B2 = "RateSplitB2"


@dataclass(frozen=True)
class PsdMatrix:
    """Per-sample N_t x N_t Hermitian PSD matrices on a half-band grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != self.grid.n_points or v.shape[1] != v.shape[2]:
            raise ValueError("PSD matrix field must have shape (n_points, Nt, Nt)")
        herm = v.conj().transpose(0, 2, 1)
        scale = max(1.0, float(np.abs(v).max()))
        if np.abs(v - herm).max() > _HERM_TOL * scale:
            raise ValueError("PSD matrices must be Hermitian")
        v = 0.5 * (v + herm)
        eig = np.linalg.eigvalsh(v)
        if eig.min() < _EIG_FLOOR * scale:
            raise ValueError("PSD matrices must be positive semidefinite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_t(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MimoChannel:
    """Cognitive MIMO link plus the scalar legacy cross-channels."""

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

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H_c, dtype=complex))
        hl = np.asarray(self.h_l, dtype=complex).reshape(-1)
        hc = np.asarray(self.h_c, dtype=complex).reshape(-1)
        if hl.size != H.shape[1] or hc.size != H.shape[0]:
            raise ValueError("channel vector dimensions do not match H_c")
        vals = (self.a_l, self.g_l, self.a_c, self.g_c,
                self.sigma2_s, self.sigma2_nl, self.sigma2_nc)
        if any(v <= 0 for v in vals) or self.R_l <= 0:
            raise ValueError("gains, powers and the legacy rate must be positive")
        for name, arr in (("H_c", H), ("h_l", hl), ("h_c", hc)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_t(self) -> int:
        return self.H_c.shape[1]

    @property
    def n_r(self) -> int:
        return self.H_c.shape[0]

    @property
    def legacy_capacity(self) -> float:
        return math.log1p(self.a_l * self.sigma2_s / self.sigma2_nl)

    @property
    def is_feasible(self) -> bool:
        return self.legacy_capacity > self.R_l


@dataclass(frozen=True)
class MimoSolution:
    psd: PsdMatrix
    rate: float
    mode: DecodeMode
    w: float
    residuals: dict


def trace_power(psd: PsdMatrix) -> float:
    """Total transmit power (1/2pi) int trace(phi(w)) dw."""
    tr = np.trace(psd.values, axis1=1, axis2=2).real
    return psd.grid.mean(tr)


def legacy_rate_mimo(psd: PsdMatrix, channel: MimoChannel) -> float:
    """Legacy rate with the vector cognitive signal collapsed through h_l."""
    hl = channel.h_l
    if hl.size != psd.n_t:
        raise ValueError("PSD matrix dimension does not match h_l")
    interf = np.einsum("i,kij,j->k", hl, psd.values, hl.conj()).real
    sinr = channel.a_l * channel.sigma2_s / (
        channel.g_l * interf + channel.sigma2_nl)
    return psd.grid.mean(np.log1p(sinr))


def _batched_logdet(mats: np.ndarray) -> np.ndarray:
    sign, ld = np.linalg.slogdet(mats)
    if np.any(sign.real <= 0):
        raise ValueError("log-det argument is not positive definite")
    return ld


def _quiet_decode_rate(channel: MimoChannel) -> float:
    hc2 = float(np.vdot(channel.h_c, channel.h_c).real)
    return math.log1p(channel.a_c * channel.sigma2_s * hc2 / channel.sigma2_nc)


def decode_rate_mimo(psd: PsdMatrix, channel: MimoChannel) -> float:
    """Rate for decoding the scalar legacy signal at the cognitive array while
    treating the cognitive signal as noise."""
    H, hc = channel.H_c, channel.h_c
    n_r = channel.n_r
    cov = channel.g_c * np.einsum("ri,kij,sj->krs", H, psd.values, H.conj())
    cov = cov + channel.sigma2_nc * np.eye(n_r)
    sol = np.linalg.solve(cov, np.broadcast_to(hc, (psd.grid.n_points, n_r))[..., None])
    sinr = channel.a_c * channel.sigma2_s * np.einsum(
        "i,ki->k", hc.conj(), sol[..., 0]).real
    return psd.grid.mean(np.log1p(sinr))


def cognitive_rate_mimo(psd: PsdMatrix, channel: MimoChannel,
                        decode_mode: DecodeMode | str, check: bool = True) -> float:
    """Cognitive log-det rate under the selected legacy-handling mode."""
    mode = DecodeMode(decode_mode)
    H = channel.H_c
    if H.shape[1] != psd.n_t:
        raise ValueError("PSD matrix dimension does not match H_c")
    n_r = channel.n_r
    eye = np.eye(n_r)
    HQH = np.einsum("ri,kij,sj->krs", H, psd.values, H.conj())
    hco = np.outer(channel.h_c, channel.h_c.conj())

    if mode is DecodeMode.TREAT_AS_NOISE:
        if check and _quiet_decode_rate(channel) > channel.R_l * (1 + _MODE_TOL):
            raise ValueError("legacy signal is decodable: treat-as-noise mode does not apply")
        noise = channel.sigma2_nc * eye + channel.a_c * channel.sigma2_s * hco
        arg = eye + channel.g_c * HQH @ np.linalg.inv(noise)
        return psd.grid.mean(_batched_logdet(arg))

    if mode is DecodeMode.SUCCESSIVE_B1:
        if check and decode_rate_mimo(psd, channel) < channel.R_l * (1 - _MODE_TOL) - _MODE_TOL:
            raise ValueError("legacy signal not decodable: successive decoding does not apply")
        arg = eye + (channel.g_c / channel.sigma2_nc) * HQH
        return psd.grid.mean(_batched_logdet(arg))

    if check and decode_rate_mimo(psd, channel) > channel.R_l * (1 + _MODE_TOL) + _MODE_TOL:
        raise ValueError("legacy decodable as-is: rate splitting does not apply")
    arg = eye + (channel.g_c * HQH + channel.a_c * channel.sigma2_s * hco) / channel.sigma2_nc
    return psd.grid.mean(_batched_logdet(arg)) - channel.R_l


def mimo_prelog(channel: MimoChannel) -> float:
    """High-power slope: the scalar legacy-load prelog scaled by rank(H_c)."""
    if not channel.is_feasible:
        return 0.0
    sv = np.linalg.svd(channel.H_c, compute_uv=False)
    rank = int(np.sum(sv > _RANK_RTOL * sv.max())) if sv.size else 0
    return (1.0 - channel.R_l / channel.legacy_capacity) * rank


def _shape_matrix(channel: MimoChannel, shape) -> np.ndarray:
    nt = channel.n_t
    if shape is None:
        Q = np.eye(nt, dtype=complex)
    else:
        Q = np.asarray(shape, dtype=complex)
        if Q.shape != (nt, nt):
            raise ValueError("on-level shape matrix has wrong dimensions")
        if np.abs(Q - Q.conj().T).max() > _HERM_TOL * max(1.0, np.abs(Q).max()):
            raise ValueError("on-level shape matrix must be Hermitian")
    tr = float(np.trace(Q).real)
    if tr <= 0:
        raise ValueError("on-level shape matrix must have positive trace")
    return Q / tr


def _feasible_intervals(constraints, lo=_W_LO, hi=1.0):
    """Maximal w-intervals where every constraint function is >= 0.

    Each constraint's zero crossings are located first (dense scan plus Brent;
    the scan also covers non-monotone corner cases), then the joint feasible
    set is read off a grid refined with those crossings. This resolves
    intersection intervals much thinner than the scan spacing, which occur at
    large power budgets.
    """
    base = np.linspace(lo, hi, _SCAN_POINTS)
    crossings = []
    for c in constraints:
        vals = np.asarray(c(base), dtype=float)
        sign_flip = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        for i in sign_flip:
            crossings.append(optimize.brentq(
                lambda x: float(c(x)), base[i], base[i + 1],
                xtol=1e-15, rtol=8.9e-16))
    grid = np.unique(np.concatenate([base, crossings])) if crossings else base
    mids = 0.5 * (grid[:-1] + grid[1:])
    w = np.unique(np.concatenate([grid, mids]))
    vals = np.minimum.reduce([np.asarray(c(w), dtype=float) for c in constraints])

    def g(x):
        return min(float(c(x)) for c in constraints)

    feas = vals >= 0.0
    intervals = []
    i = 0
    while i < w.size:
        if not feas[i]:
            i += 1
            continue
        j = i
        while j + 1 < w.size and feas[j + 1]:
            j += 1
        a, b = w[i], w[j]
        if i > 0 and g(w[i - 1]) < 0:
            a = optimize.brentq(g, w[i - 1], w[i], xtol=1e-15, rtol=8.9e-16)
        if j + 1 < w.size and g(w[j + 1]) < 0:
            b = optimize.brentq(g, w[j], w[j + 1], xtol=1e-15, rtol=8.9e-16)
        intervals.append((a, b))
        i = j + 1
    return intervals


def _maximize_over_w(objective, constraints):
    """Best (w, value) of a scalar objective over the feasible w set."""
    best = None
    for a, b in _feasible_intervals(constraints):
        cands = [(a, float(objective(a))), (b, float(objective(b)))]
        if b > a:
            res = optimize.minimize_scalar(
                lambda x: -float(objective(x)), bounds=(a, b), method="bounded",
                options={"xatol": 1e-14})
            cands.append((float(res.x), float(objective(res.x))))
        top = max(cands, key=lambda t: t[1])
        if best is None or top[1] > best[1]:
            best = top
    return best


def _onoff_search(ch: MimoChannel, P: float, Q: np.ndarray):
    """Best (mode, w, rate, residuals) of the on-off strategy with on-level
    matrix (P/w) Q, Q of unit trace, over the decode modes that apply.

    Every function of w takes a float or an array of them."""
    if P <= 0:
        raise ValueError("power budget must be positive")
    if not ch.is_feasible:
        raise InfeasibleScenarioError("legacy rate exceeds the legacy channel capacity")
    HQH = ch.H_c @ Q @ ch.H_c.conj().T
    HQH = 0.5 * (HQH + HQH.conj().T)
    q_l = float(np.einsum("i,ij,j->", ch.h_l, Q, ch.h_l.conj()).real)
    hco = np.outer(ch.h_c, ch.h_c.conj())
    eye = np.eye(ch.n_r)
    C_l = ch.legacy_capacity
    off_dec = _quiet_decode_rate(ch)

    # One-time eigendecompositions make every w-evaluation a stable sum of
    # log1p / rational terms over the eigenmodes, immune to the huge P/w
    # spreads of the sweep. The modes are Python floats: a scalar w then
    # costs a few float operations per mode instead of array set-up.
    lam, U = np.linalg.eigh(HQH)
    proj = (np.abs(U.conj().T @ ch.h_c) ** 2).tolist()
    lam = np.maximum(lam, 0.0).tolist()

    def whitened_eigs(noise):
        L = np.linalg.cholesky(noise)
        X = np.linalg.solve(L, HQH)
        S = np.linalg.solve(L, X.conj().T).conj().T
        return np.maximum(np.linalg.eigvalsh(0.5 * (S + S.conj().T)), 0.0)

    mu_a = whitened_eigs(ch.sigma2_nc * eye + ch.a_c * ch.sigma2_s * hco).tolist()
    A_b2 = eye + (ch.a_c * ch.sigma2_s / ch.sigma2_nc) * hco
    nu_b2 = (whitened_eigs(A_b2) / ch.sigma2_nc).tolist()
    logdet_A = float(np.linalg.slogdet(A_b2)[1])

    def legacy_con(w):
        on = np.log1p(ch.a_l * ch.sigma2_s /
                      (ch.g_l * (P / w) * q_l + ch.sigma2_nl))
        return w * on + (1.0 - w) * C_l - ch.R_l

    def decode_con(w):
        sinr = ch.a_c * ch.sigma2_s * sum(
            p / (ch.g_c * (P / w) * m + ch.sigma2_nc) for m, p in zip(lam, proj))
        return w * np.log1p(sinr) + (1.0 - w) * off_dec - ch.R_l

    def rate_a(w):
        return w * sum(np.log1p(ch.g_c * (P / w) * m) for m in mu_a)

    def rate_b1(w):
        return w * sum(np.log1p(ch.g_c / ch.sigma2_nc * (P / w) * m) for m in lam)

    def rate_b2(w):
        on = logdet_A + sum(np.log1p(ch.g_c * (P / w) * m) for m in nu_b2)
        return w * on + (1.0 - w) * off_dec - ch.R_l

    candidates: list[tuple[DecodeMode, float, float]] = []
    if off_dec <= ch.R_l:
        best = _maximize_over_w(rate_a, [legacy_con])
        if best is not None:
            candidates.append((DecodeMode.TREAT_AS_NOISE, best[0], best[1]))
    else:
        b1 = _maximize_over_w(rate_b1, [legacy_con, decode_con])
        if b1 is not None:
            candidates.append((DecodeMode.SUCCESSIVE_B1, b1[0], b1[1]))
        b2 = _maximize_over_w(rate_b2, [legacy_con, lambda w: -decode_con(w)])
        if b2 is not None:
            candidates.append((DecodeMode.RATE_SPLIT_B2, b2[0], b2[1]))
    if not candidates:
        raise InfeasibleScenarioError("no feasible operating point")
    mode, w, rate = max(candidates, key=lambda t: t[2])
    residuals = {"legacy": float(legacy_con(w))}
    if mode is not DecodeMode.TREAT_AS_NOISE:
        residuals["decodability"] = float(decode_con(w))
    return mode, w, rate, residuals


def solve_mimo(channel: MimoChannel, P: float,
               grid: FrequencyGrid | None = None,
               shape=None) -> MimoSolution:
    """Best on-off PSD-matrix strategy at budget P.

    The on-level matrix is (P/w) times a fixed unit-trace Hermitian shape
    (isotropic by default); only the support fraction w is optimized, per
    mode, and the best mode wins. The reported rate is the analytic optimum;
    the returned PSD field quantizes the support to whole grid cells with the
    level rescaled so trace power is exactly P.
    """
    Q = _shape_matrix(channel, shape)
    mode, w, rate, residuals = _onoff_search(channel, P, Q)
    if grid is None:
        grid = make_grid()
    cum = np.cumsum(grid.weights)
    mask = cum <= w * np.pi
    if not mask.any():
        mask[0] = True
    frac = float(grid.weights[mask].sum()) / np.pi
    field = np.zeros((grid.n_points, channel.n_t, channel.n_t), dtype=complex)
    field[mask] = (P / frac) * Q
    return MimoSolution(psd=PsdMatrix(grid, field), rate=rate, mode=mode, w=w,
                        residuals=residuals)
