"""Numerics written apart from the solvers, used to generate inputs and to
check outputs. Nothing here imports specshape.

Conventions match the library's documented model: spectra are sampled on a
uniform half-band grid over [0, pi] and full-band averages are
(1/pi) * sum(weights * values) with composite-trapezoid weights.
"""

from __future__ import annotations

import math

import numpy as np


def trapezoid_weights(n: int) -> np.ndarray:
    h = math.pi / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def omegas(n: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, n)


def band_mean(values: np.ndarray) -> float:
    return float(np.dot(trapezoid_weights(values.size), values)) / math.pi


def ar1_values(n: int, variance: float, eps: float) -> np.ndarray:
    """AR(1) PSD with innovation rate eps; full-band mean equals variance in
    the continuum."""
    w = omegas(n)
    return eps * variance / ((2.0 - eps) - 2.0 * math.sqrt(1.0 - eps) * np.cos(w))


def interpolated_values(n: int, knots) -> np.ndarray:
    knots = np.asarray(knots, dtype=float)
    return np.interp(omegas(n), np.linspace(0.0, math.pi, knots.size), knots)


# --- uncoded legacy receiver -------------------------------------------------

def smoothing_mse(phi_x, s, noise, a) -> float:
    """Wiener-Kolmogorov smoothing MSE, ratio form."""
    return band_mean(s * (phi_x + noise) / (a * s + phi_x + noise))


def smoothing_floor(s, noise, a) -> float:
    return smoothing_mse(np.zeros_like(s), s, noise, a)


def memoryless_floor(s2s, s2n, a) -> float:
    return 1.0 / (1.0 / s2s + a / s2n)


def log_rate(phi_x, base) -> float:
    return band_mean(np.log1p(phi_x / base))


def exact_waterfill(base: np.ndarray, budget: float):
    """Water-filling by sorting: the level is read off prefix sums, with no
    iteration. Returns (phi_x, level)."""
    w = trapezoid_weights(base.size)
    order = np.argsort(base, kind="stable")
    b = base[order]
    wt = w[order]
    cw = np.cumsum(wt)
    cwb = np.cumsum(wt * b)
    target = budget * math.pi
    # filling the k cheapest cells to level L costs L*cw[k-1] - cwb[k-1]
    levels = (target + cwb) / cw
    k = int(np.flatnonzero(np.append(levels[:-1] <= b[1:], True))[0])
    level = float(levels[k])
    return np.maximum(level - base, 0.0), level


def waterfill_mse(base, s, noise, a, budget) -> float:
    phi, _ = exact_waterfill(base, budget)
    return smoothing_mse(phi, s, noise, a)


def threshold_prelog(s, noise, a, D) -> float:
    """High-power on-off prelog: keep the cells of smallest pre-emphasized PSD
    u = a s^2/(a s + n) until their pre-emphasis mass reaches D minus the
    smoothing floor; the boundary cell counts fractionally."""
    return support_measure_for_mass(s, noise, a, D - smoothing_floor(s, noise, a))


def _sorted_preemphasis(s, noise, a):
    u = a * s * s / (a * s + noise)
    w = trapezoid_weights(s.size)
    order = np.argsort(u, kind="stable")
    return u[order], w[order]


def support_measure_for_mass(s, noise, a, budget) -> float:
    if budget <= 0.0:
        return 0.0
    u, w = _sorted_preemphasis(s, noise, a)
    mass = np.cumsum(w * u) / math.pi
    if budget >= mass[-1]:
        return 1.0
    k = int(np.searchsorted(mass, budget, side="right"))
    spent = mass[k - 1] if k > 0 else 0.0
    measure = (np.sum(w[:k]) + (budget - spent) / (u[k] / math.pi)) / math.pi
    return float(min(measure, 1.0))


def preemphasis_mass(s, noise, a, fraction: float) -> float:
    """Pre-emphasis mass of the cheapest cells of total measure fraction*pi,
    the boundary cell counted fractionally."""
    u, w = _sorted_preemphasis(s, noise, a)
    cw = np.cumsum(w)
    target = fraction * math.pi
    k = int(np.searchsorted(cw, target, side="left"))
    if k >= u.size:
        return float(np.dot(w, u)) / math.pi
    below = cw[k - 1] if k > 0 else 0.0
    return (float(np.dot(w[:k], u[:k])) + (target - below) * u[k]) / math.pi


def flat_onoff_rate(s2s, s2n, a, D, P) -> float:
    """Closed-form on-off optimum for flat spectra in the both-active regime:
    level phi0 on a support of fraction w = P/phi0."""
    B = a * s2s + s2n
    dlow = s2s * s2n / B
    phi0 = a * s2s * s2s * P / ((D - dlow) * B) - B
    w = P / phi0
    if not (phi0 > 0.0 and w < 1.0):
        raise ValueError("outside the closed-form regime")
    return w * math.log1p(phi0 / B)


def memoryless_cap(s2s, s2n, a, D, P) -> float:
    """Largest power, at most P, that keeps the memoryless receiver's MSE at
    or below D; 0 when that receiver cannot meet D."""
    if D >= s2s:
        return P
    if D < memoryless_floor(s2s, s2n, a):
        return 0.0
    return max(0.0, min(P, s2s * D / (s2s - D) * a - s2n))


def interference_temperature_rate(base, s2s, s2n, a, D, P) -> float:
    """Water-filling at the memoryless-receiver power cap."""
    cap = memoryless_cap(s2s, s2n, a, D, P)
    if cap == 0.0:
        return 0.0
    phi, _ = exact_waterfill(base, cap)
    return log_rate(phi, base)


def flat_interference_temperature_rate(s2s, s2n, a, D, P) -> float:
    """Closed form of the above for a flat legacy spectrum, where the cap is
    spread evenly over the band."""
    return math.log1p(memoryless_cap(s2s, s2n, a, D, P) / (a * s2s + s2n))


def loglog_slope(powers, rates) -> float:
    return float(np.polyfit(np.log(np.asarray(powers)), np.asarray(rates), 1)[0])


# --- coded legacy link -------------------------------------------------------

DENSE_POINTS = 100_000


def coded_dense_best(p: dict, P: float) -> float:
    """Best on-off rate over DENSE_POINTS support fractions w, for the mode
    the legacy decodability allows (case A, or the better of successive
    decoding and rate splitting)."""
    w = np.linspace(1e-9, 1.0, DENSE_POINTS)
    R_l = p["R_l"]
    legal = coded_legacy_rate(p, P, w) >= R_l - 1e-12
    quiet = math.log1p(p["a_c"] * p["sigma2_s"] / p["sigma2_nc"])
    if quiet <= R_l:
        floor = p["a_c"] * p["sigma2_s"] + p["sigma2_nc"]
        vals = w * np.log1p(p["g_c"] * P / (w * floor))
        return float(np.max(np.where(legal, vals, -np.inf)))
    dec = w * np.log1p(p["a_c"] * p["sigma2_s"] / (p["g_c"] * P / w + p["sigma2_nc"])) \
        + (1.0 - w) * quiet
    b1 = w * np.log1p(p["g_c"] * P / (w * p["sigma2_nc"]))
    b2 = (w * np.log1p((p["a_c"] * p["sigma2_s"] + p["g_c"] * P / w) / p["sigma2_nc"])
          + (1.0 - w) * quiet - R_l)
    best1 = np.max(np.where(legal & (dec >= R_l - 1e-12), b1, -np.inf))
    best2 = np.max(np.where(legal & (dec <= R_l + 1e-12), b2, -np.inf))
    return float(max(best1, best2))


def coded_legacy_rate(p: dict, P: float, w):
    """Legacy rate with the cognitive power P on a fraction w of the band;
    w may be an array."""
    C_l = math.log1p(p["a_l"] * p["sigma2_s"] / p["sigma2_nl"])
    on = np.log1p(p["a_l"] * p["sigma2_s"] / (p["g_l"] * P / w + p["sigma2_nl"]))
    return w * on + (1.0 - w) * C_l


def coded_prelog(p: dict) -> float:
    return 1.0 - p["R_l"] / math.log1p(p["a_l"] * p["sigma2_s"] / p["sigma2_nl"])


def matrix_rank(H, rtol: float = 1e-9) -> int:
    sv = np.linalg.svd(np.atleast_2d(H), compute_uv=False)
    return int(np.sum(sv > rtol * sv.max()))
