"""Cognitive rate maximization against a coded legacy link (flat spectra).

The legacy codebook is fixed at rate R_l; the cognitive pair picks an on-off
PSD with support fraction w and on-level P/w, which is optimal here because
the legacy and noise spectra are flat. The search over w, in all three
decoding regimes (A: legacy treated as noise, B-1: decoded and cancelled,
B-2: rate-split), is the 1x1 case of the on-off search in `mimo`.
`legacy_rate` and `decode_rate_at_cognitive` are the scalar constraint
formulas, kept as references for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfeasibleScenarioError
from .mimo import DecodeMode, MimoChannel, _onoff_search


class CodedCase(str, Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"


@dataclass(frozen=True)
class CodedScenario:
    """Gains, powers and the fixed legacy rate (rates in nats throughout)."""

    a_l: float
    g_l: float
    a_c: float
    g_c: float
    sigma2_s: float
    sigma2_nl: float
    sigma2_nc: float
    R_l: float
    P: float

    def __post_init__(self):
        vals = (self.a_l, self.g_l, self.a_c, self.g_c,
                self.sigma2_s, self.sigma2_nl, self.sigma2_nc, self.P)
        if any(v <= 0 for v in vals):
            raise ValueError("gains and powers must be positive")
        if self.R_l <= 0:
            raise ValueError("legacy rate must be positive")

    @property
    def legacy_capacity(self) -> float:
        return math.log1p(self.a_l * self.sigma2_s / self.sigma2_nl)

    @property
    def is_feasible(self) -> bool:
        return self.legacy_capacity > self.R_l


@dataclass(frozen=True)
class CodedSolution:
    w: float
    phi0: float
    rate: float
    case_tag: CodedCase
    residuals: dict


def legacy_rate(sc: CodedScenario, w) -> np.ndarray:
    """Legacy link rate under on-off cognitive interference of fraction w."""
    w = np.asarray(w, dtype=float)
    on = np.log1p(sc.a_l * sc.sigma2_s / (sc.g_l * sc.P / w + sc.sigma2_nl))
    return w * on + (1.0 - w) * sc.legacy_capacity


def decode_rate_at_cognitive(sc: CodedScenario, w) -> np.ndarray:
    """Rate at which the cognitive receiver can decode the legacy signal while
    treating its own on-off signal as noise."""
    w = np.asarray(w, dtype=float)
    off = math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc)
    on = np.log1p(sc.a_c * sc.sigma2_s / (sc.g_c * sc.P / w + sc.sigma2_nc))
    return w * on + (1.0 - w) * off


def classify(sc: CodedScenario) -> str:
    """'A' when the legacy signal is undecodable at the cognitive receiver
    even in silence, else 'B'."""
    if not sc.is_feasible:
        raise InfeasibleScenarioError(
            "legacy rate exceeds the legacy channel capacity")
    quiet = math.log1p(sc.a_c * sc.sigma2_s / sc.sigma2_nc)
    return "A" if quiet <= sc.R_l else "B"


_CASES = {DecodeMode.TREAT_AS_NOISE: CodedCase.A,
          DecodeMode.SUCCESSIVE_B1: CodedCase.B1,
          DecodeMode.RATE_SPLIT_B2: CodedCase.B2}


def solve_coded(sc: CodedScenario) -> CodedSolution:
    """Best on-off operating point: case A when the legacy signal is
    undecodable in silence, else the better of B-1 and B-2."""
    ch = MimoChannel(H_c=[[1.0]], h_l=[1.0], h_c=[1.0], a_l=sc.a_l, g_l=sc.g_l,
                     a_c=sc.a_c, g_c=sc.g_c, sigma2_s=sc.sigma2_s,
                     sigma2_nl=sc.sigma2_nl, sigma2_nc=sc.sigma2_nc, R_l=sc.R_l)
    mode, w, rate, residuals = _onoff_search(ch, sc.P, np.eye(1))
    return CodedSolution(w=w, phi0=sc.P / w, rate=rate, case_tag=_CASES[mode],
                         residuals=residuals)


def coded_prelog(sc: CodedScenario) -> float:
    """High-power slope 1 - R_l / C_l; 0 when the legacy link is overloaded.

    Depends only on legacy-channel parameters."""
    if not sc.is_feasible:
        return 0.0
    return 1.0 - sc.R_l / sc.legacy_capacity
