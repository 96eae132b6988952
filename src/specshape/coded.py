"""Cognitive rate maximization against a coded legacy link (flat spectra).

The legacy codebook is fixed at rate R_l; the cognitive pair picks an on-off
PSD with support fraction w and on-level P/w, which is optimal here because
the legacy and noise spectra are flat. The search over w, in all three
decoding regimes (A: legacy treated as noise, B-1: decoded and cancelled, B-2:
rate-split), is the 1x1 case of the on-off search in `mimo`, on one unit
geometry that every coded link shares: each regime runs at the largest w its
constraints allow, since at full power a wider support never lowers the rate.
Neither the legacy rate nor the decode rate rises with w, so that w is the
root of one constraint (A, B-2) or the smaller of two roots (B-1).
`solve_coded(...).case_tag` reports the regime: A when the legacy signal is
undecodable at the cognitive receiver even in silence, else the better of B-1
and B-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import _positive
from .mimo import DecodeMode, _Geometry, _LegacyLink, _Link


class CodedCase(str, Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"


@dataclass(frozen=True)
class CodedScenario(_LegacyLink):
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
        self._store_scalars()
        object.__setattr__(self, "P", _positive(self.P, "power must be positive and finite"))


@dataclass(frozen=True)
class CodedSolution:
    w: float
    phi0: float
    rate: float
    case_tag: CodedCase
    residuals: dict


_CASES = {DecodeMode.TREAT_AS_NOISE: CodedCase.A,
          DecodeMode.SUCCESSIVE_B1: CodedCase.B1,
          DecodeMode.RATE_SPLIT_B2: CodedCase.B2}


@lru_cache(maxsize=None)
def _unit_geometry() -> _Geometry:
    """The arrays of every coded link: H_c, h_l, h_c and Q all 1, on first use."""
    one = np.ones((1, 1), dtype=complex)
    return _Geometry(one, one[0], one[0], one)


@lru_cache(maxsize=1)
def _setup(a_l, g_l, a_c, g_c, sigma2_s, sigma2_nl, sigma2_nc, R_l) -> _Link:
    return _Link(_unit_geometry(), a_l, g_l, a_c, g_c, sigma2_s, sigma2_nl, sigma2_nc, R_l)


def solve_coded(sc: CodedScenario) -> CodedSolution:
    """Best on-off operating point: case A when the legacy signal is
    undecodable in silence, else the better of B-1 and B-2.

    The search is `mimo`'s on the 1x1 link, the one a 1x1 `MimoChannel`
    would build: `_setup` puts the scalars `CodedScenario` stored as checked
    floats on the unit geometry, with no channel, and keeps the last link, so
    a power sweep sets its link up once."""
    P = sc._budget(sc.P)
    link = _setup(sc.a_l, sc.g_l, sc.a_c, sc.g_c, sc.sigma2_s, sc.sigma2_nl, sc.sigma2_nc, sc.R_l)
    mode, w, rate, residuals = link.search(P)
    return CodedSolution(w=w, phi0=sc.P / w, rate=rate, case_tag=_CASES[mode],
                         residuals=residuals)


def coded_prelog(sc: CodedScenario) -> float:
    """High-power slope 1 - R_l / C_l; 0 when the legacy link is overloaded.

    Depends only on legacy-channel parameters."""
    return sc._load_prelog
