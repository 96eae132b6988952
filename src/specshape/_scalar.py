"""Scalar root-finding by Brent's method.

`brentq` ports the C routine in SciPy's ``optimize/Zeros/brentq.c``, so that
the solvers need numpy alone, at their one tolerance: the module constants
`_XTOL`, `_RTOL` and `_MAXITER`, which no call site spells out. It repeats
SciPy's iterates operation for operation in plain float arithmetic, stop
test included, and returns the same bits as ``optimize.brentq(f, a, b,
xtol, rtol, maxiter)`` at the same tolerances (SciPy needs xtol > 0; at the
solvers' xtol of 0.0 it is ``5e-324``).

SciPy is Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
Developers, distributed under the BSD 3-Clause License. The algorithm is that
of R. P. Brent, *Algorithms for Minimization without Derivatives*,
Prentice-Hall, 1973, chapter 4.

Failures raise `SolverError`: a bracket without a sign change, a NaN function
value, or no convergence within the iteration cap. SciPy raises ValueError or
RuntimeError for these.
"""

from __future__ import annotations

import math

from .errors import SolverError

_XTOL = 0.0  # no absolute part: the roots span many scales
_RTOL = 8.9e-16  # 4 eps, the smallest relative tolerance SciPy's brentq accepts
_MAXITER = 200


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise SolverError(f"the function value at x={x!r} is NaN")
    return fx


def brentq(f, a: float, b: float) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign; converged
    when the bracket half-width is below (_XTOL + _RTOL*|x|)/2."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverError(
            f"root bracket [{a!r}, {b!r}] has no sign change "
            f"(f(a)={fpre!r}, f(b)={fcur!r})")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise SolverError(f"root-finding did not converge in {_MAXITER} iterations (x={xcur!r})")

