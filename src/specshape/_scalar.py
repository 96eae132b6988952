"""Scalar root-finding and bounded minimization by Brent's methods.

Both functions are ports of SciPy's implementations, so that the solvers need
numpy alone. They repeat SciPy's iterates operation for operation in plain
float arithmetic and return the same bits as SciPy's ``optimize.brentq`` and
``optimize.minimize_scalar(method="bounded")`` at the same tolerances:

- `brentq` ports the C routine in SciPy's ``optimize/Zeros/brentq.c``;
- `minimize_bounded` ports ``_minimize_scalar_bounded`` (the fminbound
  iteration) in SciPy's ``optimize/_optimize.py``.

SciPy is Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
Developers, distributed under the BSD 3-Clause License. The algorithms are
those of R. P. Brent, *Algorithms for Minimization without Derivatives*,
Prentice-Hall, 1973, chapters 4 and 5.

Failures raise `SolverError`: a bracket without a sign change, a NaN function
value, or no convergence within the iteration or evaluation cap. SciPy raises
ValueError or RuntimeError for the root-finder's failures, and returns an
unconverged point from the minimizer.
"""

from __future__ import annotations

import math

from .errors import SolverError

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500  # SciPy's default evaluation cap for the bounded minimizer


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise SolverError(f"the function value at x={x!r} is NaN")
    return fx


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign; converged
    when the bracket half-width is below (xtol + rtol*|x|)/2."""
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
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
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
    raise SolverError(f"root-finding did not converge in {maxiter} iterations (x={xcur!r})")


def minimize_bounded(f, a: float, b: float, xatol: float) -> float:
    """The abscissa of a local minimum of f on [a, b], a <= b, located to
    about xatol + sqrt(eps)*|x| by golden-section and parabolic steps."""
    a, b = float(a), float(b)
    xf = nfc = fulc = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = _value(f, xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabolic fit through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = _value(f, x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            raise SolverError(
                f"bounded minimization did not converge in {num} evaluations (x={xf!r})")
    return xf
