"""Scalar root location: doubling bracket scan, bisection, Newton polish.

The solvers only ever chase simple roots of smooth scalar functions whose
sign at the left end of the search range is known, so the recipe is fixed:
walk right with doubling steps until the sign flips, bisect the bracket down
to absolute width 1e-13, then take a few Newton steps with the analytic
derivative and keep the iterate with the smallest |f|.
"""

from __future__ import annotations

import math

from .errors import NumericalFailure

XTOL = 1e-13
NEWTON_STEPS = 5
SCAN_STEP = 0.25
SCAN_GROWTH = 2.0
SCAN_MAX_STEPS = 200


def root_right(f, df, x0: float, f0: float | None = None) -> float:
    """The root of f in the first sign change right of x0, refined with df."""
    return refine(f, df, *scan_right(f, x0, f0))


def scan_right(f, x0: float, f0: float | None = None):
    """First sign change of f on adjacent scan points right of x0.

    Returns (a, b, fa, fb) with a sign change between a and b; a == b means
    an exact zero was hit.  Raises NumericalFailure when the scan range is
    exhausted without a sign change.
    """
    if f0 is None:
        f0 = f(x0)
    if not math.isfinite(f0):
        raise NumericalFailure(f"function value at scan start {x0} is not finite")
    if f0 == 0.0:
        return x0, x0, 0.0, 0.0
    a, fa = x0, f0
    h = SCAN_STEP
    for _ in range(SCAN_MAX_STEPS):
        b = a + h
        fb = f(b)
        if not math.isfinite(fb):
            raise NumericalFailure(f"function value at {b} is not finite")
        if fb == 0.0:
            return b, b, 0.0, 0.0
        if (fa < 0.0) != (fb < 0.0):
            return a, b, fa, fb
        a, fa = b, fb
        h *= SCAN_GROWTH
    raise NumericalFailure(f"no sign change within {SCAN_MAX_STEPS} doubling steps of {x0}")


def refine(f, df, a: float, b: float, fa: float, fb: float) -> float:
    """Bisect a sign-change bracket, then polish with Newton steps on df."""
    if a == b:
        return a
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NumericalFailure(f"[{a}, {b}] is not a sign-change bracket")
    while b - a > XTOL:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    fx = f(x)
    best_x, best_f = x, abs(fx)
    for _ in range(NEWTON_STEPS):
        d = df(x)
        if not math.isfinite(d) or d == 0.0:
            break
        step = fx / d
        x_next = x - step
        if not math.isfinite(x_next):
            break
        f_next = f(x_next)
        if not math.isfinite(f_next):
            break
        x, fx = x_next, f_next
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return best_x
