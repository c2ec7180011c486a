"""Closed-form solver for graphs with two nonzero self-loop vertices.

Both nonzero loop vertices carry the same activity lam (canonical labels 1
and 2); Lambda >= 2*lam is the total activity.  Solutions split into the
symmetric family z_1 = z_2, handled by the same aggregate-branch machinery
as the single-loop solver with multiplicity 2, and the asymmetric family
z_1 * z_2 = 1, whose aggregates are the roots of the quartic

    q(x) = (1+x)^4 - lam*(x+2)*(1+x)^2 + lam*Lambda - 2*lam^2

on the open ray x > 2*sqrt(lam) - 1.  The regime thresholds

    Lambda1 = 8*lam^(3/2) - 10*lam
    Lambda2 = ((9*lam^2+32*lam)^(3/2) + 27*lam^3 + 144*lam^2 + 1152*lam)/512

satisfy q(2*sqrt(lam)-1) = lam*(Lambda - Lambda1) and q(x3) = lam*(Lambda -
Lambda2) at the right critical point x3.  _regime places (lam, Lambda) in
one of six cases from these thresholds and the tangency lam = 49/9, where
Lambda1 and Lambda2 meet; it alone compares against them.  classify reads
the solution count (1, 3 or 5) off the case, and solve_asymmetric the
number of asymmetric roots.  All formulas assume k = 2.

h_curve and delta_curve are the symmetric-family branch conditions written
as functions of the aggregate x = A; `sweep --emit-curves` prints them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import two_loop
from .boundary_law import ReducedSystem
from .errors import DomainError
from .model import BoundaryLawSolution, RegimeReport, _as_float, _as_kind, _as_positive
from .rootfind import refine, root_right

LAMBDA_STAR = 49.0 / 9.0
THRESHOLD_RTOL = 1e-9
_COUNTS = {"i": 3, "ii": 1, "iii": 3, "iv": 5, "v": 3, "vi": 1}


@dataclass(frozen=True)
class ThreeLoopProblem(two_loop._LoopProblem):
    """Parameters of a two-nonzero-loop instance with equal loop activities."""

    loops = 2


def thresholds(lam: float) -> tuple[float, float]:
    """Regime thresholds (Lambda1, Lambda2) for shared loop activity lam.

    Raises DomainError when Lambda2 overflows double precision, which
    happens for lam above about 1.9e102.
    """
    lam = _as_positive(lam, "loop activity")
    try:
        Lambda1 = 8.0 * lam ** 1.5 - 10.0 * lam
        w = 9.0 * lam * lam + 32.0 * lam
        Lambda2 = (w ** 1.5 + 27.0 * lam ** 3 + 144.0 * lam * lam + 1152.0 * lam) / 512.0
    except OverflowError:
        Lambda2 = math.inf
    if not math.isfinite(Lambda2):  # Lambda2 > Lambda1, so it overflows first
        raise DomainError(f"thresholds overflow double precision at loop activity {lam!r}")
    return Lambda1, Lambda2


@two_loop.checked_curve
def h_curve(lam: float, x: float, Lambda: float) -> float:
    """Symmetric-family branch condition (plus branch) at aggregate x = A."""
    y = 1.0 + x
    s = math.sqrt(two_loop._radicand(lam, y))
    return y ** 4 + y ** 3 * s - lam * y * y * (x + 2.0) + lam * (Lambda - 2.0 * lam)


@two_loop.checked_curve
def delta_curve(lam: float, x: float, Lambda: float) -> float:
    """Symmetric-family branch condition (minus branch) at aggregate x = A."""
    y = 1.0 + x
    s = math.sqrt(two_loop._radicand(lam, y))
    return y ** 4 - y ** 3 * s - lam * y * y * (x + 2.0) + lam * (Lambda - 2.0 * lam)


def q_poly(lam: float, Lambda: float, x: float) -> float:
    """The asymmetric-family quartic in the aggregate x = A.  lam is read by
    _as_positive, Lambda and x by _as_float (x is any real: the ray starts
    below 0 when lam < 1/4); a Lambda or x that is not finite, and a value
    past double precision, raise DomainError."""
    lam = _as_positive(lam, "loop activity")
    Lambda, x = _as_float(Lambda, "Lambda"), _as_float(x, "x")
    y = 1.0 + x
    try:
        value = y ** 4 - lam * (x + 2.0) * y * y + lam * Lambda - 2.0 * lam * lam
    except OverflowError:
        raise DomainError(f"q_poly overflows double precision at lambda = {lam!r}, x = {x!r}") from None
    if not math.isfinite(value):  # as it is whenever Lambda or x is not finite
        raise DomainError(f"q_poly is not finite at lambda = {lam!r}, Lambda = {Lambda!r}, x = {x!r}")
    return value


def _q_derivative(lam: float, x: float) -> float:
    y = 1.0 + x
    return 4.0 * y ** 3 - lam * y * (3.0 * x + 5.0)


def q_critical_points(lam: float) -> tuple[float, float, float]:
    """The three critical points of the quartic, in increasing order.

    q'(x) = 4(x+1)(x - x2)(x - x3) with x2 < -1 < x3; only x3 can enter the
    admissible ray, and it does exactly when lam > 49/9.
    """
    lam = _as_positive(lam, "loop activity")
    s = math.sqrt(9.0 * lam * lam + 32.0 * lam)
    x2 = (3.0 * lam - 8.0 - s) / 8.0
    x3 = (3.0 * lam - 8.0 + s) / 8.0
    return x2, -1.0, x3


def _regime(lam: float, Lambda: float) -> tuple[str, float, float]:
    """The regime case of (lam, Lambda), with the thresholds (Lambda1, Lambda2).

    Cases: (i) lam <= 49/9, Lambda < Lambda1; (ii) lam <= 49/9, Lambda >=
    Lambda1; (iii) lam > 49/9, Lambda <= Lambda1; (iv) lam > 49/9, Lambda1 <
    Lambda < Lambda2; (v) lam > 49/9, Lambda = Lambda2 within THRESHOLD_RTOL;
    (vi) lam > 49/9, Lambda > Lambda2.
    """
    Lambda1, Lambda2 = thresholds(lam)
    if lam <= LAMBDA_STAR:
        case = "i" if Lambda < Lambda1 else "ii"
    elif abs(Lambda - Lambda2) <= THRESHOLD_RTOL * max(1.0, abs(Lambda2)):
        case = "v"
    elif Lambda <= Lambda1:
        case = "iii"
    else:
        case = "iv" if Lambda < Lambda2 else "vi"
    return case, Lambda1, Lambda2


def solve_asymmetric(problem: ThreeLoopProblem) -> list[float]:
    """Aggregate values of all asymmetric solutions, in increasing order.

    Roots of q on the open ray x > 2*sqrt(lam) - 1: one in cases i and iii,
    two in iv, the double root at the critical point x3 once in v, none in
    ii and vi (see _regime).
    """
    problem = _as_kind(problem, ThreeLoopProblem, "problem")
    lam, Lambda = problem.lam, problem.Lambda
    case, Lambda1, Lambda2 = _regime(lam, Lambda)
    if case in ("ii", "vi"):
        return []
    lo = 2.0 * math.sqrt(lam) - 1.0
    q, dq = functools.partial(q_poly, lam, Lambda), functools.partial(_q_derivative, lam)
    if case == "i":
        # q is nondecreasing on the ray and q(lo) < 0, so the root lies past
        # lo; near Lambda1, where q(lo) is nearly 0, it can round below lo
        return [max(lo, root_right(q, dq, lo, lam * (Lambda - Lambda1)))]
    x3 = q_critical_points(lam)[2]
    if case == "v":
        return [x3]
    q_x3 = lam * (Lambda - Lambda2)
    roots = []
    if case == "iv":
        # q decreases from q(lo) > 0 to q(x3) < 0: one root inside (lo, x3)
        roots.append(refine(q, dq, lo, x3, lam * (Lambda - Lambda1), q_x3))
    # q increases without bound beyond x3: always one root out there
    roots.append(root_right(q, dq, x3, q_x3))
    return roots


def solve_symmetric(problem: ThreeLoopProblem) -> BoundaryLawSolution:
    """The closed form's one symmetric (z_1 = z_2) translation-invariant
    boundary law.  It is the only symmetric one below a loop activity of
    about 33.55; past that there can be three, and this returns one of them
    or raises NumericalFailure (see two_loop.solve_loop_aggregate)."""
    return two_loop._loop_solution(_as_kind(problem, ThreeLoopProblem, "problem"), ("symmetric",) * 2)


def enumerate_solutions(problem: ThreeLoopProblem) -> list[BoundaryLawSolution]:
    """Every translation-invariant boundary law: symmetric first, then the
    asymmetric pairs (each aggregate root contributes a solution and its
    label swap)."""
    problem = _as_kind(problem, ThreeLoopProblem, "problem")
    system = ReducedSystem(k=2, loop_labels=(1, 2), loop_lams=(problem.lam, problem.lam),
                           Lambda=problem.Lambda)
    out = [solve_symmetric(problem)]
    for idx, A in enumerate(solve_asymmetric(problem), start=1):
        z_plus, z_minus = two_loop.loop_z_branches(problem.lam, A)
        for tag, pair in ((f"asymmetric-A{idx}", (z_plus, z_minus)),
                          (f"asymmetric-A{idx}-swapped", (z_minus, z_plus))):
            residual = system.residual_at(pair, A)
            out.append(BoundaryLawSolution(A=A, loop_z={1: pair[0], 2: pair[1]},
                                           branch=tag, residual=residual))
    return out


def classify(problem: ThreeLoopProblem | None = None, *, divergent: bool = False) -> RegimeReport:
    """Solution count and regime case (see _regime) of a two-loop instance; 0 when divergent."""
    report = two_loop._divergent_report(problem, ThreeLoopProblem, divergent)
    if report is not None:
        return report
    case, Lambda1, Lambda2 = _regime(problem.lam, problem.Lambda)
    return RegimeReport(problem.lam, problem.Lambda, Lambda1, Lambda2,
                        count=_COUNTS[case], case_label=case)
