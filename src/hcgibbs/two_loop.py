"""Closed-form solver for graphs with a single nonzero self-loop vertex.

With one loop vertex (activity lam, canonical label 1) and total activity
Lambda, the loop equation at aggregate A has the two explicit branches

    z_pm(A) = ((1+A)^2 - 2 lam +- (1+A) sqrt((1+A)^2 - 4 lam)) / (2 lam)

whose product is exactly 1, and the aggregate identity becomes a scalar
equation psi(A) = 0 per branch.  The closed form looks for one root on one
branch.  That is not always all of them: past a loop activity of about
9.27 (about 33.55 for two equal loops) the system can have three fixed
points.  All formulas assume tree order k = 2.

f_curve and g_curve are the same two branch conditions written as quartic
expressions in x = 1 + A; `sweep --emit-curves` prints them.  Every such
curve, here and in three_loop, goes through checked_curve, so an argument
that is not a real is an InputError, and a non-finite x or a value past
double precision a DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .boundary_law import ReducedSystem
from .errors import DomainError, InputError, NumericalFailure
from .model import (
    ActivitySpec,
    BoundaryLawSolution,
    RegimeReport,
    _as_float,
    _as_int,
    _as_kind,
    _as_positive,
    _as_total,
    _shown,
    require_finite,
)
from .rootfind import root_right


@dataclass(frozen=True)
class _LoopProblem:
    """An instance of the class's `loops` equal loop activities lam > 0 and a
    total activity Lambda >= loops * lam, read by _as_positive and _as_total."""

    lam: float
    Lambda: float

    def __post_init__(self) -> None:
        lam = _as_positive(self.lam, "loop activity")
        Lambda = _as_total(self.Lambda)
        if Lambda < self.loops * lam:
            raise InputError(
                f"total activity {Lambda} must be >= {self.loops} times the loop activity {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lambda", Lambda)

    @classmethod
    def from_spec(cls, spec: ActivitySpec):
        """The instance of a spec of order k = 2, `loops` equal loops and a finite total."""
        lams = tuple(_as_kind(spec, ActivitySpec, "spec").loop_activities.values())
        if spec.k != 2:
            raise InputError(f"closed-form solver requires tree order k = 2, got k = {_shown(spec.k)}")
        if len(lams) != cls.loops:
            raise InputError(f"closed-form solver needs {cls.loops} nonzero loop(s), got {len(lams)}")
        Lambda = require_finite(spec)
        if lams[0] != lams[-1]:
            raise InputError(
                f"closed-form solver needs equal loop activities, got {lams[0]} and {lams[-1]}; "
                "the numerical oracle handles the general case"
            )
        return cls(lams[0], Lambda)


@dataclass(frozen=True)
class TwoLoopProblem(_LoopProblem):
    """Parameters of a single-nonzero-loop instance: lam > 0, Lambda >= lam."""

    loops = 1


# how far below zero x^2 - 4 lam may round at the branch point x = 2 sqrt(lam),
# in units of x^2: at x = 1 + (2 sqrt(lam) - 1), the start of the closed
# forms' ray, it read down to -1 ulp over 200,000 values of lam in [0.3, 5.5]
_RADICAND_ROUNDING = 4.0 * math.ulp(1.0)


def _radicand(lam: float, x: float) -> float:
    """x^2 - 4 lam, clamped to 0 within its rounding below zero."""
    r = x * x - 4.0 * lam
    if r < 0.0:
        if r >= -_RADICAND_ROUNDING * x * x:
            return 0.0
        raise DomainError(f"negative radicand: lambda = {lam} exceeds {x}^2/4 = {x * x / 4.0}")
    return r


def checked_curve(curve):
    """A branch-condition curve curve(lam, x, Lambda) with checked arguments and value.

    lam, x and Lambda are read as reals by _as_float; lam must be positive
    and x positive and finite, and a value that overflows double precision
    or is otherwise not finite raises DomainError.
    """
    @functools.wraps(curve)
    def checked(lam: float, x: float, Lambda: float) -> float:
        # three floats, as sweep --emit-curves passes per row, skip the readers
        if not type(lam) is type(x) is type(Lambda) is float:
            lam, x, Lambda = _as_float(lam, "lambda"), _as_float(x, "x"), _as_float(Lambda, "Lambda")
        if not (lam > 0.0):
            raise DomainError(f"lambda must be positive, got {lam!r}")
        if not (0.0 < x < math.inf):
            raise DomainError(f"x must be positive and finite, got {x!r}")
        try:
            value = curve(lam, x, Lambda)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(
                f"{curve.__name__} is not finite in double precision at "
                f"lambda = {lam!r}, x = {x!r}, Lambda = {Lambda!r}"
            )
        return value

    return checked


@checked_curve
def f_curve(lam: float, x: float, Lambda: float) -> float:
    """Branch condition of the z_plus branch as a function of x = 1 + A."""
    s = math.sqrt(_radicand(lam, x))
    return x ** 4 + x ** 3 * (s - 2.0 * lam) + 2.0 * lam * (Lambda - lam)


@checked_curve
def g_curve(lam: float, x: float, Lambda: float) -> float:
    """Branch condition of the z_minus branch as a function of x = 1 + A."""
    s = math.sqrt(_radicand(lam, x))
    return x ** 4 - x ** 3 * (s + 2.0 * lam) + 2.0 * lam * (Lambda - lam)


def loop_z_branches(lam: float, A: float) -> tuple[float, float]:
    """Both loop-equation branches (z_plus, z_minus) at aggregate A.

    z_minus is computed through the exact product identity
    z_plus * z_minus = 1 to avoid cancellation at large A.  lam is read by
    _as_positive and A by _as_float; a z_plus that is not positive and
    finite in double precision raises DomainError.
    """
    lam = _as_positive(lam, "loop activity")
    x = 1.0 + _as_float(A, "aggregate A")
    s = math.sqrt(_radicand(lam, x))
    z_plus = (x * x - 2.0 * lam + x * s) / (2.0 * lam)
    if not 0.0 < z_plus < math.inf:
        raise DomainError(f"loop branches are not positive and finite at lambda = {lam!r}, A = {A!r}")
    return z_plus, 1.0 / z_plus


def _psi_and_z(lam: float, Lambda: float, mult: int, sign: int, A: float) -> tuple[float, float]:
    """Aggregate defect psi(A) on one branch, and the branch value z(A)."""
    x = 1.0 + A
    r = x * x - 4.0 * lam
    s = math.sqrt(r) if r > 0.0 else 0.0
    base = x * x - 2.0 * lam + x * s
    z = base / (2.0 * lam) if sign > 0 else 2.0 * lam / base
    return A * x * x - Lambda - mult * lam * z * (2.0 + z), z


def _psi_derivative(lam: float, Lambda: float, mult: int, sign: int, A: float) -> float:
    x = 1.0 + A
    r = x * x - 4.0 * lam
    if r <= 0.0:
        return math.inf
    s = math.sqrt(r)
    z_plus = (x * x - 2.0 * lam + x * s) / (2.0 * lam)
    dz_plus = (2.0 * x + s + x * x / s) / (2.0 * lam)
    if sign > 0:
        z, dz = z_plus, dz_plus
    else:
        z = 1.0 / z_plus
        dz = -dz_plus / (z_plus * z_plus)
    return x * x + 2.0 * A * x - 2.0 * mult * lam * (1.0 + z) * dz


def solve_loop_aggregate(lam: float, Lambda: float, mult: int) -> tuple[float, float, int]:
    """One root of the aggregate equation A(1+A)^2 = Lambda + mult*lam*z(2+z).

    mult is the number of identical nonzero loop vertices sharing activity
    lam, an integer 1 or 2, else InputError; lam is read by _as_positive
    and Lambda by _as_total.  Returns (A, z, sign) where sign is +1 for the
    z_plus branch and -1 for z_minus.  It looks for one root on one branch; finding
    none, or roots on both branches, is reported as NumericalFailure.  Past
    lam of about 9.27 for one loop (about 33.55 for two) there can be three
    roots, and the scan may step over a close pair.
    """
    lam, Lambda, mult = _as_positive(lam, "loop activity"), _as_total(Lambda), _as_int(mult, "mult")
    if mult not in (1, 2):
        raise InputError(f"mult must be 1 or 2, got {_shown(mult)}")
    A_lo = max(0.0, 2.0 * math.sqrt(lam) - 1.0)
    found: list[tuple[float, float, int]] = []
    for sign in (1, -1):
        def psi(A, sign=sign):
            return _psi_and_z(lam, Lambda, mult, sign, A)[0]

        def dpsi(A, sign=sign):
            return _psi_derivative(lam, Lambda, mult, sign, A)

        try:
            A_root = root_right(psi, dpsi, A_lo)
        except NumericalFailure:
            continue
        if A_root > 0.0:
            z_root = _psi_and_z(lam, Lambda, mult, sign, A_root)[1]
            found.append((A_root, z_root, sign))
    if not found:
        # the root can sit exactly on the branch meeting point A = A_lo
        # (radicand zero, z = 1), where psi touches zero without crossing
        # and no scan on either branch can bracket it; evaluate the
        # candidate with the radicand clamped to zero, because sqrt
        # amplifies the radicand's rounding noise to ~sqrt(eps) otherwise
        x = 1.0 + A_lo
        z_b = (x * x - 2.0 * lam) / (2.0 * lam)
        psi_b = A_lo * x * x - Lambda - mult * lam * z_b * (2.0 + z_b)
        try:
            certified = abs(psi_b) <= 1e-9 * max(1.0, abs(Lambda), x ** 3)
        except OverflowError:
            certified = False  # a scale past double range certifies nothing
        if A_lo > 0.0 and certified:
            return A_lo, z_b, 1
        raise NumericalFailure(f"no aggregate root located for lam={lam}, Lambda={Lambda}")
    if len(found) == 2:
        # the branches meet where the radicand vanishes (z = 1); treat a
        # shared boundary root as one solution, anything else as a bug
        if abs(found[0][0] - found[1][0]) <= 1e-9 * max(1.0, abs(found[0][0])):
            found = found[:1]
        else:
            raise NumericalFailure(
                f"both branches carry aggregate roots for lam={lam}, Lambda={Lambda}: "
                f"{found[0][0]} and {found[1][0]}"
            )
    return found[0]


def _loop_solution(problem: _LoopProblem, branches: tuple[str, str]):
    """The BoundaryLawSolution of the problem's equal loops (canonical labels
    1..loops) at the aggregate root of solve_loop_aggregate; branches names
    the z_plus and the z_minus branch."""
    lam, Lambda, mult = problem.lam, problem.Lambda, problem.loops
    A, z, sign = solve_loop_aggregate(lam, Lambda, mult)
    labels = tuple(range(1, mult + 1))
    system = ReducedSystem(k=2, loop_labels=labels, loop_lams=(lam,) * mult, Lambda=Lambda)
    residual = system.residual_at((z,) * mult, A)
    branch = branches[0] if sign > 0 else branches[1]
    return BoundaryLawSolution(A, dict.fromkeys(labels, z), branch, residual)


def solve_unique(problem: TwoLoopProblem) -> BoundaryLawSolution:
    """The closed form's one translation-invariant boundary law of a
    single-loop instance.  It is the only one below a loop activity of
    about 9.27; past that there can be three, and this returns one of them
    or raises NumericalFailure (see solve_loop_aggregate)."""
    return _loop_solution(_as_kind(problem, TwoLoopProblem, "problem"), ("two-loop-f", "two-loop-g"))


def _divergent_report(problem, kind: type, divergent: bool) -> RegimeReport | None:
    """The count-0 report of divergent input, with the loop activity of the
    problem (of the given kind) when given; None when there is one to classify."""
    if problem is None and not divergent:
        raise InputError("classify needs a problem unless divergent=True")
    lam = None if problem is None else _as_kind(problem, kind, "problem").lam
    return RegimeReport(lam, None, None, None, count=0, case_label="divergent") if divergent else None


def classify(problem: TwoLoopProblem | None = None, *, divergent: bool = False) -> RegimeReport:
    """Solution count for the single-loop graph: 1 when finite, 0 when divergent."""
    return _divergent_report(problem, TwoLoopProblem, divergent) or RegimeReport(
        problem.lam, problem.Lambda, None, None, count=1, case_label="unique")
