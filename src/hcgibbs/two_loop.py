"""Closed-form solver for graphs with a single nonzero self-loop vertex.

With one loop vertex (activity lam, canonical label 1) and total activity
Lambda, the loop equation at aggregate A has the two explicit branches

    z_pm(A) = ((1+A)^2 - 2 lam +- (1+A) sqrt((1+A)^2 - 4 lam)) / (2 lam)

whose product is exactly 1, and the aggregate identity becomes a scalar
equation psi(A) = 0 per branch.  Exactly one branch carries a root, and the
unique translation-invariant Gibbs measure sits there.  All formulas assume
tree order k = 2.

f_curve and g_curve are the same two branch conditions written as quartic
expressions in x = 1 + A; they are kept as test instruments.  Every such
curve, here and in three_loop, goes through checked_curve, so a
non-finite x or a value past double precision raises DomainError.
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
    _as_positive,
    _as_total,
    require_finite,
)
from .rootfind import root_right


def _check_problem(problem, lam_field: str, mult: int) -> None:
    """Check a problem with mult equal loops and store its activities as
    floats: the loop activity (field lam_field) positive and finite, Lambda
    read by _as_total and at least mult times it."""
    lam = _as_positive(getattr(problem, lam_field), "loop activity")
    Lambda = _as_total(problem.Lambda)
    if Lambda < mult * lam:
        raise InputError(f"total activity {Lambda} must be >= {mult} times the loop activity {lam}")
    object.__setattr__(problem, lam_field, lam)
    object.__setattr__(problem, "Lambda", Lambda)


def _spec_loops(spec: ActivitySpec, n: int) -> tuple[tuple[float, ...], float]:
    """The n loop activities and the total activity of a spec that a
    closed-form solver for n loops can take."""
    lams = tuple(spec.loop_activities.values())
    if spec.k != 2:
        raise InputError(f"closed-form solver requires tree order k = 2, got k = {spec.k}")
    if len(lams) != n:
        raise InputError(f"closed-form solver needs {n} nonzero loop(s), got {len(lams)}")
    return lams, require_finite(spec)


@dataclass(frozen=True)
class TwoLoopProblem:
    """Parameters of a single-nonzero-loop instance: lam1 > 0, Lambda >= lam1."""

    lam1: float
    Lambda: float

    def __post_init__(self) -> None:
        _check_problem(self, "lam1", 1)

    @classmethod
    def from_spec(cls, spec: ActivitySpec) -> "TwoLoopProblem":
        (lam1,), Lambda = _spec_loops(spec, 1)
        return cls(lam1=lam1, Lambda=Lambda)


def _radicand(lam: float, x: float) -> float:
    r = x * x - 4.0 * lam
    if r < 0.0:
        raise DomainError(f"negative radicand: lambda = {lam} exceeds {x}^2/4 = {x * x / 4.0}")
    return r


def checked_curve(curve):
    """A branch-condition curve curve(lam, x, Lambda) with checked arguments and value.

    lam must be positive and x positive and finite; a value that overflows
    double precision or is otherwise not finite raises DomainError.
    """
    @functools.wraps(curve)
    def checked(lam: float, x: float, Lambda: float) -> float:
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
    z_plus * z_minus = 1 to avoid cancellation at large A.
    """
    x = 1.0 + A
    s = math.sqrt(_radicand(lam, x))
    z_plus = (x * x - 2.0 * lam + x * s) / (2.0 * lam)
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
    """Unique root of the aggregate equation A(1+A)^2 = Lambda + mult*lam*z(2+z).

    mult is the number of identical nonzero loop vertices sharing activity
    lam (1 or 2).  Returns (A, z, sign) where sign is +1 for the z_plus
    branch and -1 for z_minus.  Exactly one branch carries the root; finding
    none or more than one is reported as NumericalFailure.
    """
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


def _loop_solution(lam: float, Lambda: float, mult: int, branches: tuple[str, str]):
    """The BoundaryLawSolution with mult equal loops (canonical labels
    1..mult) at the aggregate root of solve_loop_aggregate; branches names
    the z_plus and the z_minus branch."""
    A, z, sign = solve_loop_aggregate(lam, Lambda, mult)
    labels = tuple(range(1, mult + 1))
    system = ReducedSystem(k=2, loop_labels=labels, loop_lams=(lam,) * mult, Lambda=Lambda)
    residual = system.residual_at((z,) * mult, A)
    branch = branches[0] if sign > 0 else branches[1]
    return BoundaryLawSolution(A, dict.fromkeys(labels, z), branch, residual)


def solve_unique(problem: TwoLoopProblem) -> BoundaryLawSolution:
    """The unique translation-invariant boundary law of a single-loop instance."""
    return _loop_solution(problem.lam1, problem.Lambda, 1, ("two-loop-f", "two-loop-g"))


def _divergent_report(problem, lam_field: str, divergent: bool) -> RegimeReport | None:
    """The count-0 report of divergent input, with the problem's loop activity
    (field lam_field) when given; None when there is a problem to classify."""
    if divergent:
        lam = None if problem is None else getattr(problem, lam_field)
        return RegimeReport(lam, None, None, None, count=0, case_label="divergent")
    if problem is None:
        raise InputError("classify needs a problem unless divergent=True")
    return None


def classify(problem: TwoLoopProblem | None = None, *, divergent: bool = False) -> RegimeReport:
    """Solution count for the single-loop graph: 1 when finite, 0 when divergent."""
    return _divergent_report(problem, "lam1", divergent) or RegimeReport(
        problem.lam1, problem.Lambda, None, None, count=1, case_label="unique")
