"""Bracket scanning and bisection/Newton refinement on scalar functions."""

import hashlib
import math
import random

import pytest

from hcgibbs.errors import HcGibbsError, NumericalFailure
from hcgibbs.rootfind import SCAN_MAX_STEPS, SCAN_STEP, refine, root_right, scan_right
from hcgibbs.three_loop import ThreeLoopProblem, enumerate_solutions, thresholds
from hcgibbs.two_loop import solve_loop_aggregate


def test_scan_and_refine_sqrt2():
    f = lambda x: x * x - 2.0
    df = lambda x: 2.0 * x
    a, b, fa, fb = scan_right(f, 0.0)
    assert a < math.sqrt(2.0) < b
    assert fa < 0.0 < fb
    root = refine(f, df, a, b, fa, fb)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert root_right(f, df, 0.0) == root


def test_refine_with_derivative_polishes():
    f = lambda x: x * x * x - 5.0
    df = lambda x: 3.0 * x * x
    root = root_right(f, df, 1.0)
    assert abs(root - 5.0 ** (1.0 / 3.0)) < 1e-14


def test_scan_exact_zero_at_grid_point():
    # the scan may land exactly on a root; the bracket then degenerates
    f = lambda x: x - SCAN_STEP
    df = lambda x: 1.0
    a, b, fa, fb = scan_right(f, 0.0)
    assert a == b == SCAN_STEP and fa == fb == 0.0
    root = refine(f, df, a, b, fa, fb)
    assert root == pytest.approx(0.25, abs=1e-13)


def test_scan_exhaustion_raises():
    f = lambda x: 1.0 + x * x
    with pytest.raises(NumericalFailure, match=f"within {SCAN_MAX_STEPS} doubling steps"):
        scan_right(f, 0.0)
    with pytest.raises(NumericalFailure):
        root_right(f, lambda x: 2.0 * x, 0.0)


def test_scan_non_finite_raises():
    f = lambda x: math.sqrt(1.0 - x) if x <= 1.0 else math.nan
    with pytest.raises(NumericalFailure):
        scan_right(f, 0.0)


def test_refine_keeps_best_newton_iterate():
    # a flat cubic near its root makes raw Newton overshoot; the refiner
    # must never return an iterate worse than the bisection answer
    f = lambda x: (x - 1.0) ** 3 + 1e-9 * (x - 1.0)
    df = lambda x: 3.0 * (x - 1.0) ** 2 + 1e-9
    a, b, fa, fb = scan_right(f, 0.0)
    root = refine(f, df, a, b, fa, fb)
    assert abs(f(root)) <= abs(f(0.5 * (a + b)))
    assert root == pytest.approx(1.0, abs=1e-4)


def _outcome(fn, *args):
    """fn(*args), or the class name of the package error it raises."""
    try:
        return fn(*args)
    except HcGibbsError as exc:
        return type(exc).__name__


def test_closed_form_battery_frozen():
    # SHA-256 over repr of every outcome: the aggregate solver on 1500
    # seeded draws (lam log-uniform in [1e-3, 1e3], Lambda from mult*lam up
    # to 1000 times that), then enumerate_solutions on 1000 two-loop points
    # within 1e-12..1e-1 relative of Lambda1 or Lambda2.  It pins every
    # closed-form value and refusal to the bit.
    rng = random.Random(12)
    outcomes = []
    for _ in range(750):
        for mult in (1, 2):
            lam = 10.0 ** rng.uniform(-3.0, 3.0)
            Lambda = mult * lam * 10.0 ** rng.uniform(0.0, 3.0)
            outcomes.append(_outcome(solve_loop_aggregate, lam, Lambda, mult))
    for i in range(1000):
        lam = 10.0 ** rng.uniform(0.4, 1.9)
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0)
        Lambda = thresholds(lam)[i % 2] * (1.0 + offset)
        outcomes.append(_outcome(lambda: enumerate_solutions(ThreeLoopProblem(lam, Lambda))))
    refused = [o for o in outcomes if isinstance(o, str)]
    assert set(refused) == {"NumericalFailure"} and len(refused) == 107 + 63
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
        "43b35b48c90482855c6b35238cc7f61836054122594aa90adf2f9832a720dca0"
    )


def _never(x):
    raise AssertionError("refine evaluated a function")


@pytest.mark.parametrize("fa, fb, root", [(0.0, 1.0, 1.0), (-1.0, 0.0, 2.0), (0.0, 0.0, 1.0),
                                          (1.0, 2.0, None), (-1.0, -2.0, None)])
def test_refine_at_a_zero_end_or_without_a_sign_change(fa, fb, root):
    if root is None:
        with pytest.raises(NumericalFailure, match="not a sign-change bracket"):
            refine(_never, _never, 1.0, 2.0, fa, fb)
    else:
        assert refine(_never, _never, 1.0, 2.0, fa, fb) == root
