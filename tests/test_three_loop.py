"""Two equal nonzero loops: thresholds, quartic geometry, enumeration.

Solution values at lambda = 9 were computed with the fixed-point oracle
(multistart with Newton confirmation) and frozen; the threshold values are
checked both against frozen floats and against their defining property
that the quartic's interior minimum touches zero.
"""

import math

import numpy as np
import pytest

from hcgibbs.boundary_law import expand, residual
from hcgibbs.errors import DivergentActivities, DomainError, InputError
from hcgibbs.model import ActivitySpec, graph_from_spec
from hcgibbs.three_loop import (
    LAMBDA_STAR,
    ThreeLoopProblem,
    classify,
    delta_curve,
    enumerate_solutions,
    h_curve,
    q_critical_points,
    q_poly,
    thresholds,
)

LAMBDA2_9 = 144.81948217705747
X3_9 = 6.361304679775493

# frozen oracle-confirmed solutions at lambda = 9, Lambda = 130
FROZEN_130 = {
    "symmetric": (5.0022473606765629, 0.94673276852683663, 0.94673276852683663),
    "asymmetric-A1": (5.1732882054849822, 1.6153120425734777, 0.61907543164652146),
    "asymmetric-A1-swapped": (5.1732882054849822, 0.61907543164652146, 1.6153120425734777),
    "asymmetric-A2": (7.3429448930323193, 5.5538019988430181, 0.18005683317632182),
    "asymmetric-A2-swapped": (7.3429448930323193, 0.18005683317632182, 5.5538019988430181),
}


def test_threshold_frozen_values():
    L1, L2 = thresholds(9.0)
    assert L1 == 126.0
    assert L2 == pytest.approx(LAMBDA2_9, rel=1e-12)
    L1, L2 = thresholds(4.0)
    assert L1 == 24.0
    assert L2 == pytest.approx(25.63659945443753, rel=1e-12)
    assert thresholds(2.0)[1] == pytest.approx(8.0, rel=1e-12)


def test_threshold_defining_properties():
    # the lower threshold is where the quartic vanishes at the left edge of
    # its ray, the upper one where it vanishes at its interior minimum
    for lam in (6.0, 9.0, 12.0, 20.0):
        L1, L2 = thresholds(lam)
        lo = 2.0 * math.sqrt(lam) - 1.0
        assert q_poly(lam, L1, lo) == pytest.approx(0.0, abs=1e-9 * lam * L1)
        x2, xm, x3 = q_critical_points(lam)
        assert xm == -1.0
        assert q_poly(lam, L2, x3) == pytest.approx(0.0, abs=1e-9 * lam * L2)


def test_threshold_coincidence_at_tangency():
    L1, L2 = thresholds(LAMBDA_STAR)
    target = 1274.0 / 27.0
    assert L1 == pytest.approx(target, rel=1e-12)
    assert L2 == pytest.approx(target, rel=1e-12)
    assert L1 == pytest.approx(L2, rel=1e-12)


def test_critical_points():
    x2, xm, x3 = q_critical_points(9.0)
    assert x3 == pytest.approx(X3_9, rel=1e-14)
    assert x2 == pytest.approx(-1.6113046797754937, rel=1e-14)
    # the critical points really are zeros of the derivative
    eps = 1e-6
    for x in (x2, x3):
        slope = (q_poly(9.0, 130.0, x + eps) - q_poly(9.0, 130.0, x - eps)) / (2 * eps)
        assert abs(slope) < 1e-5


def test_q_derivative_against_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.uniform(0.5, 20.0)
        x = rng.uniform(0.0, 10.0)
        eps = 1e-6
        num = (q_poly(lam, 50.0, x + eps) - q_poly(lam, 50.0, x - eps)) / (2 * eps)
        x2, _, x3 = q_critical_points(lam)
        analytic = 4.0 * (x + 1.0) * (x - x2) * (x - x3)
        assert num == pytest.approx(analytic, rel=1e-5, abs=1e-4)


def test_enumeration_counts_by_regime():
    counts = {100.0: 3, 130.0: 5, LAMBDA2_9: 3, 200.0: 1}
    for Lam, want in counts.items():
        sols = enumerate_solutions(ThreeLoopProblem(9.0, Lam))
        assert len(sols) == want, Lam
        rep = classify(ThreeLoopProblem(9.0, Lam))
        assert rep.count == want


def test_enumeration_below_tangency():
    # below the tangency activity only the lower threshold matters
    assert len(enumerate_solutions(ThreeLoopProblem(4.0, 20.0))) == 3
    assert len(enumerate_solutions(ThreeLoopProblem(4.0, 24.0))) == 1
    assert len(enumerate_solutions(ThreeLoopProblem(4.0, 25.0))) == 1
    assert len(enumerate_solutions(ThreeLoopProblem(2.0, 8.0))) == 1


def test_frozen_solutions_at_130():
    sols = enumerate_solutions(ThreeLoopProblem(9.0, 130.0))
    assert sorted(s.branch for s in sols) == sorted(FROZEN_130)
    for s in sols:
        A, z1, z2 = FROZEN_130[s.branch]
        assert s.A == pytest.approx(A, rel=1e-12)
        assert s.loop_z[1] == pytest.approx(z1, rel=1e-12)
        assert s.loop_z[2] == pytest.approx(z2, rel=1e-12)
        assert s.residual < 1e-10


def test_swap_closure():
    sols = {s.branch: s for s in enumerate_solutions(ThreeLoopProblem(9.0, 130.0))}
    for stem in ("asymmetric-A1", "asymmetric-A2"):
        a = sols[stem]
        b = sols[stem + "-swapped"]
        assert a.loop_z[1] == b.loop_z[2]
        assert a.loop_z[2] == b.loop_z[1]
        assert a.A == b.A


def test_solutions_close_full_system():
    spec = ActivitySpec(loop_activities={1: 9.0, 2: 9.0}, tail_mass=112.0)
    graph = graph_from_spec(spec)
    for s in enumerate_solutions(ThreeLoopProblem.from_spec(spec)):
        z, _ = expand(s, spec)
        assert residual(spec, graph, z, s.A) < 1e-10


def test_classify_case_labels():
    assert classify(ThreeLoopProblem(4.0, 20.0)).case_label == "i"
    assert classify(ThreeLoopProblem(4.0, 24.0)).case_label == "ii"
    assert classify(ThreeLoopProblem(9.0, 100.0)).case_label == "iii"
    assert classify(ThreeLoopProblem(9.0, 126.0)).case_label == "iii"
    assert classify(ThreeLoopProblem(9.0, 130.0)).case_label == "iv"
    assert classify(ThreeLoopProblem(9.0, LAMBDA2_9)).case_label == "v"
    assert classify(ThreeLoopProblem(9.0, 200.0)).case_label == "vi"
    div = classify(divergent=True)
    assert div.count == 0
    assert div.case_label == "divergent"


def test_upper_threshold_detection_band():
    # within the relative detection band the double root counts once
    near = LAMBDA2_9 * (1.0 + 5e-10)
    assert classify(ThreeLoopProblem(9.0, near)).case_label == "v"
    assert len(enumerate_solutions(ThreeLoopProblem(9.0, near))) == 3
    # clearly above the band the asymmetric pair is gone
    above = LAMBDA2_9 * (1.0 + 1e-7)
    assert classify(ThreeLoopProblem(9.0, above)).case_label == "vi"
    assert len(enumerate_solutions(ThreeLoopProblem(9.0, above))) == 1


def test_symmetric_at_double_root_point():
    sols = enumerate_solutions(ThreeLoopProblem(9.0, LAMBDA2_9))
    asym = [s for s in sols if s.branch.startswith("asymmetric")]
    assert len(asym) == 2
    for s in asym:
        assert s.A == pytest.approx(X3_9, rel=1e-9)


def test_enumeration_at_tangency_point():
    # at the tangency activity the two thresholds collapse onto one cell
    # and the symmetric aggregate root sits exactly on the branch meeting
    # point A = 2 sqrt(lam) - 1, where the defect touches zero without a
    # sign change; the solver must accept that boundary root
    L1, _ = thresholds(LAMBDA_STAR)
    prob = ThreeLoopProblem(LAMBDA_STAR, L1)
    sols = enumerate_solutions(prob)
    assert len(sols) == 1
    s = sols[0]
    assert s.branch == "symmetric"
    assert s.A == 2.0 * math.sqrt(LAMBDA_STAR) - 1.0
    assert s.loop_z[1] == s.loop_z[2]
    assert s.loop_z[1] == pytest.approx(1.0, rel=1e-12)
    assert s.residual < 1e-12
    assert classify(prob).count == 1


def test_curve_difference_identity():
    x, Lambda = 2.0, 10.0
    bound = (1.0 + x) ** 2 / 4.0
    for lam in np.linspace(1e-4, bound, 1000):
        gap = h_curve(lam, x, Lambda) - delta_curve(lam, x, Lambda)
        want = 2.0 * (1.0 + x) ** 3 * math.sqrt((1.0 + x) ** 2 - 4.0 * lam)
        assert abs(gap - want) < 1e-10


def test_curve_small_activity_limits():
    x, Lambda = 2.0, 10.0
    assert h_curve(1e-12, x, Lambda) == pytest.approx(2.0 * (1.0 + x) ** 4, abs=1e-8)
    assert abs(delta_curve(1e-12, x, Lambda)) < 1e-8


def test_curve_overflow_is_domain_error():
    for fn in (h_curve, delta_curve):
        for x in (1e200, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                fn(1.0, x, 10.0)  # overflows, or x is not finite


def test_problem_validation():
    with pytest.raises(InputError):
        ThreeLoopProblem(9.0, 17.0)  # total below twice the loop activity
    with pytest.raises(InputError):
        ThreeLoopProblem(-1.0, 10.0)
    with pytest.raises(DivergentActivities):
        ThreeLoopProblem(9.0, math.inf)


def test_from_spec_shape_checks():
    uneq = ActivitySpec(loop_activities={1: 9.0, 2: 8.0}, tail_mass=100.0)
    with pytest.raises(InputError):
        ThreeLoopProblem.from_spec(uneq)
    one = ActivitySpec(loop_activities={1: 9.0})
    with pytest.raises(InputError):
        ThreeLoopProblem.from_spec(one)
    div = ActivitySpec(loop_activities={1: 9.0, 2: 9.0}, divergent=True)
    with pytest.raises(DivergentActivities):
        ThreeLoopProblem.from_spec(div)
