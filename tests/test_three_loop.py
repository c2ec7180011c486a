"""Two equal nonzero loops: thresholds, quartic geometry, enumeration.

Solution values at lambda = 9 were computed with the fixed-point oracle
(multistart with Newton confirmation) and frozen; the threshold values are
checked both against frozen floats and against their defining property
that the quartic's interior minimum touches zero.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from hcgibbs import three_loop, two_loop
from hcgibbs.boundary_law import expand, residual
from hcgibbs.errors import DivergentActivities, DomainError, InputError, NumericalFailure
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


# case i points within a few ulps of Lambda1, where the asymmetric root
# rounded 1 and 341 ulps below the ray start 2 sqrt(lam) - 1 and the branch
# values refused it with "negative radicand"
@pytest.mark.parametrize(
    "lam, Lambda",
    [(2.3550230992804946, 5.362075819436568), (5.432305530438648, 46.96687425769785)],
)
def test_enumeration_a_few_ulps_below_the_lower_threshold(lam, Lambda):
    prob = ThreeLoopProblem(lam, Lambda)
    assert classify(prob).case_label == "i"
    sols = enumerate_solutions(prob)
    assert len(sols) == 3
    spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=Lambda - 2.0 * lam)
    graph = graph_from_spec(spec)
    lo = 2.0 * math.sqrt(lam) - 1.0
    assert all(s.A >= lo for s in sols if s.branch.startswith("asymmetric"))
    for s in sols:
        assert s.residual < 1e-10
        assert residual(spec, graph, expand(s, spec)[0], s.A) < 1e-10
    # a point genuinely off the ray is still refused
    for A in (lo * (1.0 - 1e-12), 0.5 * lo):
        with pytest.raises(DomainError):
            two_loop.loop_z_branches(lam, A)


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


def test_classify_counts_what_enumerate_finds_near_the_thresholds():
    # lam log-uniform in [0.1, 100]; Lambda within 1e-13 to 1e-1 (relative)
    # of Lambda1 or Lambda2, or spread above 2*lam
    rng = np.random.default_rng(20231)
    checked = refused = 0
    for _ in range(3000):
        lam = float(10 ** rng.uniform(-1, 2))
        mode = rng.integers(3)
        if mode == 2:
            Lambda = 2 * lam * float(10 ** rng.uniform(0, 3))
        else:
            offset = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-13, -1))
            Lambda = thresholds(lam)[mode] * (1 + offset)
        if not Lambda >= 2 * lam:
            continue
        problem = ThreeLoopProblem(lam, Lambda)
        try:
            sols = enumerate_solutions(problem)
        except NumericalFailure:
            refused += 1
            continue
        assert classify(problem).count == len(sols), (lam, Lambda)
        checked += 1
    assert checked == 2489
    # the symmetric solve refuses 75 points of its three-root window (the
    # "not always unique" Known defect in ROADMAP) and 5 points just below
    # Lambda1, where its root nears the branch point; pinned as they stand
    assert refused == 80


_THRESHOLD_NAMES = {"LAMBDA_STAR", "Lambda1", "Lambda2"}


def _threshold_compares(path: Path) -> list[str]:
    """The function around each comparison in a module that reads
    LAMBDA_STAR, Lambda1 or Lambda2."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) in _THRESHOLD_NAMES
                for n in ast.walk(node)):
            found.append(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_regime_compares_against_the_thresholds():
    modules = sorted(Path(three_loop.__file__).parent.glob("*.py"))
    found = [line for path in modules for line in _threshold_compares(path)]
    assert found and set(found) == {"three_loop.py:_regime"}


def test_both_classifiers_share_the_divergent_report():
    one, two = two_loop.TwoLoopProblem(9.0, 20.0), ThreeLoopProblem(9.0, 20.0)
    assert (two_loop.classify(one, divergent=True).to_json_dict()
            == classify(two, divergent=True).to_json_dict()
            == {"lambda": 9.0, "Lambda": None, "Lambda1": None, "Lambda2": None,
                "count": 0, "case": "divergent"})
    for fn in (two_loop.classify, classify):
        assert fn(divergent=True).lam is None
        with pytest.raises(InputError):
            fn()


def test_q_poly_reads_lambda_and_refuses_overflow():
    with pytest.raises(InputError, match="loop activity"):
        q_poly(0.0, 10.0, 1.0)
    with pytest.raises(DomainError, match="overflows"):
        q_poly(1.0, 10.0, 1e100)  # used to raise OverflowError
