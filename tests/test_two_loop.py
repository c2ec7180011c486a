"""Single nonzero loop: unique solution, curve geometry, branch algebra.

Expected solution values were computed with the damped fixed-point oracle
and frozen; see test_oracle for the cross-check at the same parameters.
"""

import json
import math

import numpy as np
import pytest

from hcgibbs.boundary_law import expand, residual
from hcgibbs.cli import main
from hcgibbs.errors import DivergentActivities, DomainError, InputError
from hcgibbs.model import ActivitySpec, graph_from_spec
from hcgibbs.oracle import multistart_count
from hcgibbs.two_loop import (
    TwoLoopProblem,
    classify,
    f_curve,
    g_curve,
    loop_z_branches,
    solve_unique,
)

# frozen oracle-confirmed solution at lambda_1 = 1, Lambda = 2
A_12 = 1.0169168190675275
Z_12 = 0.7710929641358364


def test_frozen_solution_values():
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    assert sol.A == pytest.approx(A_12, rel=1e-12)
    assert sol.loop_z[1] == pytest.approx(Z_12, rel=1e-12)
    assert sol.branch == "two-loop-g"
    assert sol.residual < 1e-10


def test_frozen_solution_values_other_branch():
    sol = solve_unique(TwoLoopProblem(4.0, 5.0))
    assert sol.A == pytest.approx(3.975713282718794, rel=1e-12)
    assert sol.loop_z[1] == pytest.approx(3.935321845539555, rel=1e-12)
    assert sol.branch == "two-loop-f"


def test_solution_closes_full_system():
    spec = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    graph = graph_from_spec(spec)
    sol = solve_unique(TwoLoopProblem.from_spec(spec))
    z, _ = expand(sol, spec)
    assert residual(spec, graph, z, sol.A) < 1e-10


def test_random_parameters_always_unique_and_closed():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam1 = rng.uniform(0.1, 20.0)
        Lam = rng.uniform(lam1 + 0.1, 50.0)
        sol = solve_unique(TwoLoopProblem(lam1, Lam))
        assert sol.A > 0.0
        assert sol.loop_z[1] > 0.0
        assert sol.residual < 1e-10


def test_branch_reciprocity():
    # the two loop components at the same aggregate are exact reciprocals;
    # the direct minus-branch formula agrees with the reciprocal form
    for lam, A in [(1.0, 1.5), (2.0, 3.0), (5.0, 9.0), (0.3, 0.2)]:
        z_plus, z_minus = loop_z_branches(lam, A)
        assert z_plus * z_minus == pytest.approx(1.0, rel=1e-12)
        s = 1.0 + A
        direct = (s * s - 2.0 * lam - s * math.sqrt(s * s - 4.0 * lam)) / (2.0 * lam)
        assert z_minus == pytest.approx(direct, rel=1e-9)


def test_curve_difference_identity():
    x, Lambda = 2.5, 6.0
    for lam in np.linspace(1e-4, x * x / 4.0, 1000):
        gap = f_curve(lam, x, Lambda) - g_curve(lam, x, Lambda)
        want = 2.0 * x**3 * math.sqrt(x * x - 4.0 * lam)
        assert abs(gap - want) < 1e-10


def test_curve_small_activity_limits():
    x, Lambda = 2.5, 6.0
    assert f_curve(1e-12, x, Lambda) == pytest.approx(2.0 * x**4, abs=1e-8)
    assert abs(g_curve(1e-12, x, Lambda)) < 1e-8


def test_each_curve_changes_sign_at_most_once():
    x, Lambda = 2.5, 6.0
    lams = np.linspace(1e-6, x * x / 4.0, 10_000)
    for fn in (f_curve, g_curve):
        vals = np.array([fn(lam, x, Lambda) for lam in lams])
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes <= 1


def test_curvature_signs():
    # second differences: the plus-branch curve is concave in the activity,
    # the minus-branch curve convex
    x, Lambda = 2.5, 6.0
    lams = np.linspace(0.05, x * x / 4.0 - 0.05, 200)
    h = lams[1] - lams[0]
    f = np.array([f_curve(lam, x, Lambda) for lam in lams])
    g = np.array([g_curve(lam, x, Lambda) for lam in lams])
    assert np.all(f[:-2] - 2.0 * f[1:-1] + f[2:] < 0.0)
    assert np.all(g[:-2] - 2.0 * g[1:-1] + g[2:] > 0.0)
    assert h > 0.0


def test_curve_domain_errors():
    with pytest.raises(DomainError):
        f_curve(2.0, 2.0, 6.0)  # x^2 - 4 lambda < 0
    with pytest.raises(DomainError):
        f_curve(1.0, -1.0, 6.0)
    for x in (1e100, float("inf"), float("nan")):
        for fn in (f_curve, g_curve):
            with pytest.raises(DomainError):
                fn(1.0, x, 6.0)  # overflows, or x is not finite


def test_problem_validation():
    with pytest.raises(InputError):
        TwoLoopProblem(0.0, 2.0)
    with pytest.raises(InputError):
        TwoLoopProblem(-1.0, 2.0)
    with pytest.raises(InputError):
        TwoLoopProblem(math.nan, 2.0)
    with pytest.raises(InputError):
        TwoLoopProblem(2.0, 1.0)  # total below the loop activity
    with pytest.raises(DivergentActivities):
        TwoLoopProblem(1.0, math.inf)


def test_from_spec_shape_checks():
    spec3 = ActivitySpec(loop_activities={1: 1.0, 2: 1.0})
    with pytest.raises(InputError):
        TwoLoopProblem.from_spec(spec3)
    spec_k = ActivitySpec(loop_activities={1: 1.0}, k=3)
    with pytest.raises(InputError):
        TwoLoopProblem.from_spec(spec_k)
    div = ActivitySpec(loop_activities={1: 1.0}, divergent=True)
    with pytest.raises(DivergentActivities):
        TwoLoopProblem.from_spec(div)


def test_classify():
    rep = classify(TwoLoopProblem(1.0, 2.0))
    assert rep.count == 1
    assert rep.case_label == "unique"
    div = classify(divergent=True)
    assert div.count == 0
    assert div.case_label == "divergent"


def test_one_loop_closed_form_is_not_always_unique(tmp_path, capsys):
    # a known defect, pinned as it stands: past lam of about 9.27 the
    # aggregate equation can have three roots.  At (20, 720) both branches
    # carry one and the closed form refuses; at (20, 571.1458768) the
    # scan's first step jumps over a close pair and it returns one.  The
    # oracle finds all three at both points.
    for tail_mass, rc, count in ((700.0, 4, None), (551.1458768, 0, 1)):
        spec = ActivitySpec(loop_activities={1: 20.0}, tail_mass=tail_mass)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"loops": {"1": 20.0}, "tail_mass": tail_mass}))
        assert main(["solve", str(path)]) == rc
        out, err = capsys.readouterr()
        if count is None:
            assert err.startswith("numerical failure: both branches carry aggregate roots")
        else:
            assert len(json.loads(out)) == count
        assert multistart_count(spec, graph_from_spec(spec), n_starts=60, seed=0).count == 3


@pytest.mark.parametrize("curve", [f_curve, g_curve])
@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_curves_refuse_a_loop_activity_that_is_not_positive(curve, lam):
    with pytest.raises(DomainError, match="lambda must be positive"):
        curve(lam, 2.0, 1.0)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), "1"])
def test_loop_branches_read_lambda_by_the_input_rule(lam):
    # 0 divided by zero, and -1 gave the negative pair (-5.83, -0.17)
    with pytest.raises(InputError, match="loop activity"):
        loop_z_branches(lam, 1.0)


@pytest.mark.parametrize("A", [1e200, float("inf"), -float("inf"), float("nan"), -1e10])
def test_loop_branches_past_double_precision_are_a_domain_error(A):
    with pytest.raises(DomainError):
        loop_z_branches(1.0, A)
