"""Reduced consistency system: defect, residual, expansion, Jacobian."""

import numpy as np
import pytest

from hcgibbs.boundary_law import expand, reduce, residual
from hcgibbs.errors import DivergentActivities, InputError
from hcgibbs.model import ActivitySpec, BoundaryLawSolution, graph_from_spec
from hcgibbs.two_loop import TwoLoopProblem, solve_unique

SPEC = ActivitySpec(loop_activities={1: 1.0}, explicit_tail={2: 0.5}, tail_mass=0.5)
GRAPH = graph_from_spec(SPEC)


def test_reduce_fields():
    sys_ = reduce(SPEC, GRAPH)
    assert sys_.k == 2
    assert sys_.loop_labels == (1,)
    assert sys_.loop_lams == (1.0,)
    assert sys_.Lambda == pytest.approx(2.0)
    assert sys_.tail_lambda == pytest.approx(1.0)
    assert sys_.defect([0.5], 0.5).shape == (2,)  # the unknowns (z_1, A)


def test_reduce_divergent_raises():
    spec = ActivitySpec(loop_activities={1: 1.0}, divergent=True)
    with pytest.raises(DivergentActivities):
        reduce(spec, graph_from_spec(spec))


def test_defect_vanishes_at_solution():
    sys_ = reduce(SPEC, GRAPH)
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    d = sys_.defect(np.array([sol.loop_z[1]]), sol.A)
    assert np.max(np.abs(d)) < 1e-12


def test_residual_full_system():
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    z, _ = expand(sol, SPEC)
    assert residual(SPEC, GRAPH, z, sol.A) < 1e-10
    # a perturbed point has a visibly nonzero residual
    z_bad = dict(z)
    z_bad[1] += 1e-3
    assert residual(SPEC, GRAPH, z_bad, sol.A) > 1e-4


def test_residual_requires_all_listed_components():
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    with pytest.raises(InputError):
        residual(SPEC, GRAPH, {1: sol.loop_z[1]}, sol.A)


def test_expand_components():
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    z, tail_z = expand(sol, SPEC)
    q = (1.0 + sol.A) ** 2
    assert z[1] == sol.loop_z[1]
    assert z[2] == pytest.approx(0.5 / q, rel=1e-14)
    assert tail_z == pytest.approx(0.5 / q, rel=1e-14)
    # the aggregate equation: A = sum of loop z plus non-loop mass
    assert sol.A == pytest.approx(z[1] + z[2] + tail_z, rel=1e-12)


def test_jacobian_matches_finite_differences():
    sys_ = reduce(
        ActivitySpec(loop_activities={1: 2.0, 2: 3.0}, tail_mass=1.0),
        graph_from_spec(ActivitySpec(loop_activities={1: 2.0, 2: 3.0}, tail_mass=1.0)),
    )
    z = np.array([0.7, 1.3])
    A = 0.9
    J = sys_.linearise(np.append(z, A))[1]
    eps = 1e-7

    def defect_vec(v):
        return np.asarray(sys_.defect(v[:2], v[2]))

    point = np.array([z[0], z[1], A])
    for col in range(3):
        step = np.zeros(3)
        step[col] = eps
        num = (defect_vec(point + step) - defect_vec(point - step)) / (2 * eps)
        assert np.allclose(J[:, col], num, atol=1e-6)


def test_stacked_map_matches_scalar_arithmetic():
    # one point or a stack: the same bits as the scalar formulas, so the
    # solvers' reported residuals do not depend on how the map is evaluated
    rng = np.random.default_rng(3)
    for lams in ((1.5,), (9.0, 9.0), (2.0, 3.0)):
        spec = ActivitySpec(loop_activities=dict(enumerate(lams, 1)), tail_mass=4.0)
        sys_ = reduce(spec, graph_from_spec(spec))
        Z = 10.0 ** rng.uniform(-3.0, 3.0, size=(2000, len(lams)))
        A = 10.0 ** rng.uniform(-3.0, 3.0, size=2000)
        D = sys_.defect(Z, A)
        J = sys_.linearise(np.column_stack([Z, A]))[1]
        for i in range(0, 2000, 7):
            z, a = [float(v) for v in Z[i]], float(A[i])
            q = (1.0 + a) ** 2
            want = [zi - lam * (1.0 + zi) ** 2 / q for zi, lam in zip(z, lams)]
            want.append(a - sum(z) - sys_.tail_lambda / q)
            assert D[i].tolist() == want
            assert sys_.defect(z, a).tolist() == want
            assert np.array_equal(J[i], sys_.linearise([*z, a])[1])
        # an empty stack is a stack too
        assert sys_.defect(Z[:0], A[:0]).shape == (0, len(lams) + 1)
        J = sys_.linearise(np.column_stack([Z[:0], A[:0]]))[1]
        assert J.shape == (0, len(lams) + 1, len(lams) + 1)


@pytest.mark.parametrize("labels", [(2,), (1, 2), ()])
def test_expand_refuses_labels_other_than_the_spec_loops(labels):
    spec = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    sol = BoundaryLawSolution(1.0, {lab: 0.5 for lab in labels}, "unique", 0.0)
    with pytest.raises(InputError, match="do not match spec loops"):
        expand(sol, spec)


# the repro spec of the leaks: one loop, one listed tail spin, a tail mass
LEAK_SPEC = ActivitySpec(loop_activities={1: 1.0}, explicit_tail={2: 0.5}, tail_mass=1.0)


@pytest.mark.parametrize("A", [-1.0, 0.0, float("nan"), "0.5"])
def test_expand_reads_A_by_the_input_rule(A):
    with pytest.raises(InputError, match="aggregate A"):
        expand(BoundaryLawSolution(A, {1: 0.5}, "x", 0.0), LEAK_SPEC)  # -1 divided by 0


def test_an_overflowing_power_of_A_is_infinite():
    z, tail_z = expand(BoundaryLawSolution(1e200, {1: 0.5}, "x", 0.0), LEAK_SPEC)
    assert z == {1: 0.5, 2: 0.0} and tail_z == 0.0
    # (1 + A)**2 used to raise OverflowError; the aggregate identity is off by A
    assert residual(LEAK_SPEC, graph_from_spec(LEAK_SPEC), {1: 0.5, 2: 0.1}, 1e200) == 1e200
