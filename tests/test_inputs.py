"""One input rule for every entry point, read in `model` alone.

A real is any real type but bool, an integer any integer type but bool.
A bool or a numeric string is bad input at every argument, and a numpy
scalar gives the same result as the Python number of the same value.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import hcgibbs
from hcgibbs.boundary_law import residual
from hcgibbs.chain import (
    TransitionMatrix,
    power_iteration,
    stationary_closed_form,
    transition_matrix,
    verify_stationary,
)
from hcgibbs.errors import DivergentActivities, InputError, NumericalFailure
from hcgibbs.model import ActivitySpec, AdmissibilityGraph, graph_from_spec, require_finite
from hcgibbs.oracle import fixed_point_iterate, multistart_count
from hcgibbs.sampler import (
    TreeSample,
    conditional_diagnostic,
    finite_gibbs_oracle,
    level_counts,
    num_vertices,
    sample_forest,
    sample_tree,
)
from hcgibbs.three_loop import ThreeLoopProblem, q_critical_points, thresholds
from hcgibbs.two_loop import TwoLoopProblem, solve_unique

SPEC = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
GRAPH = graph_from_spec(SPEC)
SOL = solve_unique(TwoLoopProblem(1.0, 2.0))
TM = transition_matrix(SOL, SPEC, GRAPH, 2)
SD = stationary_closed_form(SOL, SPEC, GRAPH, 2)
FOREST = sample_forest(SOL, SPEC, GRAPH, 2, 2, 7)


def _residual(A=0.5, z1=0.25):
    return residual(SPEC, GRAPH, {1: z1}, A)


def _spec(k=2, label=1, activity=1.0, tail_mass=1.0):
    return ActivitySpec(loop_activities={label: activity}, tail_mass=tail_mass, k=k)


def _fixed_point(damping=0.5, max_iter=50, tol=2.0**-20, init=0.5, A_init=0.5):
    return fixed_point_iterate(SPEC, GRAPH, {1: init}, A_init, damping, max_iter, tol)


def _two_loop(lam1=1.0, Lambda=2.0):
    return TwoLoopProblem(lam1, Lambda)


def _three_loop(lam=9.0, Lambda=130.0):
    return ThreeLoopProblem(lam, Lambda)


def _tree(depth=2, seed=7):
    return sample_tree(SOL, SPEC, GRAPH, depth, seed)


def _forest(depth=2, trees=2, seed=7):
    return sample_forest(SOL, SPEC, GRAPH, depth, trees, seed)


def _multistart(n_starts=50, seed=3):
    return multistart_count(SPEC, GRAPH, n_starts, seed)


def _hand_tree(depth=0, seed=0, spin=1):
    return TreeSample(depth, seed, (spin,))


def _kernel(window=2):
    return transition_matrix(SOL, SPEC, GRAPH, window)


def _enumerate(depth=1, vertex=1):
    return finite_gibbs_oracle(SPEC, GRAPH, depth, {vertex: 0})


def _diagnostic(trials=20, seed=4):
    return conditional_diagnostic(SOL, SPEC, GRAPH, trials, seed)


def _power(tol=2.0**-40, max_iter=10_000):
    return power_iteration(TM, tol=tol, max_iter=max_iter)


# (entry point, argument, Python value): every other argument keeps its
# default; each value is exact in float32, so np.float32 reads as the same
# double
CASES = {
    "residual-A": (_residual, "A", 0.5),
    "residual-z": (_residual, "z1", 0.25),
    "TwoLoopProblem-lam1": (_two_loop, "lam1", 1.0),
    "TwoLoopProblem-Lambda": (_two_loop, "Lambda", 2.0),
    "ThreeLoopProblem-lam": (_three_loop, "lam", 9.0),
    "ThreeLoopProblem-Lambda": (_three_loop, "Lambda", 130.0),
    "thresholds-lam": (thresholds, "lam", 9.0),
    "q_critical_points-lam": (q_critical_points, "lam", 9.0),
    "transition_matrix-window": (_kernel, "window", 2),
    "TransitionMatrix.index-label": (lambda label: TM.index(label), "label", 1),
    "num_vertices-depth": (lambda depth: num_vertices(2, depth), "depth", 3),
    "TreeSample-depth": (_hand_tree, "depth", 0),
    "TreeSample-seed": (_hand_tree, "seed", 5),
    "TreeSample-spin": (_hand_tree, "spin", 1),
    "sample_tree-depth": (_tree, "depth", 2),
    "sample_tree-seed": (_tree, "seed", -7),
    "sample_forest-depth": (_forest, "depth", 2),
    "sample_forest-trees": (_forest, "trees", 2),
    "sample_forest-seed": (_forest, "seed", 7),
    "finite_gibbs_oracle-depth": (_enumerate, "depth", 1),
    "finite_gibbs_oracle-vertex": (_enumerate, "vertex", 1),
    "conditional_diagnostic-trials": (_diagnostic, "trials", 20),
    "conditional_diagnostic-seed": (_diagnostic, "seed", 4),
    "ActivitySpec-k": (_spec, "k", 2),
    "ActivitySpec-label": (_spec, "label", 1),
    "ActivitySpec-activity": (_spec, "activity", 1.0),
    "ActivitySpec-tail_mass": (_spec, "tail_mass", 1.0),
    "AdmissibilityGraph-loop": (lambda loop: AdmissibilityGraph((loop,)), "loop", 1),
    "fixed_point_iterate-damping": (_fixed_point, "damping", 0.5),
    "fixed_point_iterate-max_iter": (_fixed_point, "max_iter", 50),
    "fixed_point_iterate-tol": (_fixed_point, "tol", 2.0**-20),
    "fixed_point_iterate-init": (_fixed_point, "init", 0.5),
    "fixed_point_iterate-A_init": (_fixed_point, "A_init", 0.5),
    "multistart_count-n_starts": (_multistart, "n_starts", 50),
    "multistart_count-seed": (_multistart, "seed", 3),
    "level_counts-level": (lambda level: level_counts(FOREST, level), "level", 1),
    "power_iteration-max_iter": (_power, "max_iter", 10_000),
    "power_iteration-tol": (_power, "tol", 2.0**-40),
    "verify_stationary-tol": (lambda tol: verify_stationary(SD, TM, tol), "tol", 2.0**-30),
}


def _key(result):
    """A comparable form of a result; repr tells numpy scalars from Python numbers."""
    if isinstance(result, TransitionMatrix):
        return repr((result.window, result.states, result.stays)), result.hub_row.tobytes()
    if isinstance(result, TreeSample):
        return repr((result.depth, result.seed, result.k, result.spins)), result.index.tobytes()
    if isinstance(result, tuple) and result and isinstance(result[0], TreeSample):
        return tuple(map(_key, result))
    if isinstance(result, tuple) and result and isinstance(result[0], np.ndarray):
        return result[0].tobytes(), repr(result[1:])
    return repr(result)


@pytest.mark.parametrize("fn, arg, value", CASES.values(), ids=CASES.keys())
def test_bool_and_numeric_string_are_bad_input(fn, arg, value):
    for bad in (True, str(value)):
        with pytest.raises(InputError):
            fn(**{arg: bad})


@pytest.mark.parametrize("fn, arg, value", CASES.values(), ids=CASES.keys())
def test_numpy_scalar_reads_as_the_python_number(fn, arg, value):
    scalar = np.int64(value) if isinstance(value, int) else np.float32(value)
    assert _key(fn(**{arg: scalar})) == _key(fn(**{arg: value}))


_NUMBER_TYPES = {"bool", "int", "float", "np.integer", "np.floating", "np.number"}


def _number_type_checks(path: Path) -> list[str]:
    """Each isinstance call in a module that tests against a number type."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        types = node.args[1]
        for t in types.elts if isinstance(types, ast.Tuple) else [types]:
            name = ast.unparse(t)
            if name in _NUMBER_TYPES or name.startswith("numbers."):
                found.append(f"{path.name}:{node.lineno}: isinstance(..., {name})")
    return found


def test_only_model_decides_what_a_number_is():
    modules = sorted(Path(hcgibbs.__file__).parent.glob("*.py"))
    found = {path.name: _number_type_checks(path) for path in modules}
    assert found.pop("model.py")  # the scan sees the readers it guards
    assert [line for lines in found.values() for line in lines] == []


def test_level_below_zero_is_bad_input():
    with pytest.raises(InputError):
        level_counts(FOREST, -1)  # used to count the deepest level


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_a_tolerance_that_is_not_a_finite_bound_is_bad_input(tol):
    with pytest.raises(InputError):
        _power(tol=tol)  # NaN used to run every sweep, then fail
    with pytest.raises(InputError):
        verify_stationary(SD, TM, tol)  # NaN and -1 used to report passed=False


def test_sweep_count_and_zero_tolerance():
    with pytest.raises(InputError):
        _power(max_iter=-1)
    with pytest.raises(NumericalFailure):
        _power(max_iter=0)
    assert verify_stationary(SD, TM, 0.0).max_residual >= 0.0  # zero is a bound


@pytest.mark.parametrize("problem", [_two_loop, _three_loop], ids=["one-loop", "two-loop"])
def test_one_total_activity_rule(problem):
    """NaN and -inf are bad input and +inf is the divergent total."""
    for bad in (math.nan, -math.inf):
        with pytest.raises(InputError):
            problem(Lambda=bad)
    with pytest.raises(DivergentActivities):
        problem(Lambda=math.inf)


def test_a_divergent_spec_has_no_finite_total():
    with pytest.raises(DivergentActivities):
        require_finite(ActivitySpec(loop_activities={1: 1.0}, divergent=True))
    huge = ActivitySpec(loop_activities={1: 1e308, 2: 1e308})  # the sum overflows
    with pytest.raises(DivergentActivities):
        require_finite(huge)


def _raises_of(path: Path, exc: str) -> list[str]:
    """Each raise statement in a module that raises the named exception."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(target).split(".")[-1] == exc:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_model_decides_what_diverges():
    modules = sorted(Path(hcgibbs.__file__).parent.glob("*.py"))
    found = {path.name: _raises_of(path, "DivergentActivities") for path in modules}
    assert found.pop("model.py")  # the scan sees the rule it guards
    assert [line for lines in found.values() for line in lines] == []
