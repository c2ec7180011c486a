"""One input rule for every entry point, read in `model` alone.

A real is any real type but bool, an integer any integer type but bool.
A bool or a numeric string is bad input at every argument, and a numpy
scalar gives the same result as the Python number of the same value.
"""

import ast
import dataclasses
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hcgibbs
from hcgibbs.boundary_law import residual
from hcgibbs.chain import (
    _MAX_STATES,
    TAIL,
    StationaryDistribution,
    TransitionMatrix,
    irreducible,
    matrix_to_csv,
    power_iteration,
    state_labels,
    stationary_closed_form,
    total_variation,
    transition_matrix,
    verify_stationary,
)
from hcgibbs.cli import _MAX_CURVE_POINTS, build_parser
from hcgibbs.errors import DivergentActivities, InputError, NumericalFailure, TooLarge
from hcgibbs.model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    graph_from_spec,
    require_finite,
)
from hcgibbs.oracle import _MAX_STARTS, fixed_point_iterate, multistart_count
from hcgibbs.sampler import (
    _MAX_DEPTH,
    _MAX_SAMPLE_VERTICES,
    _MAX_SYMBOLS,
    TreeSample,
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
SD3 = stationary_closed_form(SOL, SPEC, GRAPH, 3)
FOREST = sample_forest(TM, 2, 2, 7)


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
    return sample_tree(TM, depth, seed)


def _forest(depth=2, trees=2, seed=7):
    return sample_forest(TM, depth, trees, seed)


def _multistart(n_starts=50, seed=3):
    return multistart_count(SPEC, GRAPH, n_starts, seed)


def _hand_tree(depth=0, seed=0, spin=1):
    return TreeSample(depth, seed, (spin,))


def _kernel(window=2):
    return transition_matrix(SOL, SPEC, GRAPH, window)


def _enumerate(depth=1, vertex=1):
    return finite_gibbs_oracle(SPEC, GRAPH, depth, {vertex: 0})


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


def _users_of(name: str) -> list[str]:
    """module:function of each name, attribute or import of name in the package, its def aside."""
    found = []

    class Users(ast.NodeVisitor):
        def __init__(self, module: str) -> None:
            self.module, self.where = module, "<module>"

        def use(self, used: str) -> None:
            if used == name:
                found.append(f"{self.module}:{self.where}")

        def visit_FunctionDef(self, node) -> None:
            outer, self.where = self.where, node.name
            self.generic_visit(node)
            self.where = outer

        def visit_Name(self, node) -> None:
            self.use(node.id)

        def visit_Attribute(self, node) -> None:
            self.use(node.attr)
            self.generic_visit(node)

        def visit_alias(self, node) -> None:
            self.use(node.name)

    for path in sorted(Path(hcgibbs.__file__).parent.glob("*.py")):
        Users(path.name).visit(ast.parse(path.read_text()))
    return found


def test_only_transition_matrix_checks_a_solution_for_a_kernel():
    assert _users_of("_window_weights") == ["chain.py:transition_matrix"]


def test_only_the_kernel_path_defaults_the_window():
    assert _users_of("minimal_window") == ["chain.py:_window_weights"]


def test_a_solution_is_relabelled_only_where_it_is_read():
    assert _users_of("relabel_solution") == [
        "chain.py:<module>", "chain.py:_window_weights", "cli.py:<module>", "cli.py:_solve_spec",
        "oracle.py:<module>", "oracle.py:_normalise_hint",
    ]


ROOT = Path(__file__).resolve().parents[1]

# the public names that only tests use, each kept as a reference that a
# test compares against (the test named)
TEST_ONLY = {
    "expand": "test_acceptance.py::test_criterion_4_residual_closure",
    "finite_gibbs_oracle": "test_acceptance.py::test_criterion_8_finite_oracle",
    "fixed_point_iterate": "test_acceptance.py::test_criterion_9_divergence_contract",
    "level_counts": "test_acceptance.py::test_criterion_7_sampler_statistics",
    "matrix_to_csv": "test_chain.py::test_csv_round_trip",
    "power_iteration": "test_acceptance.py::test_criterion_6_chain_invariants",
    "residual": "test_acceptance.py::test_criterion_4_residual_closure",
    "sample_tree": "test_sampler.py::test_forest_does_not_depend_on_the_block_size",
    "single_site_conditional": "test_acceptance.py::test_criterion_8_finite_oracle",
    "spec_to_json": "test_model.py::test_spec_json_round_trip",
}


def _defined(node) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _named(tree) -> set[str]:
    """Names, attributes, import aliases and string constants in a tree
    (bench/tracing.py names what it patches by a string)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _package_uses(tree, bound: set, modules: set) -> set[str]:
    """The package names a statement refers to: a name its module binds, or
    an attribute of a package module its module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in bound:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add(node.attr)
    return found


def test_a_public_name_is_used_or_pinned_as_a_test_reference():
    """A public top-level name of the package is used by another function,
    class or statement of the package, by a file under bench/, or by a
    python block of README.md; the rest are the pinned test references."""
    public, used = set(), set()
    for path in sorted(Path(hcgibbs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        relative = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
        # the module's own top-level names and those it imports from the package
        bound = {name for node in tree.body for name in _defined(node)}
        bound |= {alias.asname or alias.name for node in relative for alias in node.names}
        modules = {alias.asname or alias.name for node in relative if not node.module
                   for alias in node.names}
        for node in tree.body:
            public |= {name for name in _defined(node) if not name.startswith("_")}
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= _package_uses(node, bound, modules) - _defined(node)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        used |= _named(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _named(ast.parse(block))
    assert public - used == set(TEST_ONLY)
    for name, test in TEST_ONLY.items():
        file, function = test.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        body = next(node for node in tree.body if getattr(node, "name", None) == function)
        assert name in _named(body), test


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


def test_only_model_raises_too_large():
    # every size cap is read by model._as_int(..., most=cap)
    modules = sorted(Path(hcgibbs.__file__).parent.glob("*.py"))
    found = {path.name: _raises_of(path, "TooLarge") for path in modules}
    assert found.pop("model.py")  # the scan sees the rule it guards
    assert [line for lines in found.values() for line in lines] == []


class _PastTheCap(Exception):
    """Raised by a stub of the step that follows a cap check."""


def _past_the_cap(*args, **kwargs):
    raise _PastTheCap


def _window_cap(n, monkeypatch):
    return transition_matrix(SOL, SPEC, GRAPH, n)


def _starts_cap(n, monkeypatch):
    monkeypatch.setattr("hcgibbs.oracle.reduce", _past_the_cap)
    return multistart_count(SPEC, GRAPH, n_starts=n)


def _hint_starts_cap(n, monkeypatch):
    monkeypatch.setattr("hcgibbs.oracle.reduce", _past_the_cap)
    hint = BoundaryLawSolution(0.5, {1: 0.5}, "hint", 0.0)
    return multistart_count(SPEC, GRAPH, n_starts=n - 8, hints=[hint] * 2)


def _points_cap(n, monkeypatch):
    monkeypatch.setattr("hcgibbs.cli._write", _past_the_cap)  # every row is computed first
    for name in ("f_curve", "g_curve"):
        monkeypatch.setattr(f"hcgibbs.two_loop.{name}", lambda lam, x, Lambda: 1.0)
    argv = ["sweep", "--emit-curves", "f,g", "--x", "2.5", "--Lambda", "6", "--points", str(n)]
    args = build_parser().parse_args(argv)
    return args.func(args)  # main would map TooLarge to exit code 2


def _depth_cap(n, monkeypatch):
    return finite_gibbs_oracle(SPEC, GRAPH, n)


def _alphabet_cap(n, monkeypatch):
    # the hub, n - 2 listed spins and the tail symbol
    spec = ActivitySpec({1: 1.0}, {lab: 1.0 for lab in range(2, n - 1)}, tail_mass=1.0)
    return finite_gibbs_oracle(spec, graph_from_spec(spec), 0)


def _vertices_cap(n, monkeypatch):
    monkeypatch.setattr("hcgibbs.sampler._Kernel", _past_the_cap)
    return sample_forest(TM, depth=0, trees=n, seed=1)


# each cap and a call that asks for that count
CAPS = {
    "window": (_MAX_STATES // 2 - 1, _window_cap),
    "starts": (_MAX_STARTS, _starts_cap),
    "hint starts": (_MAX_STARTS, _hint_starts_cap),
    "--points": (_MAX_CURVE_POINTS, _points_cap),
    "enumeration depth": (_MAX_DEPTH, _depth_cap),
    "enumeration alphabet": (_MAX_SYMBOLS, _alphabet_cap),
    "sampled vertices": (_MAX_SAMPLE_VERTICES, _vertices_cap),
}


@pytest.mark.parametrize("cap, call", CAPS.values(), ids=CAPS.keys())
def test_a_cap_admits_its_value_and_refuses_one_more(monkeypatch, cap, call):
    try:
        call(cap, monkeypatch)
    except _PastTheCap:
        pass  # the call passed its cap and went on to the stubbed next step
    with pytest.raises(TooLarge):
        call(cap + 1, monkeypatch)


HUGE = 10**5000  # more digits than Python converts to text


def _on_loop(label):
    """A spec with its loop at label, and its graph."""
    spec = ActivitySpec(loop_activities={label: 1.0}, tail_mass=1.0)
    return spec, graph_from_spec(spec)


def _with_tail(label):
    return ActivitySpec(loop_activities={1: 1.0}, explicit_tail={label: 1.0})


# an entry point with one integer or label slot; every other argument is
# small and valid
HUGE_CASES = {
    "ActivitySpec-k": lambda n: _spec(k=n),
    "ActivitySpec-loop label": lambda n: _spec(label=n),
    "ActivitySpec-tail label": _with_tail,
    "ActivitySpec-label twice": lambda n: ActivitySpec({n: 1.0}, {n: 1.0}),
    "ActivitySpec-bad activity": lambda n: ActivitySpec({n: -1.0}),
    "AdmissibilityGraph-loop": lambda n: AdmissibilityGraph((n,)),
    "TreeSample-depth": lambda n: _hand_tree(depth=n),
    "TreeSample-seed": lambda n: _hand_tree(seed=n),
    "TreeSample-spin": lambda n: _hand_tree(spin=n),
    "TreeSample-k": lambda n: TreeSample(1, 0, (0,) * 4, k=n),
    "TreeSample-k at depth 0": lambda n: TreeSample(0, 0, (0,), k=n),
    "TreeSample-k, one spin too many": lambda n: TreeSample(0, 0, (0, 0), k=n),
    "sample_tree-depth": lambda n: _tree(depth=n),
    "sample_tree-seed": lambda n: _tree(seed=n),
    "sample_forest-depth": lambda n: _forest(depth=n),
    "sample_forest-trees": lambda n: _forest(trees=n),
    "sample_forest-seed": lambda n: _forest(seed=n),
    "finite_gibbs_oracle-depth": lambda n: _enumerate(depth=n),
    "finite_gibbs_oracle-vertex": lambda n: _enumerate(vertex=n),
    "finite_gibbs_oracle-spin": lambda n: finite_gibbs_oracle(SPEC, GRAPH, 1, {3: n}),
    "level_counts-level": lambda n: level_counts(FOREST, n),
    "transition_matrix-window": _kernel,
    "transition_matrix-tail label": lambda n: transition_matrix(
        SOL, _with_tail(n), graph_from_spec(_with_tail(n)), 2),
    "transition_matrix-spec label": lambda n: transition_matrix(SOL, _on_loop(n)[0], GRAPH, 2),
    "transition_matrix-solution label": lambda n: transition_matrix(
        BoundaryLawSolution(SOL.A, {n: SOL.loop_z[1]}, SOL.branch, SOL.residual), SPEC, GRAPH, 2),
    "TransitionMatrix.index-label": TM.index,
    "residual-z label": lambda n: residual(SPEC, GRAPH, {1: 0.25, n: "x"}, 0.5),
    "power_iteration-max_iter": lambda n: _power(max_iter=n),
    "multistart_count-n_starts": lambda n: _multistart(n_starts=n),
    "multistart_count-seed": lambda n: _multistart(seed=n),
    "multistart_count-hint label": lambda n: multistart_count(
        *_on_loop(n), 50, hints=[BoundaryLawSolution(0.5, {n: "x"}, "hint", 0.0)]),
    "fixed_point_iterate-max_iter": lambda n: _fixed_point(max_iter=n),
    "fixed_point_iterate-init label": lambda n: fixed_point_iterate(*_on_loop(n), {n: "x"}, 0.5),
    "fixed_point_iterate-missing label": lambda n: fixed_point_iterate(*_on_loop(n), {1: 0.5}, 0.5),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("call", HUGE_CASES.values(), ids=HUGE_CASES.keys())
def test_an_integer_too_long_to_print_is_read_or_refused(call, sign):
    """Any integer is a spin label, so one of any size is read; a refusal
    names it by its size, since Python prints no int of over 4300 digits."""
    start = time.perf_counter()
    try:
        call(sign * HUGE)
    except InputError as exc:
        assert " bits>" in str(exc)  # the value, or a count made from it
    assert time.perf_counter() - start < 1.0


def test_a_label_too_long_to_print_is_a_label():
    spec, graph = _on_loop(HUGE)
    assert spec.loop_activities == {HUGE: 1.0} and graph.loops == (HUGE,)


# fields of a hand-built kernel, each bad in one way, put in place of TM's
BAD_KERNEL_FIELDS = {
    "window as text": {"window": "2"},
    "window past the state cap": {"window": _MAX_STATES},
    "states of another window": {"states": state_labels(3)},
    "states as a list": {"states": list(TM.states)},
    "states as an array": {"states": np.array(TM.states)},
    "active of one flag": {"active": (True,)},
    "active as ints": {"active": np.ones(len(TM.states), dtype=int)},
    "active off at the hub": {"active": (True,) * 2 + (False,) + (True,) * 3},
    "hub_row of one entry": {"hub_row": np.array([1.0])},
    "hub_row as a list": {"hub_row": TM.hub_row.tolist()},
    "hub_row all NaN": {"hub_row": np.full(len(TM.states), math.nan)},
    "hub_row below 0": {"hub_row": -TM.hub_row},
    "stays not a dict": {"stays": [(1, 0.5)]},
    "stay as text": {"stays": {1: "a"}},
    "stay above 1": {"stays": {1: 1.5}},
    "stay label off the window": {"stays": {9: 0.5}},
    "stay label at the hub": {"stays": {0: 0.5}},
    "stay label TAIL": {"stays": {TAIL: 0.5}},
    "stationary of one entry": {"stationary": StationaryDistribution(2, TM.states, np.array([1.0]))},
    "stationary on other states": {"stationary": SD3},
    "stationary states as an array": {
        "stationary": StationaryDistribution(2, np.array(TM.states), SD.probabilities)},
    "stationary not finite": {
        "stationary": StationaryDistribution(2, TM.states, np.full(len(TM.states), math.inf))},
}

KERNEL_USERS = {
    "sample_tree": lambda kernel: sample_tree(kernel, 2, 1),
    "sample_forest": lambda kernel: sample_forest(kernel, 2, 2, 1),
    "verify_stationary": lambda kernel: verify_stationary(SD, kernel),
    "irreducible": irreducible,
    "power_iteration": power_iteration,
    "matrix_to_csv": matrix_to_csv,
}


@pytest.mark.parametrize("use", KERNEL_USERS.values(), ids=KERNEL_USERS.keys())
@pytest.mark.parametrize("field", BAD_KERNEL_FIELDS.values(), ids=BAD_KERNEL_FIELDS.keys())
def test_a_hand_built_kernel_is_read_before_it_is_used(field, use):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            use(dataclasses.replace(TM, **field))


# a vector argument that is not a vector of reals, or a start that cannot be normalised
BAD_VECTORS = {
    "verify_stationary-text": lambda: verify_stationary("x", TM),
    "total_variation-text": lambda: total_variation("x", "y"),
    "power_iteration-text start": lambda: power_iteration(TM, start="x"),
    "power_iteration-infinite start": lambda: power_iteration(TM, start=[math.inf] + [0.0] * 5),
    "power_iteration-NaN start": lambda: power_iteration(TM, start=[math.nan] + [0.0] * 5),
    "power_iteration-start past double range": lambda: power_iteration(TM, start=[1e308] * 6),
}


@pytest.mark.parametrize("call", BAD_VECTORS.values(), ids=BAD_VECTORS.keys())
def test_a_vector_that_is_not_finite_reals_is_bad_input(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            call()
