"""One input rule for every entry point, read in `model` alone.

A real is any real type but bool, an integer any integer type but bool.
A bool or a numeric string is bad input at every argument, and a numpy
scalar gives the same result as the Python number of the same value.
"""

import ast
import dataclasses
import math
import operator
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hcgibbs
from hcgibbs import three_loop, two_loop
from hcgibbs.boundary_law import reduce
from hcgibbs.chain import (
    _MAX_STATES,
    TAIL,
    StationaryDistribution,
    TransitionMatrix,
    irreducible,
    minimal_window,
    state_labels,
    stationary_closed_form,
    transition_matrix,
    verify_stationary,
)
from hcgibbs.cli import _MAX_CURVE_POINTS, _chain_csv_lines, _json_row, _row_texts, build_parser
from hcgibbs.errors import DivergentActivities, InputError, TooLarge
from hcgibbs.model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    check_spec_graph,
    graph_from_spec,
    relabel_solution,
    require_finite,
)
from hcgibbs.oracle import _MAX_STARTS, multistart_count
from hcgibbs.sampler import (
    _MAX_SAMPLE_VERTICES,
    TreeSample,
    edge_admissibility,
    empirical_marginal,
    level_sizes,
    level_slices,
    marginal_tv,
    num_vertices,
    sample_forest,
)
from hcgibbs.three_loop import (
    ThreeLoopProblem,
    enumerate_solutions,
    q_critical_points,
    solve_asymmetric,
    solve_symmetric,
    thresholds,
)
from hcgibbs.two_loop import TwoLoopProblem, solve_unique
from reference import power_iteration, sample_tree

SPEC = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
GRAPH = graph_from_spec(SPEC)
SOL = solve_unique(TwoLoopProblem(1.0, 2.0))
TM = transition_matrix(SOL, SPEC, GRAPH, 2)
SD = stationary_closed_form(SOL, SPEC, GRAPH, 2)
FOREST = sample_forest(TM, 2, 2, 7)


def _spec(k=2, label=1, activity=1.0, tail_mass=1.0):
    return ActivitySpec(loop_activities={label: activity}, tail_mass=tail_mass, k=k)


def _two_loop(lam=1.0, Lambda=2.0):
    return TwoLoopProblem(lam, Lambda)


def _three_loop(lam=9.0, Lambda=130.0):
    return ThreeLoopProblem(lam, Lambda)


def _forest(depth=2, trees=2, seed=7):
    return sample_forest(TM, depth, trees, seed)


def _multistart(n_starts=50, seed=3):
    return multistart_count(SPEC, GRAPH, n_starts, seed)


def _hand_tree(depth=0, seed=0, spin=1):
    return TreeSample(depth, seed, (spin,))


def _kernel(window=2):
    return transition_matrix(SOL, SPEC, GRAPH, window)


CURVE_POINT = {"lam": 1.0, "x": 3.0, "Lambda": 2.0}

# (entry point, argument, Python value): every other argument keeps its
# default; each value is exact in float32, so np.float32 reads as the same
# double
CASES = {
    "TwoLoopProblem-lam": (_two_loop, "lam", 1.0),
    "TwoLoopProblem-Lambda": (_two_loop, "Lambda", 2.0),
    "ThreeLoopProblem-lam": (_three_loop, "lam", 9.0),
    "ThreeLoopProblem-Lambda": (_three_loop, "Lambda", 130.0),
    "thresholds-lam": (thresholds, "lam", 9.0),
    "q_critical_points-lam": (q_critical_points, "lam", 9.0),
    "transition_matrix-window": (_kernel, "window", 2),
    "TransitionMatrix.index-label": (lambda label: TM.index(label), "label", 1),
    "num_vertices-k": (lambda k: num_vertices(k, 3), "k", 2),
    "num_vertices-depth": (lambda depth: num_vertices(2, depth), "depth", 3),
    "level_sizes-depth": (lambda depth: level_sizes(2, depth), "depth", 3),
    "TreeSample-depth": (_hand_tree, "depth", 0),
    "TreeSample-seed": (_hand_tree, "seed", 5),
    "TreeSample-spin": (_hand_tree, "spin", 1),
    "sample_forest-depth": (_forest, "depth", 2),
    "sample_forest-trees": (_forest, "trees", 2),
    "sample_forest-seed": (_forest, "seed", 7),
    "ActivitySpec-k": (_spec, "k", 2),
    "ActivitySpec-label": (_spec, "label", 1),
    "ActivitySpec-activity": (_spec, "activity", 1.0),
    "ActivitySpec-tail_mass": (_spec, "tail_mass", 1.0),
    "AdmissibilityGraph-loop": (lambda loop: AdmissibilityGraph((loop,)), "loop", 1),
    "multistart_count-n_starts": (_multistart, "n_starts", 50),
    "multistart_count-seed": (_multistart, "seed", 3),
    "verify_stationary-tol": (lambda tol: verify_stationary(SD, TM, tol), "tol", 2.0**-30),
    "TransitionMatrix-weight label": (
        lambda label: TransitionMatrix(2, {label: 0.5, 2: 0.5}, (2,)), "label", 1),
    "TransitionMatrix-weight": (lambda w: TransitionMatrix(2, {1: w}, (1,)), "w", 0.5),
    "TransitionMatrix-tail weight": (lambda w: TransitionMatrix(2, {1: 0.5, TAIL: w}, (1,)), "w", 0.5),
    "TransitionMatrix-loop": (lambda loop: TransitionMatrix(2, {1: 0.5}, (loop,)), "loop", 1),
    "TransitionMatrix-k": (lambda k: TransitionMatrix(2, {1: 0.5}, (1,), k), "k", 2),
    "BoundaryLawSolution-A": (lambda A: BoundaryLawSolution(A, {1: 0.5}, "x", 0.0), "A", 0.5),
    "BoundaryLawSolution-z": (lambda z: BoundaryLawSolution(1.0, {1: z}, "x", 0.0), "z", 0.5),
    "BoundaryLawSolution-label": (
        lambda label: BoundaryLawSolution(1.0, {label: 0.5}, "x", 0.0), "label", 1),
    "BoundaryLawSolution-residual": (
        lambda residual: BoundaryLawSolution(1.0, {1: 0.5}, "x", residual), "residual", 0.0),
    "solve_loop_aggregate-mult": (lambda mult: two_loop.solve_loop_aggregate(1.0, 2.0, mult), "mult", 1),
    "solve_loop_aggregate-lam": (lambda lam: two_loop.solve_loop_aggregate(lam, 2.0, 1), "lam", 1.0),
    "solve_loop_aggregate-Lambda": (
        lambda Lambda: two_loop.solve_loop_aggregate(1.0, Lambda, 1), "Lambda", 2.0),
    # each argument of each branch-condition curve, at (lam, x, Lambda) = (1, 3, 2)
    **{
        f"{curve.__name__}-{arg}": (
            lambda curve=curve, **one: curve(**{**CURVE_POINT, **one}), arg, CURVE_POINT[arg])
        for curve in (two_loop.f_curve, two_loop.g_curve, three_loop.h_curve, three_loop.delta_curve)
        for arg in CURVE_POINT
    },
    "loop_z_branches-lam": (lambda lam: two_loop.loop_z_branches(lam, 2.0), "lam", 1.0),
    "loop_z_branches-A": (lambda A: two_loop.loop_z_branches(1.0, A), "A", 2.0),
    "q_poly-lam": (lambda lam: three_loop.q_poly(lam, 130.0, 2.0), "lam", 9.0),
    "q_poly-Lambda": (lambda Lambda: three_loop.q_poly(9.0, Lambda, 2.0), "Lambda", 130.0),
    "q_poly-x": (lambda x: three_loop.q_poly(9.0, 130.0, x), "x", 2.0),
    "state_labels-window": (state_labels, "window", 2),
    "level_sizes-k": (lambda k: level_sizes(k, 3), "k", 2),
    "level_slices-k": (lambda k: level_slices(k, 3), "k", 2),
    "level_slices-depth": (lambda depth: level_slices(2, depth), "depth", 3),
    "TreeSample-k": (lambda k: TreeSample(0, 0, (0,), k=k), "k", 2),
    "TransitionMatrix-window": (lambda window: TransitionMatrix(window, {1: 0.5}, (1,)), "window", 2),
    "StationaryDistribution-window": (
        lambda window: StationaryDistribution(window, SD.probabilities), "window", 2),
    "StationaryDistribution.index-label": (lambda label: SD.index(label), "label", 1),
    "stationary_closed_form-window": (
        lambda window: stationary_closed_form(SOL, SPEC, GRAPH, window), "window", 2),
    "ActivitySpec-tail label": (lambda label: ActivitySpec({1: 1.0}, {label: 0.5}), "label", 2),
    "ActivitySpec-tail activity": (lambda activity: ActivitySpec({1: 1.0}, {2: activity}), "activity", 0.5),
    "marginal_tv-frequency": (lambda frequency: marginal_tv({0: frequency}, SD), "frequency", 1.0),
}


def _key(result):
    """A comparable form of a result; repr tells numpy scalars from Python numbers."""
    if isinstance(result, TransitionMatrix):
        fields = (result.window, result.states, result.weights, result.loops, result.stays, result.k)
        return repr(fields), result.hub_row.tobytes() + result.stationary.probabilities.tobytes()
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


def _users_of(name: str, calls: bool = False) -> list[str]:
    """module:function of each name, attribute or import of name in the package, its def
    aside; with calls, of each call of name alone."""
    found = []

    class Users(ast.NodeVisitor):
        def __init__(self, module: str) -> None:
            self.module, self.where = module, "<module>"

        def use(self, used: str, call: bool = False) -> None:
            if used == name and call == calls:
                found.append(f"{self.module}:{self.where}")

        def visit_Call(self, node) -> None:
            self.use(getattr(node.func, "id", getattr(node.func, "attr", None)), call=True)
            self.generic_visit(node)

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


def test_only_transition_matrix_builds_a_kernel():
    assert _users_of("TransitionMatrix", calls=True) == ["chain.py:transition_matrix"]


def test_only_the_kernel_path_defaults_the_window():
    assert _users_of("minimal_window") == ["chain.py:_window_weights"]


def test_only_cli_writes_document_text():
    """The float format, the dict shapes and the JSON and CSV readers and
    writers of the command documents live in cli alone."""
    fmt, shapes, named = [], [], []
    for path in sorted(Path(hcgibbs.__file__).parent.glob("*.py")):
        source = path.read_text()
        fmt += [path.name] if "%.17g" in source else []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                shapes += [f"{path.name}:{node.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"]
            elif isinstance(node, ast.FunctionDef) and path.name != "cli.py" \
                    and ("json" in node.name.lower() or "csv" in node.name.lower()):
                named.append(f"{path.name}:{node.name}")
    assert fmt == ["cli.py"]
    assert shapes == []
    assert named == []


def test_a_solution_is_relabelled_only_where_it_is_read():
    assert _users_of("relabel_solution") == [
        "chain.py:<module>", "chain.py:_window_weights", "cli.py:<module>", "cli.py:_solve_spec",
        "oracle.py:<module>", "oracle.py:_normalise_hint",
    ]


ROOT = Path(__file__).resolve().parents[1]


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


def _attributes(tree) -> set[str]:
    """The names a tree reads as attributes, as name in obj.name."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_a_public_name_is_used_by_the_package_bench_or_readme():
    """A public top-level name of the package is used by another function,
    class or statement of the package, by a file under bench/, or by a
    python block of README.md.  A public method or property of a package
    class, Class.member, is read as an attribute by package code, by bench/
    or by a python block of README.md.  A reference that only tests read
    lives in tests/reference.py."""
    public, used = set(), set()
    members, attributes = set(), set()  # Class.member; the names read as obj.name
    for path in sorted(Path(hcgibbs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        attributes |= _attributes(tree)
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
            if isinstance(node, ast.ClassDef):
                members |= {f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    readme = (ROOT / "README.md").read_text()
    outside = [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").rglob("*.py"))]
    outside += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    for tree in outside:
        used |= _named(tree)
        attributes |= _attributes(tree)
    read = {member for member in members if member.split(".")[1] in attributes}
    assert (public - used) | (members - read) == set()


# the code the references check: they stay independent of it
CHECKED = {"hcgibbs.two_loop", "hcgibbs.three_loop", "hcgibbs.rootfind", "hcgibbs.oracle"}


def test_the_references_import_none_of_the_code_they_check():
    imported = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "reference.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module, *(f"{node.module}.{alias.name}" for alias in node.names)}
    assert imported & CHECKED == set()


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_a_tolerance_that_is_not_a_finite_bound_is_bad_input(tol):
    with pytest.raises(InputError):
        verify_stationary(SD, TM, tol)  # NaN and -1 used to report passed=False
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


def _vertices_cap(n, monkeypatch):
    monkeypatch.setattr("hcgibbs.sampler._Kernel", _past_the_cap)
    return sample_forest(TM, depth=0, trees=n, seed=1)


# each cap and a call that asks for that count
CAPS = {
    "window": (_MAX_STATES // 2 - 1, _window_cap),
    "starts": (_MAX_STARTS, _starts_cap),
    "hint starts": (_MAX_STARTS, _hint_starts_cap),
    "--points": (_MAX_CURVE_POINTS, _points_cap),
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
    "num_vertices-path depth": lambda n: num_vertices(1, n),
    "level_sizes-depth": lambda n: level_sizes(2, n),
    "level_slices-order": lambda n: level_slices(n, 1),
    "sample_forest-depth": lambda n: _forest(depth=n),
    "sample_forest-trees": lambda n: _forest(trees=n),
    "sample_forest-seed": lambda n: _forest(seed=n),
    "transition_matrix-window": _kernel,
    "transition_matrix-tail label": lambda n: transition_matrix(
        SOL, _with_tail(n), graph_from_spec(_with_tail(n)), 2),
    "transition_matrix-spec label": lambda n: transition_matrix(SOL, _on_loop(n)[0], GRAPH, 2),
    "transition_matrix-solution label": lambda n: transition_matrix(
        BoundaryLawSolution(SOL.A, {n: SOL.loop_z[1]}, SOL.branch, SOL.residual), SPEC, GRAPH, 2),
    "TransitionMatrix.index-label": TM.index,
    "multistart_count-n_starts": lambda n: _multistart(n_starts=n),
    "multistart_count-seed": lambda n: _multistart(seed=n),
    "multistart_count-hint label": lambda n: multistart_count(
        *_on_loop(n), 50, hints=[BoundaryLawSolution(0.5, {n: "x"}, "hint", 0.0)]),
    "TransitionMatrix-window": lambda n: TransitionMatrix(n, {1: 0.5}, (1,)),
    "TransitionMatrix-k": lambda n: TransitionMatrix(2, {1: 0.5}, (1,), n),
    "TransitionMatrix-weight label": lambda n: TransitionMatrix(2, {1: 0.5, n: 0.5}, (1,)),
    "TransitionMatrix-loop": lambda n: TransitionMatrix(2, {1: 0.5}, (n,)),
    "StationaryDistribution-window": lambda n: StationaryDistribution(n, SD.probabilities),
    "StationaryDistribution.index-label": SD.index,
    "stationary_closed_form-window": lambda n: stationary_closed_form(SOL, SPEC, GRAPH, n),
    "state_labels-window": state_labels,
    "solve_loop_aggregate-mult": lambda n: two_loop.solve_loop_aggregate(1.0, 2.0, n),
    "num_vertices-k": lambda n: num_vertices(n, 1),
    "level_sizes-k": lambda n: level_sizes(n, 1),
    "level_slices-depth": lambda n: level_slices(2, n),
    "BoundaryLawSolution-z label": lambda n: BoundaryLawSolution(1.0, {n: 0.5}, "x", 0.0),
    "relabel_solution-z label": lambda n: relabel_solution(
        BoundaryLawSolution(1.0, {n: 0.5}, "x", 0.0), GRAPH),
    "check_spec_graph-graph loop": lambda n: check_spec_graph(SPEC, AdmissibilityGraph((n,))),
    "marginal_tv-label": lambda n: marginal_tv({n: 1.0}, SD),
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


# a hand-built kernel's inputs, each bad in one way, put in place of TM's
# (TM.weights is {1: w, TAIL: w_tail} on window 2, TM.loops (1,))
BAD_KERNEL_INPUTS = {
    "window as text": {"window": "2"},
    "window past the state cap": {"window": _MAX_STATES},
    "weights not a mapping": {"weights": [(1, 0.5)]},
    "weight label as text": {"weights": {"1": 0.5}},
    "weight label a float": {"weights": {1.5: 0.5}},
    "weight label a bool": {"weights": {True: 0.5}},
    "weight at the hub": {"weights": {**TM.weights, 0: 0.5}},
    "weight label off the window": {"weights": {**TM.weights, 9: 0.5}},
    "weight as text": {"weights": {**TM.weights, 1: "a"}},
    "weight as a bool": {"weights": {**TM.weights, 1: True}},
    "weight NaN": {"weights": {**TM.weights, 1: math.nan}},
    "weight below 0": {"weights": {**TM.weights, 1: -0.5}},
    "weight infinite": {"weights": {**TM.weights, 1: math.inf}},
    "weight past double range": {"weights": {**TM.weights, 1: 10**400}},
    "TAIL weight as text": {"weights": {**TM.weights, TAIL: "a"}},
    "TAIL weight NaN": {"weights": {**TM.weights, TAIL: math.nan}},
    "loop weight whose square overflows": {"weights": {**TM.weights, 1: 1e200}},
    "weights whose sum overflows": {"weights": {**TM.weights, -1: 1e308, 2: 1e308}},
    "loops not iterable": {"loops": 1},
    "no loop": {"loops": ()},
    "loop label as text": {"loops": ("1",)},
    "loop label TAIL": {"loops": (TAIL,)},
    "loop label without a weight": {"loops": (2,)},
    "loop label twice": {"loops": (1, 1)},
    "k as text": {"k": "x"},
    "k of 0": {"k": 0},
    "k as a bool": {"k": True},
}


@pytest.mark.parametrize("inputs", BAD_KERNEL_INPUTS.values(), ids=BAD_KERNEL_INPUTS.keys())
def test_a_hand_built_kernel_is_read_when_it_is_built(inputs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            dataclasses.replace(TM, **inputs)


@pytest.mark.parametrize("name", ["active", "hub_row", "stays", "stationary"])
def test_a_derived_field_is_no_input(name):
    # rows and law come from the weights alone, by neither path
    with pytest.raises(TypeError):
        TransitionMatrix(TM.window, TM.weights, TM.loops, TM.k, **{name: getattr(TM, name)})
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(TM, **{name: getattr(TM, name)})


# writes into a built kernel, each of which would leave it malformed
IN_PLACE_WRITES = {
    "hub_row zeroed": lambda tm: np.copyto(tm.hub_row, 0.0),
    "hub_row halved": lambda tm: np.multiply(tm.hub_row, 0.5, out=tm.hub_row),
    "active flag cleared": lambda tm: operator.setitem(tm.active, tm.index(1), False),
    "stay set to 1": lambda tm: operator.setitem(tm.stays, 1, 1.0),
    "stay deleted": lambda tm: operator.delitem(tm.stays, 1),
    "weight changed": lambda tm: operator.setitem(tm.weights, 1, 5.0),
    "weight added": lambda tm: operator.setitem(tm.weights, 2, 0.5),
    "law zeroed": lambda tm: np.copyto(tm.stationary.probabilities, 0.0),
    "law entry moved": lambda tm: operator.setitem(tm.stationary.probabilities, -1, 1.0),
}


@pytest.mark.parametrize("write", IN_PLACE_WRITES.values(), ids=IN_PLACE_WRITES.keys())
def test_a_built_kernel_cannot_be_changed_in_place(write):
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    with pytest.raises((TypeError, ValueError)):
        write(tm)
    assert _key(tm) == _key(TM) and verify_stationary(tm.stationary, tm).passed
    assert _key(sample_forest(tm, 4, 20, 1)) == _key(sample_forest(TM, 4, 20, 1))


SPEC_TAIL = ActivitySpec(loop_activities={1: 1.0}, explicit_tail={2: 0.5}, tail_mass=0.5)
SPEC_TWO = ActivitySpec(loop_activities={1: 9.0, 2: 9.0}, tail_mass=112.0)

# kernels of each shape: one loop, unvisited window states, a listed tail
# state, and the symmetric and both asymmetric solutions of two loops
KERNELS = {
    "one loop": lambda: TM,
    "one loop, window 6": lambda: transition_matrix(SOL, SPEC, GRAPH, 6),
    "listed tail": lambda: transition_matrix(SOL, SPEC_TAIL, graph_from_spec(SPEC_TAIL), 3),
    **{
        f"two loops, solution {i}": lambda i=i: transition_matrix(
            enumerate_solutions(ThreeLoopProblem(9.0, 130.0))[i], SPEC_TWO, graph_from_spec(SPEC_TWO), 4)
        for i in range(3)
    },
}

KERNEL_USERS = {
    "sample_tree": lambda kernel: sample_tree(kernel, 3, 1),
    "sample_forest": lambda kernel: sample_forest(kernel, 3, 4, 1),
    "verify_stationary": lambda kernel: verify_stationary(kernel.stationary, kernel),
    "irreducible": irreducible,
    "power_iteration": power_iteration,
    "_chain_csv_lines": _chain_csv_lines,
    "_row_texts-json": lambda kernel: _row_texts(kernel, _json_row),
}


@pytest.mark.parametrize("use", KERNEL_USERS.values(), ids=KERNEL_USERS.keys())
@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_a_kernel_rebuilt_from_its_weights_is_used_as_the_built_one(kernel, use):
    tm = kernel()
    again = TransitionMatrix(tm.window, tm.weights, tm.loops, tm.k)
    assert _key(use(again)) == _key(use(tm))


# a hand-built law, each bad in one way, refused as it is built, before
# the call that uses it
BAD_LAWS = {
    "one entry": lambda: StationaryDistribution(2, np.array([1.0])),
    "one entry, to marginal_tv": lambda: marginal_tv({0: 1.0}, StationaryDistribution(2, np.array([1.0]))),
    "entries as a list": lambda: StationaryDistribution(2, SD.probabilities.tolist()),
    "a text entry": lambda: StationaryDistribution(
        2, np.array([*SD.probabilities[:-1], "x"], dtype=object)),
    "entries as ints": lambda: StationaryDistribution(2, np.ones(len(TM.states), dtype=int)),
    "one entry of a list, to to_json_dict": lambda: StationaryDistribution(1, [0.1]),
    "window as text, to probability": lambda: StationaryDistribution("2", SD.probabilities).index(0),
    "window past the state cap": lambda: StationaryDistribution(_MAX_STATES, SD.probabilities),
}


@pytest.mark.parametrize("call", BAD_LAWS.values(), ids=BAD_LAWS.keys())
def test_a_hand_built_law_is_read_when_it_is_built(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            call()


# an argument of the wrong kind to a tree-layout helper, marginal_tv, a
# model type's container field, or any function that takes a model object
BAD_ARGUMENTS = {
    "marginal_tv-list": lambda: marginal_tv([1], SD),
    "marginal_tv-text frequency": lambda: marginal_tv({0: "a"}, SD),
    "marginal_tv-text probability": lambda: marginal_tv({0: 1.0}, {0: "a"}),
    "marginal_tv-NaN frequency": lambda: marginal_tv({0: math.nan}, SD),
    "marginal_tv-negative frequency": lambda: marginal_tv({0: -5.0}, SD),
    "marginal_tv-infinite probability": lambda: marginal_tv({0: 1.0}, {0: math.inf}),
    "num_vertices-text k": lambda: num_vertices("2", 1),
    "num_vertices-k of 0": lambda: num_vertices(0, 1),
    "level_sizes-text depth": lambda: level_sizes(2, "3"),
    "level_sizes-depth below 0": lambda: level_sizes(2, -1),
    "level_slices-depth below 0": lambda: level_slices(2, -1),
    "level_sizes-depth past the vertex cap": lambda: level_sizes(2, 20_000),
    "level_slices-path past the vertex cap": lambda: level_slices(1, _MAX_SAMPLE_VERTICES // 2),
    "num_vertices-one over the vertex cap": lambda: num_vertices(2, 23),
    "ActivitySpec-loops as pairs": lambda: ActivitySpec(loop_activities=[(1, 1.0)]),
    "ActivitySpec-tail None": lambda: ActivitySpec(loop_activities={1: 1.0}, explicit_tail=None),
    "AdmissibilityGraph-one int": lambda: AdmissibilityGraph(1),
    "BoundaryLawSolution-z as a list": lambda: BoundaryLawSolution(1.0, [1], "x", 0.0),
    "BoundaryLawSolution-A as text": lambda: BoundaryLawSolution("x", {1: 0.5}, "x", 0.0),
    "BoundaryLawSolution-z as text": lambda: BoundaryLawSolution(1.0, {1: "a"}, "x", 0.0),
    "BoundaryLawSolution-label a float": lambda: BoundaryLawSolution(1.0, {1.5: 0.5}, "x", 0.0),
    "BoundaryLawSolution-label None": lambda: BoundaryLawSolution(1.0, {None: 0.5}, "x", 0.0),
    "BoundaryLawSolution-branch an int": lambda: BoundaryLawSolution(1.0, {1: 0.5}, 3, 0.0),
    "BoundaryLawSolution-residual None": lambda: BoundaryLawSolution(1.0, {1: 0.5}, "x", None),
    # a model object of the wrong kind, or a container that is none
    "check_spec_graph-spec as text": lambda: check_spec_graph("x", GRAPH),
    "check_spec_graph-graph as text": lambda: check_spec_graph(SPEC, "x"),
    "graph_from_spec-text": lambda: graph_from_spec("x"),
    "require_finite-text": lambda: require_finite("x"),
    "relabel_solution-solution as text": lambda: relabel_solution("x", GRAPH),
    "relabel_solution-graph as text": lambda: relabel_solution(SOL, "x"),
    "reduce-spec as text": lambda: reduce("x", GRAPH),
    "reduce-graph as a tuple": lambda: reduce(SPEC, (1,)),
    "TwoLoopProblem.from_spec-text": lambda: TwoLoopProblem.from_spec("x"),
    "ThreeLoopProblem.from_spec-text": lambda: ThreeLoopProblem.from_spec("x"),
    "solve_unique-text": lambda: solve_unique("x"),
    "solve_unique-two-loop problem": lambda: solve_unique(_three_loop()),
    "two_loop.classify-text": lambda: two_loop.classify("x"),
    "two_loop.classify-divergent text": lambda: two_loop.classify("x", divergent=True),
    "solve_symmetric-text": lambda: solve_symmetric("x"),
    "solve_asymmetric-one-loop problem": lambda: solve_asymmetric(TwoLoopProblem(9.0, 130.0)),
    "enumerate_solutions-text": lambda: enumerate_solutions("x"),
    "three_loop.classify-text": lambda: three_loop.classify("x"),
    "three_loop.classify-one-loop problem": lambda: three_loop.classify(_two_loop()),
    "minimal_window-text": lambda: minimal_window("x"),
    "transition_matrix-solution as text": lambda: transition_matrix("x", SPEC, GRAPH),
    "transition_matrix-spec as text": lambda: transition_matrix(SOL, "x", GRAPH),
    "transition_matrix-graph as text": lambda: transition_matrix(SOL, SPEC, "x"),
    "stationary_closed_form-graph as text": lambda: stationary_closed_form(SOL, SPEC, "x"),
    "multistart_count-graph as text": lambda: multistart_count(SPEC, "x"),
    "verify_stationary-text": lambda: verify_stationary("x", TM),
    "edge_admissibility-tree as text": lambda: edge_admissibility("x", GRAPH),
    "edge_admissibility-graph as a tuple": lambda: edge_admissibility(FOREST[0], (1,)),
    "edge_admissibility-root alone, graph as a tuple": lambda: edge_admissibility(_hand_tree(), (1,)),
    "empirical_marginal-list of ints": lambda: empirical_marginal([1]),
    "empirical_marginal-an int": lambda: empirical_marginal(5),
    # a numeric instrument's argument that is not a real, or a loop count
    # other than 1 or 2; each used to raise TypeError or NumericalFailure
    "solve_loop_aggregate-lam as text": lambda: two_loop.solve_loop_aggregate("x", 2.0, 1),
    "solve_loop_aggregate-mult of 0": lambda: two_loop.solve_loop_aggregate(1.0, 2.0, 0),
    "solve_loop_aggregate-Lambda NaN": lambda: two_loop.solve_loop_aggregate(1.0, math.nan, 1),
    "f_curve-lam as text": lambda: two_loop.f_curve("x", 3.0, 2.0),
    "g_curve-x as text": lambda: two_loop.g_curve(1.0, "x", 2.0),
    "delta_curve-x None": lambda: three_loop.delta_curve(1.0, None, 2.0),
    "h_curve-Lambda as text": lambda: three_loop.h_curve(1.0, 3.0, "x"),
    "solve_loop_aggregate-mult of 3": lambda: two_loop.solve_loop_aggregate(1.0, 2.0, 3),
    "solve_loop_aggregate-lam of 0": lambda: two_loop.solve_loop_aggregate(0.0, 2.0, 1),
    "f_curve-x of 0": lambda: two_loop.f_curve(1.0, 0.0, 2.0),
    "g_curve-lam below 0": lambda: two_loop.g_curve(-1.0, 3.0, 2.0),
    "loop_z_branches-lam as text": lambda: two_loop.loop_z_branches("x", 2.0),
    "loop_z_branches-A None": lambda: two_loop.loop_z_branches(1.0, None),
    "q_poly-x as text": lambda: three_loop.q_poly(9.0, 130.0, "x"),
    "q_poly-Lambda infinite": lambda: three_loop.q_poly(9.0, math.inf, 2.0),
    "thresholds-lam of 0": lambda: thresholds(0.0),
    "q_critical_points-lam below 0": lambda: q_critical_points(-1.0),
    # a kernel or law where the other is wanted, or none
    "state_labels-text": lambda: state_labels("2"),
    "state_labels-window below 0": lambda: state_labels(-1),
    "irreducible-law": lambda: irreducible(SD),
    "verify_stationary-law as the kernel": lambda: verify_stationary(SD, SD),
    "verify_stationary-kernel as the law": lambda: verify_stationary(TM, TM),
    "sample_forest-law": lambda: sample_forest(SD, 2, 2, 7),
    "sample_forest-kernel as text": lambda: sample_forest("x", 2, 2, 7),
    "stationary_closed_form-solution as text": lambda: stationary_closed_form("x", SPEC, GRAPH),
    "multistart_count-spec as text": lambda: multistart_count("x", GRAPH),
    "minimal_window-None": lambda: minimal_window(None),
    "edge_admissibility-None": lambda: edge_admissibility(None, GRAPH),
    "TreeSample-spins an int": lambda: TreeSample(0, 0, 5),
    "level_slices-text k": lambda: level_slices("2", 1),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_an_argument_of_the_wrong_kind_is_bad_input(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            call()


def test_one_function_reads_the_state_cap():
    assert _users_of("_MAX_STATES") == ["chain.py:<module>", "chain.py:_as_window"]


def test_only_the_window_base_places_a_label():
    assert _users_of("_state_index") == ["chain.py:index"]
