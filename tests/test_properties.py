"""Property tests: outside input ends in an exit code or an HcGibbsError, never a crash.

Hypothesis draws the examples from a fixed seed (derandomize) and keeps no
example database, so every run checks the same inputs.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hcgibbs.chain import TAIL, stationary_closed_form, transition_matrix
from hcgibbs.cli import main
from hcgibbs.errors import HcGibbsError, InputError
from hcgibbs.model import ActivitySpec, BoundaryLawSolution, graph_from_spec
from hcgibbs.oracle import multistart_count
from hcgibbs.sampler import TreeSample, num_vertices, sample_forest
from hcgibbs.three_loop import ThreeLoopProblem, enumerate_solutions, q_poly
from hcgibbs.two_loop import TwoLoopProblem, loop_z_branches, solve_unique

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
FILE_PROPERTY = settings(PROPERTY, max_examples=150)

# any float's repr (NaN, +-inf, subnormals), reals across double range,
# integers past it, and junk
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.text(max_size=8),
)
POINTS_TEXT = st.one_of(st.integers(-5, 300).map(str), NUMBER_TEXT)


def _exit_code(argv) -> int:
    """cli.main's exit code for argv, argparse's SystemExit code included."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@PROPERTY
@given(lam=NUMBER_TEXT)
def test_thresholds_ends_in_an_exit_code(lam):
    assert _exit_code(["thresholds", "--lambda", lam]) in (0, 2, 3, 4)


@PROPERTY
@given(lam=NUMBER_TEXT, Lambda=NUMBER_TEXT)
def test_classify_ends_in_an_exit_code(lam, Lambda):
    assert _exit_code(["classify", "--lambda", lam, "--Lambda", Lambda]) in (0, 2, 3, 4)


@PROPERTY
@given(pair=st.sampled_from(["f,g", "h,delta"]), x=NUMBER_TEXT, Lambda=NUMBER_TEXT,
       points=POINTS_TEXT)
def test_curve_dump_ends_in_an_exit_code(pair, x, Lambda, points):
    argv = ["sweep", "--emit-curves", pair, "--x", x, "--Lambda", Lambda, "--points", points]
    assert _exit_code(argv) in (0, 2, 3, 4)


# JSON-like values
VALUE = st.one_of(
    st.integers(-10**400, 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.just(TAIL),
)
LABEL = st.one_of(st.integers(-3, 3), st.just(TAIL))


@st.composite
def tree_args(draw):
    """(depth, seed, spins, k): half the time a small tree shape with the
    right spin count, so many examples are trees; else any mix of values."""
    if draw(st.booleans()):
        k, depth = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        n = num_vertices(k, depth)
        return depth, draw(st.integers()), draw(st.lists(LABEL, min_size=n, max_size=n)), k
    spins = st.one_of(st.lists(LABEL, max_size=25), st.lists(VALUE, max_size=5), VALUE,
                      st.dictionaries(st.text(max_size=2), VALUE))
    return (draw(st.one_of(st.integers(0, 2), VALUE)), draw(st.one_of(st.integers(), VALUE)),
            draw(spins), draw(st.one_of(st.integers(1, 3), VALUE)))


@PROPERTY
@given(args=tree_args())
def test_tree_sample_is_a_tree_or_input_error(args):
    depth, seed, spins, k = args
    try:
        tree = TreeSample(depth, seed, spins, k=k)
    except InputError:
        return
    assert tree.spins == tuple(spins) and len(tree.index) == num_vertices(k, depth)


# spec files: keys are small labels, digit strings of up to 4300 characters
# (Python's longest int literal) or junk; values are reals across double
# range, NaN/Infinity, bools, null, strings and integers past double range
SPEC_KEY = st.one_of(st.integers(-20, 20).map(str),
                     st.text("0123456789", min_size=1, max_size=4300), st.text(max_size=4))
SPEC_VALUE = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-10**400, 10**400),
)
SPEC_MAP = st.dictionaries(SPEC_KEY, SPEC_VALUE, max_size=3)
ANY_SPEC = st.fixed_dictionaries(
    {"loops": st.one_of(SPEC_MAP, SPEC_VALUE)},
    optional={"k": st.one_of(st.integers(1, 3), SPEC_VALUE), "tail": SPEC_MAP,
              "tail_mass": SPEC_VALUE, "divergent": st.one_of(st.booleans(), SPEC_VALUE),
              "extra": SPEC_VALUE},
)
# specs of the model's shape, so that many examples solve
ACTIVITY = st.floats(min_value=1e-3, max_value=1e3)
SMALL_LABEL = st.integers(-20, 20).filter(bool).map(str)
MODEL_SPEC = st.fixed_dictionaries(
    {"loops": st.dictionaries(SMALL_LABEL, ACTIVITY, min_size=1, max_size=2)},
    optional={"tail": st.dictionaries(SMALL_LABEL, ACTIVITY, max_size=2),
              "tail_mass": st.floats(min_value=0.0, max_value=1e3)},
)
SPEC_DOC = st.one_of(MODEL_SPEC, ANY_SPEC)
# files that are not JSON a parser reads: undecodable bytes, nesting past
# the recursion limit, an integer literal of more digits than Python reads
RAW_SPEC = st.sampled_from([
    b"\xff\xfe",
    b'{"loops": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    b'{"loops": {"1": 1' + b"0" * 5000 + b"}}",
])
SPEC_BYTES = st.one_of(SPEC_DOC.map(lambda doc: json.dumps(doc).encode()), RAW_SPEC,
                       st.binary(max_size=16))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@FILE_PROPERTY
@given(content=SPEC_BYTES, command=st.sampled_from([["solve"], ["chain"],
                                                    ["sample", "--depth=2", "--seed=1"]]))
def test_spec_file_ends_in_an_exit_code(workdir, content, command):
    path = workdir / "spec.json"
    path.write_bytes(content)
    assert _exit_code([command[0], str(path), *command[1:]]) in (0, 2, 3, 4)


# flags: tiny valid values, values past every cap, negatives, digit strings
# too long for Python to read as an int, and junk.  No valid request is
# larger than a window of 40 or 3 trees of depth 5, so nothing past that
# is allocated
DIGITS_PAST_INT = st.integers(4301, 5000).map(lambda n: "9" * n)
JUNK = st.text(max_size=6)


def _flag(tiny, past_cap):
    """Three times in four a tiny valid value, else one to refuse."""
    refused = st.one_of(past_cap.map(str), st.integers(max_value=-1).map(str), DIGITS_PAST_INT, JUNK)
    return st.integers(0, 3).flatmap(lambda i: refused if i == 3 else tiny.map(str))


WINDOW = _flag(st.integers(0, 40), st.integers(2048, 10**400))  # 4096 states at window 2047
DEPTH = _flag(st.integers(0, 5), st.integers(25, 10**400))  # over 2**25 vertices at order k = 2
TREES = _flag(st.integers(1, 3), st.integers(2**24 + 1, 10**400))
SEED = _flag(st.integers(-10**400, 10**400), st.nothing())
BRANCH = st.one_of(st.sampled_from(["two-loop-f", "two-loop-g", "symmetric", "asymmetric-A1",
                                    "asymmetric-A2-swapped"]), JUNK)
COMMAND_FLAGS = st.one_of(
    st.tuples(st.just("solve"), st.fixed_dictionaries({}, optional={
        "graph": st.one_of(st.sampled_from(["two-loop", "three-loop"]), JUNK)})),
    st.tuples(st.just("chain"), st.fixed_dictionaries({}, optional={
        "window": WINDOW, "branch": BRANCH, "format": st.sampled_from(["json", "csv"])})),
    st.tuples(st.just("sample"), st.fixed_dictionaries({"depth": DEPTH, "seed": SEED}, optional={
        "window": WINDOW, "trees": TREES, "branch": BRANCH})),
)
FLAG_SPECS = {
    "one loop": {"loops": {"1": 1.0}, "tail_mass": 1.0},
    "five solutions": {"loops": {"1": 9.0, "2": 9.0}, "tail_mass": 112.0},
    "listed tail": {"loops": {"-2": 9.0, "3": 9.0}, "tail": {"-4": 1.5, "1": 0.5}, "tail_mass": 3.0},
}


@FILE_PROPERTY
@given(spec=st.sampled_from(sorted(FLAG_SPECS)), command_flags=COMMAND_FLAGS,
       missing_out=st.integers(0, 3).map(lambda i: i == 0))
def test_solve_chain_and_sample_flags_end_in_an_exit_code(workdir, spec, command_flags,
                                                           missing_out):
    command, flags = command_flags
    path = workdir / f"{spec}.json"
    path.write_text(json.dumps(FLAG_SPECS[spec]))
    argv = [command, str(path), *(f"--{key}={v}" for key, v in flags.items())]
    if missing_out:
        argv.append(f"--out={workdir / 'missing' / 'out.json'}")
    assert _exit_code(argv) in (0, 2, 3, 4)


# sweep: a single-cell grid, seven times in eight a real from 1e-300 to
# 1e300 (log-uniform or as Hypothesis picks it; half the Lambdas at 2 to
# 1e6 times lambda, so that the cell runs), else NaN, +-inf, junk or empty
# text; starts seven times in eight at 50 or 60, else just under the
# oracle's floor of 50, negative or past its cap, so no cell runs over 60
# starts; seeds any integer, too long to read, or junk


def _mostly(valid, refused):
    """Seven times in eight a draw of valid, else one of refused."""
    return st.integers(0, 7).flatmap(lambda i: refused if i == 7 else valid)


REAL = st.one_of(st.floats(min_value=1e-300, max_value=1e300),
                 st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299)))
REFUSED_GRID = st.one_of(st.sampled_from(["nan", "inf", "-inf", "", " "]), JUNK)


@st.composite
def sweep_cell(draw):
    lam = draw(REAL)
    Lambda = draw(st.one_of(REAL, st.floats(0.3, 6.0).map(lambda e: min(lam * 10.0**e, 1e300))))
    return tuple(draw(_mostly(st.just(repr(v)), REFUSED_GRID)) for v in (lam, Lambda))


STARTS = _mostly(st.sampled_from(["50", "60"]), st.one_of(
    st.just("49"), st.integers(max_value=-1).map(str), st.integers(100_001, 10**400).map(str),
    DIGITS_PAST_INT, JUNK))
SWEEP_SEED = _mostly(st.integers(0, 10**400).map(str), st.one_of(
    st.integers(max_value=-1).map(str), DIGITS_PAST_INT, JUNK))


@PROPERTY
@given(cell=sweep_cell(), starts=STARTS, seed=SWEEP_SEED,
       missing_out=st.integers(0, 3).map(lambda i: i == 0))
def test_sweep_grid_flags_end_in_an_exit_code(workdir, cell, starts, seed, missing_out):
    lam, Lambda = cell
    argv = [f"--lambda-grid={lam}", f"--Lambda-grid={Lambda}", f"--starts={starts}", f"--seed={seed}"]
    if missing_out:
        argv.append(f"--out={workdir / 'missing' / 'sweep.csv'}")
    assert _exit_code(["sweep", *argv]) in (0, 2, 3, 4)


# a hand-built solution's numbers: reals from the least subnormal up, and
# the values no solution may hold
HAND_REAL = st.one_of(st.floats(min_value=1e-320, max_value=1e300),
                      st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]))
# each spec with a closed-form solution, in canonical labels, that a drawn
# solution may copy A or a loop z from, so that some of them close the system
HAND_SPECS = [
    (ActivitySpec({1: 1.0}, {2: 0.5}, tail_mass=1.0), solve_unique(TwoLoopProblem(1.0, 2.5))),
    (ActivitySpec({3: 9.0, 7: 9.0}, {5: 0.5}, tail_mass=100.0),
     enumerate_solutions(ThreeLoopProblem(9.0, 118.5))[1]),
]


@st.composite
def hand_solution(draw):
    """(spec, graph, solution): A and each loop z drawn from HAND_REAL or
    copied from the spec's closed-form solution, in canonical or graph labels."""
    spec, genuine = draw(st.sampled_from(HAND_SPECS))
    graph = graph_from_spec(spec)
    labels = sorted(genuine.loop_z) if draw(st.booleans()) else graph.loops
    A, *z = (draw(st.one_of(st.just(v), HAND_REAL))
             for v in (genuine.A, *(genuine.loop_z[lab] for lab in sorted(genuine.loop_z))))
    return spec, graph, BoundaryLawSolution(A, dict(zip(labels, z)), "hand", 0.0)


def _returns_or_refuses(call):
    try:
        return call()
    except HcGibbsError:
        return None


@PROPERTY
@given(case=hand_solution())
def test_a_hand_built_solution_is_read_or_refused(case):
    spec, graph, sol = case
    for call in (lambda: transition_matrix(sol, spec, graph),
                 lambda: stationary_closed_form(sol, spec, graph, 9),
                 lambda: sample_forest(transition_matrix(sol, spec, graph), 3, 1, 1),
                 lambda: multistart_count(spec, graph, n_starts=50, hints=[sol])):
        _returns_or_refuses(call)


@PROPERTY
@given(lam=HAND_REAL, x=HAND_REAL, Lambda=HAND_REAL)
def test_the_closed_form_helpers_return_or_refuse(lam, x, Lambda):
    branches = _returns_or_refuses(lambda: loop_z_branches(lam, x))
    assert branches is None or min(branches) > 0.0
    _returns_or_refuses(lambda: q_poly(lam, Lambda, x))
