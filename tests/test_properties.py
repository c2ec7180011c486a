"""Property tests: outside input ends in an exit code or InputError, never a crash.

Hypothesis draws the examples from a fixed seed (derandomize) and keeps no
example database, so every run checks the same inputs.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hcgibbs.chain import TAIL
from hcgibbs.cli import main
from hcgibbs.errors import InputError
from hcgibbs.sampler import TreeSample, num_vertices, tree_sample_from_json

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

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
@given(args=tree_args(), as_json=st.booleans(),
       keys=st.one_of(st.just({"depth", "seed", "spins"}),
                      st.sets(st.sampled_from(["depth", "seed", "spins"]))))
def test_tree_sample_is_a_tree_or_input_error(args, as_json, keys):
    depth, seed, spins, k = args
    try:
        if as_json:
            data = {"depth": depth, "seed": seed, "spins": spins}
            tree = tree_sample_from_json({key: data[key] for key in keys}, k=k)
        else:
            tree = TreeSample(depth, seed, spins, k=k)
    except InputError:
        return
    assert tree.spins == tuple(spins) and len(tree.index) == num_vertices(k, depth)
