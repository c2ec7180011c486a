"""Windowed transition kernel and its stationary distribution.

Exactness notes: row sums and the stationary identity X * P = X hold to
the last bit by construction (rows are completed by subtraction, the
closed form is algebraically stationary), so several assertions here use
== on floats deliberately.
"""

import inspect
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from hcgibbs import chain, cli
from hcgibbs.chain import (
    _MAX_STATES,
    TAIL,
    StationaryDistribution,
    TransitionMatrix,
    distribution_to_csv,
    irreducible,
    matrix_to_csv,
    minimal_window,
    power_iteration,
    state_labels,
    stationary_closed_form,
    total_variation,
    transition_matrix,
    verify_stationary,
)
from hcgibbs.cli import _Encoded, _json_row, _json_text, main
from hcgibbs.errors import InputError, NumericalFailure, ShapeMismatch, TooLarge, WindowTooSmall
from hcgibbs.model import ActivitySpec, BoundaryLawSolution, graph_from_spec, spec_from_json
from hcgibbs.sampler import sample_tree
from hcgibbs.three_loop import ThreeLoopProblem, enumerate_solutions
from hcgibbs.two_loop import TwoLoopProblem, solve_unique

SPEC = ActivitySpec(loop_activities={1: 1.0}, explicit_tail={2: 0.5}, tail_mass=0.5)
GRAPH = graph_from_spec(SPEC)
SOL = solve_unique(TwoLoopProblem(1.0, 2.0))

SPEC2 = ActivitySpec(loop_activities={1: 9.0, 2: 9.0}, tail_mass=112.0)
GRAPH2 = graph_from_spec(SPEC2)
SOLS2 = enumerate_solutions(ThreeLoopProblem(9.0, 130.0))


def test_state_labels_layout():
    assert state_labels(2) == (-2, -1, 0, 1, 2, TAIL)
    assert minimal_window(SPEC) == 2
    assert minimal_window(SPEC2) == 2


def test_row_sums_exact():
    for spec, graph, sol, window in [
        (SPEC, GRAPH, SOL, 2),
        (SPEC, GRAPH, SOL, 4),
        (SPEC2, GRAPH2, SOLS2[0], 2),
        (SPEC2, GRAPH2, SOLS2[3], 6),
    ]:
        tm = transition_matrix(sol, spec, graph, window)
        sums = tm.matrix.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def _P(tm, i, j):
    """The entry of the dense reference tm.matrix from state i to state j."""
    return tm.matrix[tm.index(i), tm.index(j)]


def test_non_loop_rows_step_to_hub():
    tm = transition_matrix(SOL, SPEC, GRAPH, 3)
    for lab in (-3, -2, -1, 2, 3, TAIL):
        assert _P(tm, lab, 0) == 1.0
        row = tm.matrix[tm.index(lab)]
        assert row.sum() == 1.0


def test_loop_row_two_entries_sum_exactly():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    assert _P(tm, 1, 1) + _P(tm, 1, 0) == 1.0
    assert _P(tm, 1, 2) == 0.0
    for sol in SOLS2:
        tm2 = transition_matrix(sol, SPEC2, GRAPH2, 2)
        for lab in (1, 2):
            assert _P(tm2, lab, lab) + _P(tm2, lab, 0) == 1.0


def test_hub_row_proportional_to_weights():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    z1 = SOL.loop_z[1]
    q = (1.0 + SOL.A) ** 2
    w2 = 0.5 * (0.5 / q)  # activity of state 2 times its boundary-law value
    assert _P(tm, 0, 1) / _P(tm, 0, 0) == pytest.approx(1.0 * z1, rel=1e-12)
    assert _P(tm, 0, 2) / _P(tm, 0, 0) == pytest.approx(w2, rel=1e-12)
    assert _P(tm, 0, TAIL) / _P(tm, 0, 0) == pytest.approx(0.5 * (0.5 / q), rel=1e-12)
    assert _P(tm, 0, -1) == 0.0
    assert _P(tm, 0, -2) == 0.0


def test_stationary_closed_form_verifies():
    sd = stationary_closed_form(SOL, SPEC, GRAPH)
    tm = transition_matrix(SOL, SPEC, GRAPH, sd.window)
    report = verify_stationary(sd, tm)
    assert report.passed
    assert report.max_residual < 1e-10
    assert report.sum_error < 1e-12


def test_stationary_all_branches():
    for sol in SOLS2:
        sd = stationary_closed_form(sol, SPEC2, GRAPH2)
        tm = transition_matrix(sol, SPEC2, GRAPH2, sd.window)
        assert verify_stationary(sd, tm).passed


def test_symmetric_branch_balances_loops():
    sym = [s for s in SOLS2 if s.loop_z[1] == s.loop_z[2]]
    assert len(sym) == 1
    sd = stationary_closed_form(sym[0], SPEC2, GRAPH2)
    assert sd.probabilities[sd.index(1)] == sd.probabilities[sd.index(2)]


def test_uniform_vector_is_not_stationary():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    n = tm.matrix.shape[0]
    report = verify_stationary(np.full(n, 1.0 / n), tm)
    assert not report.passed


def test_power_iteration_matches_closed_form():
    for sol in SOLS2:
        sd = stationary_closed_form(sol, SPEC2, GRAPH2)
        tm = transition_matrix(sol, SPEC2, GRAPH2, sd.window)
        y, iters = power_iteration(tm)
        assert iters >= 1
        assert total_variation(y, sd) < 1e-8


def test_power_iteration_custom_start():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    start = np.zeros(6)
    start[tm.index(0)] = 2.0  # unnormalized on purpose
    y, _ = power_iteration(tm, start=start)
    assert total_variation(y, sd) < 1e-8


def test_power_iteration_validation():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    with pytest.raises(ShapeMismatch):
        power_iteration(tm, start=np.ones(3))
    with pytest.raises(InputError):
        power_iteration(tm, start=np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(NumericalFailure):
        power_iteration(tm, max_iter=1)


def test_irreducible_on_active_states():
    assert irreducible(transition_matrix(SOL, SPEC, GRAPH, 2))
    assert irreducible(transition_matrix(SOL, SPEC, GRAPH, 5))
    for sol in SOLS2:
        assert irreducible(transition_matrix(sol, SPEC2, GRAPH2, 3))


def test_irreducible_detects_unreachable_state():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    # a weight of 0: state 2 stays active but unreachable
    bad = TransitionMatrix(tm.window, {**tm.weights, 2: 0.0}, tm.loops, tm.k)
    assert bad.active[tm.index(2)] and bad.hub_row[tm.index(2)] == 0.0
    assert not irreducible(bad)


def test_irreducible_matches_strong_components():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.6))
        n_comp, _ = connected_components(m > 0.0, directed=True, connection="strong")
        assert _dense_irreducible(m) == (n_comp == 1)


def test_state_cap():
    window = _MAX_STATES // 2 - 1  # exactly _MAX_STATES states
    assert len(stationary_closed_form(SOL, SPEC, GRAPH, window).probabilities) == _MAX_STATES
    with pytest.raises(TooLarge):
        stationary_closed_form(SOL, SPEC, GRAPH, window + 1)
    with pytest.raises(TooLarge):
        transition_matrix(SOL, SPEC, GRAPH, 100_000)


def test_window_enlargement_appends_zeros():
    small = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    large = stationary_closed_form(SOL, SPEC, GRAPH, 5)
    for lab in (-2, -1, 0, 1, 2, TAIL):
        assert large.probabilities[large.index(lab)] == small.probabilities[small.index(lab)]
    for lab in (-5, -4, -3, 3, 4, 5):
        assert large.probabilities[large.index(lab)] == 0.0
    tm_small = transition_matrix(SOL, SPEC, GRAPH, 2)
    tm_large = transition_matrix(SOL, SPEC, GRAPH, 5)
    for a in (-2, -1, 0, 1, 2, TAIL):
        for b in (-2, -1, 0, 1, 2, TAIL):
            assert _P(tm_large, a, b) == _P(tm_small, a, b)


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        transition_matrix(SOL, SPEC, GRAPH, 1)
    with pytest.raises(InputError):
        transition_matrix(SOL, SPEC, GRAPH, -1)
    with pytest.raises(InputError):
        transition_matrix(SOL, SPEC, GRAPH, 2.0)


def test_rejects_non_solution():
    fake = BoundaryLawSolution(A=3.0, loop_z={1: 0.9}, branch="fake", residual=0.0)
    with pytest.raises(InputError):
        transition_matrix(fake, SPEC, GRAPH, 2)
    with pytest.raises(InputError):
        stationary_closed_form(fake, SPEC, GRAPH)


def test_relabel_for_shifted_loop():
    spec = ActivitySpec(loop_activities={5: 1.0}, tail_mass=1.0)
    graph = graph_from_spec(spec)
    tm = transition_matrix(SOL, spec, graph, 5)  # canonical labels map onto loop 5
    assert _P(tm, 5, 5) > 0.0
    assert _P(tm, 5, 5) + _P(tm, 5, 0) == 1.0
    sd = stationary_closed_form(SOL, spec, graph)
    assert sd.window == 5
    assert sd.probabilities[sd.index(5)] > 0.0
    assert verify_stationary(sd, tm).passed


def test_shape_mismatches():
    tm2 = transition_matrix(SOL, SPEC, GRAPH, 2)
    sd3 = stationary_closed_form(SOL, SPEC, GRAPH, 3)
    with pytest.raises(ShapeMismatch, match="different state sets"):
        verify_stationary(sd3, tm2)
    with pytest.raises(ShapeMismatch, match="distribution has 4 entries but the matrix has 6 states"):
        verify_stationary(np.ones(4), tm2)
    with pytest.raises(ShapeMismatch, match="must be a vector"):
        verify_stationary(np.ones((6, 1)), tm2)
    with pytest.raises(ShapeMismatch):
        total_variation(np.ones(3), np.ones(4))


@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf, (np.inf, -np.inf), (1e308, 1e308)],
    ids=["nan", "inf", "-inf", "inf,-inf", "1e308,1e308"],
)
def test_non_finite_distribution_fails_the_check(bad):
    # a pair sits on two states that step to 0, so both enter the hub
    # column's sum, where a bare math.fsum raises: on +inf with -inf, and
    # on 1e308 + 1e308 overflowing
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    places = [(0,), (1,), (-2,)] if np.isscalar(bad) else [(-2, TAIL), (2, TAIL), (-2, 2)]
    for labels in places:
        x = sd.probabilities.copy()
        x[[tm.index(lab) for lab in labels]] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            report = verify_stationary(x, tm)
            assert not report.passed
            assert not np.isfinite(report.max_residual)


@pytest.mark.parametrize("P", [
    transition_matrix(SOL, SPEC, GRAPH, 2).matrix,
    transition_matrix(SOL, SPEC, GRAPH, 2).matrix.tolist(),
    "x",
    None,
], ids=["array", "list", "x", "None"])
def test_the_checks_take_only_a_kernel(P):
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    for check in (lambda: verify_stationary(sd, P), lambda: power_iteration(P), lambda: irreducible(P)):
        with pytest.raises(InputError, match="kernel must be a TransitionMatrix, got "):
            check()


def test_index_validation():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    assert tm.index(TAIL) == 5
    assert tm.index(-2) == 0
    with pytest.raises(InputError):
        tm.index(3)
    with pytest.raises(InputError):
        tm.index("hub")
    with pytest.raises(InputError):
        tm.index(True)


def test_stationary_index_validation():
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    assert sd.index(TAIL) == 5
    assert sd.index(-2) == 0
    assert sd.index(2) == 4
    assert sd.probabilities[sd.index(TAIL)] == sd.probabilities[5]
    for label in (-5, -3, 3, 5, "hub", True):
        with pytest.raises(InputError):
            sd.probabilities[sd.index(label)]


def test_csv_round_trip():
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    text = matrix_to_csv(tm)
    lines = text.strip().split("\n")
    assert lines[0] == "-2,-1,0,1,2,TAIL"
    parsed = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    assert parsed.shape == tm.matrix.shape
    assert np.array_equal(parsed, tm.matrix)

    sd = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    dlines = distribution_to_csv(sd).strip().split("\n")
    assert dlines[0] == "-2,-1,0,1,2,TAIL"
    dparsed = np.array([float(tok) for tok in dlines[1].split(",")])
    assert np.array_equal(dparsed, sd.probabilities)

    # loops either side of the hub, on a window wider than the minimal one
    spec = ActivitySpec(loop_activities={-2: 9.0, 3: 9.0}, explicit_tail={1: 2.0}, tail_mass=110.0)
    graph = graph_from_spec(spec)
    for sol in SOLS2:
        tm = transition_matrix(sol, spec, graph, 5)
        lines = matrix_to_csv(tm).strip().split("\n")
        assert lines[0] == "-5,-4,-3,-2,-1,0,1,2,3,4,5,TAIL"
        parsed = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, tm.matrix)
        for lab in (-2, 3):
            assert np.count_nonzero(parsed[tm.index(lab)]) == 2


def test_json_dicts():
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 2)
    dd = sd.to_json_dict()
    assert dd["states"] == [-2, -1, 0, 1, 2, TAIL]
    assert np.array_equal(np.array(dd["probabilities"]), sd.probabilities)
    assert StationaryDistribution(2, sd.probabilities).states == state_labels(2)


def test_the_window_alone_gives_the_states():
    # states is derived, so no constructor takes it and no check compares it
    for cls in (TransitionMatrix, StationaryDistribution):
        assert "states" not in inspect.signature(cls).parameters
    tm = transition_matrix(SOL, SPEC, GRAPH, np.int64(3))
    assert tm.window == 3 and type(tm.window) is int
    assert tm.states == tm.stationary.states == state_labels(3)


def test_export_reads_no_dense_matrix():
    tm = transition_matrix(SOLS2[0], SPEC2, GRAPH2, 4)
    text = matrix_to_csv(tm)
    rows = chain._row_texts(tm, _json_row)
    assert "matrix" not in tm.__dict__
    assert [json.loads(row) for row in rows] == tm.matrix.tolist()
    parsed = [[float(tok) for tok in line.split(",")] for line in text.split("\n")[1:-1]]
    assert parsed == tm.matrix.tolist()


# 602 states: loops at 1 and 2, every other label of -300..300 listed
WIDE = {
    "loops": {"1": 9.0, "2": 9.0},
    "tail": {str(lab): 0.1 for lab in range(-300, 301) if lab not in (0, 1, 2)},
    "tail_mass": 22.2,
}


@pytest.fixture
def wide_spec(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE))
    return path


def _wide_kernels(window):
    spec = spec_from_json(WIDE)
    graph = graph_from_spec(spec)
    sols = enumerate_solutions(ThreeLoopProblem.from_spec(spec))
    return [transition_matrix(sol, spec, graph, window) for sol in sols]


def test_a_kernel_rebuilt_from_its_weights_is_the_same_kernel():
    # the weights are the kernel's only input; rows and law are derived
    assert list(inspect.signature(TransitionMatrix).parameters) == ["window", "weights", "loops", "k"]
    narrow = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    for tm in [transition_matrix(SOL, narrow, graph_from_spec(narrow))] + _wide_kernels(300):
        again = TransitionMatrix(tm.window, tm.weights, tm.loops, tm.k)
        assert again.hub_row.tobytes() == tm.hub_row.tobytes()
        assert (again.stays, again.active.tobytes()) == (tm.stays, tm.active.tobytes())
        assert again.stationary.probabilities.tobytes() == tm.stationary.probabilities.tobytes()


def test_irreducible_copies_no_float_matrix():
    tm = _wide_kernels(300)[0]
    assert tm.matrix.shape == (602, 602)  # built before the trace starts
    tracemalloc.start()
    try:
        assert irreducible(tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a float copy of the active block alone would take matrix.nbytes
    assert peak < tm.matrix.nbytes


def _dense_irreducible(m):
    """The reference verdict on a square array: every state reaches state 0
    and is reached from it along positive entries."""
    pattern = np.asarray(m) > 0.0
    for edges in (pattern, pattern.T):
        seen = np.arange(edges.shape[0]) == 0
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def test_irreducible_matches_dense_restriction():
    # windows wider than minimal, so the active states have inactive gaps,
    # and the minimal window of the wide spec, where every state is active
    spec = ActivitySpec(loop_activities={-2: 9.0, 3: 9.0}, explicit_tail={1: 2.0}, tail_mass=110.0)
    graph = graph_from_spec(spec)
    kernels = [transition_matrix(sol, spec, graph, 5) for sol in SOLS2]
    kernels += _wide_kernels(300)[:1] + _wide_kernels(310)
    assert [all(tm.active) for tm in kernels] == [False] * len(SOLS2) + [True] + [False] * 3
    for tm in kernels[:len(SOLS2)] + kernels[-1:]:
        # a weight of 0: state 1 stays active but unreachable
        kernels.append(TransitionMatrix(tm.window, {**tm.weights, 1: 0.0}, tm.loops, tm.k))
        # a loop that never leaves cannot return to the hub: at a weight of
        # 2**53 its stay w/(1+w) rounds to 1
        trapped = TransitionMatrix(tm.window, {**tm.weights, min(tm.loops): 2.0**53}, tm.loops, tm.k)
        assert trapped.stays[min(tm.loops)] == 1.0
        kernels.append(trapped)
    verdicts = [irreducible(tm) for tm in kernels]
    # the reference restricts the float matrix to the active states, then thresholds
    active = [np.asarray(tm.active, dtype=bool) for tm in kernels]
    assert verdicts == [_dense_irreducible(tm.matrix[np.ix_(keep, keep)])
                        for tm, keep in zip(kernels, active)]
    assert verdicts.count(False) == 2 * (len(SOLS2) + 1)


def test_chain_export_encodes_each_distinct_row_once(wide_spec, capsys, monkeypatch):
    calls = []
    row_texts = chain._row_texts

    def counted(tm, encode):
        n = 0

        def counting(row):
            nonlocal n
            n += 1
            return encode(row)

        texts = row_texts(tm, counting)
        calls.append((len(texts), n))
        return texts

    monkeypatch.setattr(chain, "_row_texts", counted)
    assert main(["chain", str(wide_spec)]) == 0
    solutions = json.loads(capsys.readouterr().out)["solutions"]
    assert len(solutions) == 3
    assert len(calls) == 3
    assert all(states == 602 and 1 <= n <= 2 + 2 for states, n in calls)

    calls.clear()
    assert main(["chain", str(wide_spec), "--format", "csv", "--branch", "asymmetric-A1"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 602 + 1 + 2
    assert len(calls) == 1 and 1 <= calls[0][1] <= 2 + 2


def test_chain_command_never_reads_the_dense_matrix(wide_spec, capsys, monkeypatch):
    def dense(self):
        raise AssertionError("the chain command read the dense kernel")

    monkeypatch.setattr(TransitionMatrix, "matrix", property(dense))
    assert main(["chain", str(wide_spec)]) == 0
    assert all(sol["irreducible"] and sol["report"]["passed"]
               for sol in json.loads(capsys.readouterr().out)["solutions"])
    assert main(["chain", str(wide_spec), "--window", "400", "--format", "csv"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 802 + 1 + 2


def test_chain_at_the_state_cap_stays_window_linear(tmp_path, monkeypatch):
    spec = tmp_path / "five.json"
    spec.write_text(json.dumps({"loops": {"1": 9.0, "2": 9.0}, "tail_mass": 112.0}))
    checked = []
    verify = chain.verify_stationary

    def counted(sd, tm):
        checked.append(len(tm.states))
        return verify(sd, tm)

    monkeypatch.setattr(chain, "verify_stationary", counted)
    # the document is 420 MB of row text, so it goes to the null device
    argv = ["chain", str(spec), "--window", str(_MAX_STATES // 2 - 1), "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [_MAX_STATES] * 5
    # one dense matrix at the cap is 128 MiB; the five solutions held one each
    assert peak < 32 * 2**20


def test_chain_csv_at_the_state_cap_streams_its_rows(tmp_path):
    spec = tmp_path / "five.json"
    spec.write_text(json.dumps({"loops": {"1": 9.0, "2": 9.0}, "tail_mass": 112.0}))
    argv = ["chain", str(spec), "--format", "csv", "--window", str(_MAX_STATES // 2 - 1),
            "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text is 34 MB; joining it into one string held it twice over
    assert peak < 16 * 2**20


def test_csv_lines_share_the_unit_row_text():
    tm = transition_matrix(SOLS2[0], SPEC2, GRAPH2, 40)
    lines = chain.matrix_csv_lines(tm)
    assert "".join(lines) == matrix_to_csv(tm)
    assert all(line.endswith("\n") for line in lines)
    unit = lines[1 + tm.index(-40)]
    assert sum(line is unit for line in lines) == len(tm.states) - 1 - len(tm.stays)


def test_chain_json_encodes_the_shared_unit_row_once(wide_spec, capsys, monkeypatch):
    rows = []

    def counted(row):
        rows.append(row.tobytes())
        return _json_row(row)

    monkeypatch.setattr(cli, "_json_row", counted)
    assert main(["chain", str(wide_spec)]) == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 3
    # each solution's unit row once, shared by its 599 other states, then
    # its hub row and two loop rows; the solutions' unit rows are equal
    assert len(rows) == 3 * (1 + 3)
    assert len(set(rows)) == 1 + 3 * 3


def test_a_command_checks_each_solution_once_per_kernel(tmp_path, capsys, monkeypatch):
    calls = []
    window_weights = chain._window_weights

    def counted(*args):
        calls.append(args[0].branch)
        return window_weights(*args)

    monkeypatch.setattr(chain, "_window_weights", counted)
    path = tmp_path / "three.json"
    path.write_text('{"loops":{"1":9.0,"2":9.0},"tail_mass":82.0}')
    assert main(["chain", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == len(calls) == len(set(calls)) == 3
    calls.clear()
    assert main(["sample", str(path), "--depth", "3", "--seed", "1"]) == 0
    # one kernel: the sampler draws from it and tv_to_stationary reads its law
    assert len(calls) == 1


def test_structural_product_matches_the_dense_one():
    for tm in _wide_kernels(300) + _wide_kernels(310):
        n = len(tm.states)
        x = np.random.default_rng(n).random(n)
        # the hub column's sum is rounded once here; BLAS rounds each of its
        # n additions, in an order that follows its thread count
        np.testing.assert_allclose(chain._times_kernel(x, tm), x @ tm.matrix,
                                   rtol=n * np.finfo(float).eps, atol=0.0)


def test_stationarity_and_power_iteration_read_no_dense_matrix(monkeypatch):
    def dense(self):
        raise AssertionError("the dense kernel was read")

    kernels = [
        (transition_matrix(sol, SPEC2, GRAPH2, window), stationary_closed_form(sol, SPEC2, GRAPH2, window))
        for sol in SOLS2
        for window in (2, 40)
    ]
    monkeypatch.setattr(TransitionMatrix, "matrix", property(dense))
    for tm, sd in kernels:
        assert verify_stationary(sd, tm).passed
        y, _ = power_iteration(tm)
        assert total_variation(y, sd) < 1e-8


def test_power_iteration_at_the_state_cap_stays_window_linear():
    tm = transition_matrix(SOLS2[1], SPEC2, GRAPH2, _MAX_STATES // 2 - 1)
    sd = stationary_closed_form(SOLS2[1], SPEC2, GRAPH2, tm.window)
    tracemalloc.start()
    try:
        y, _ = power_iteration(tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total_variation(y, sd) < 1e-8
    # the dense matrix alone is 128 MiB at the cap
    assert peak < 8 * 2**20


def test_chain_export_streams_its_json(wide_spec, tmp_path):
    out = tmp_path / "chain.json"
    argv = ["chain", str(wide_spec), "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the document is 5.5 MB, most of it the three kernels' row texts;
    # joining it into one string copied it several times over
    assert peak < 3 * out.stat().st_size


def test_chain_out_goes_out_in_few_writes(wide_spec, tmp_path, monkeypatch):
    writes = []

    class CountingFile(io.FileIO):
        def write(self, b):
            writes.append(len(b))
            return super().write(b)

    def counting_open(file, mode="r", buffering=-1, **text_options):
        # the layers open() stacks for a text file, over a raw file that counts its writes
        assert mode == "w"
        size = buffering if buffering > 1 else io.DEFAULT_BUFFER_SIZE
        raw = io.BufferedWriter(CountingFile(file, "w"), size)
        return io.TextIOWrapper(raw, **text_options)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    out = tmp_path / "chain.json"
    assert main(["chain", str(wide_spec), "--out", str(out)]) == 0
    assert sum(writes) == out.stat().st_size > 5_000_000
    # the default 8 KiB buffer takes 913
    assert len(writes) <= 100


def test_encoded_rows_keep_the_nested_list_layout():
    rows = np.array([[0.25, 0.75, -0.0], [1.0, 0.0, 0.0]])
    plain = _json_text({"matrix": rows.tolist(), "states": [-1, 0, 1]})
    encoded = _json_text({"matrix": [_json_row(row) for row in rows], "states": [-1, 0, 1]})
    assert encoded == plain
    assert _json_text([_Encoded("[1]"), _Encoded("[2]")]) == _json_text([[1], [2]])


@pytest.mark.parametrize("build", [
    lambda sol: transition_matrix(sol, SPEC, GRAPH),
    lambda sol: stationary_closed_form(sol, SPEC, GRAPH),
    lambda sol: sample_tree(transition_matrix(sol, SPEC, GRAPH), 2, 0),
], ids=["transition_matrix", "stationary_closed_form", "sample_tree"])
@pytest.mark.parametrize("A", [-1.0, 1e200])
def test_a_hand_built_A_is_refused_before_its_power(build, A):
    # (1 + A)**2 was taken before A was read: ZeroDivisionError at -1,
    # OverflowError at 1e200
    with pytest.raises(InputError):
        build(BoundaryLawSolution(A, SOL.loop_z, SOL.branch, SOL.residual))


def test_an_overflowing_A_is_refused_without_a_warning():
    # (1 + A)**2 overflows in the residual gate's float_power, then A / inf
    # is NaN: both used to print a RuntimeWarning before the refusal
    spec = ActivitySpec({1: 1.0}, {2: 0.5}, tail_mass=1.0)
    sol = BoundaryLawSolution(1e200, {1: 0.5}, "x", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="residual"):
            transition_matrix(sol, spec, graph_from_spec(spec))


def test_the_window_defaults_to_the_minimal_one():
    for spec, graph, sols in ((SPEC, GRAPH, [SOL]), (SPEC2, GRAPH2, SOLS2)):
        window = minimal_window(spec)
        for sol in sols:
            tm, given = transition_matrix(sol, spec, graph), transition_matrix(sol, spec, graph, window)
            assert tm.window == window and tm.states == given.states
            assert tm.hub_row.tobytes() == given.hub_row.tobytes() and tm.stays == given.stays
            assert stationary_closed_form(sol, spec, graph).window == window


def test_a_tail_z_that_rounds_to_zero_is_refused():
    # lambda / (1+A)^2 of the least subnormal activity rounds to 0, and a
    # boundary law is positive
    spec = ActivitySpec(loop_activities={1: 1.0}, explicit_tail={2: 5e-324, 3: 0.5}, tail_mass=1.0)
    sol = solve_unique(TwoLoopProblem(1.0, spec.total_activity()))
    with pytest.raises(InputError, match=r"z\[2\] must be positive and finite, got 0.0"):
        transition_matrix(sol, spec, graph_from_spec(spec), 3)
