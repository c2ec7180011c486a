"""Damped fixed-point iteration and Newton multistart solution counting.

This module is the independent numerical check on the closed-form solvers:
it solves the consistency system directly and never touches the branch
algebra.  The solver tests freeze values that were confirmed here.
"""

import hashlib
import json

import numpy as np
import pytest

from hcgibbs import boundary_law
from hcgibbs.errors import DivergentActivities, InputError, TooLarge
from hcgibbs.model import ActivitySpec, BoundaryLawSolution, graph_from_spec, relabel_solution
from hcgibbs.oracle import _MAX_STARTS, multistart_count
from hcgibbs.three_loop import ThreeLoopProblem, enumerate_solutions, thresholds
from hcgibbs.two_loop import TwoLoopProblem, solve_unique
from reference import fixed_point_iterate

SPEC12 = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
GRAPH12 = graph_from_spec(SPEC12)


def three_loop_setup(Lambda):
    spec = ActivitySpec(loop_activities={1: 9.0, 2: 9.0}, tail_mass=Lambda - 18.0)
    return spec, graph_from_spec(spec)


def test_converges_and_matches_closed_form():
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    res = fixed_point_iterate(SPEC12, GRAPH12, {1: 1.0}, 1.0, damping=0.5)
    assert res.converged
    assert res.residual < 1e-11
    assert res.A == pytest.approx(sol.A, rel=1e-8)
    assert res.z[1] == pytest.approx(sol.loop_z[1], rel=1e-8)


def test_zero_iterations_at_exact_solution():
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    res = fixed_point_iterate(SPEC12, GRAPH12, dict(sol.loop_z), sol.A, damping=0.5)
    assert res.converged
    assert res.iterations == 0


def test_damping_schedule_example():
    # undamped iteration oscillates on this instance; damping settles it
    spec = ActivitySpec(loop_activities={1: 4.0}, tail_mass=1.0)
    graph = graph_from_spec(spec)
    hot = fixed_point_iterate(spec, graph, {1: 0.5}, 0.5, damping=1.0, max_iter=4000)
    assert not hot.converged
    cool = fixed_point_iterate(spec, graph, {1: 0.5}, 0.5, damping=0.3, max_iter=4000)
    assert cool.converged
    sol = solve_unique(TwoLoopProblem(4.0, 5.0))
    assert cool.A == pytest.approx(sol.A, rel=1e-8)


def test_non_convergence_is_a_value():
    spec = ActivitySpec(loop_activities={1: 4.0}, tail_mass=1.0)
    graph = graph_from_spec(spec)
    res = fixed_point_iterate(spec, graph, {1: 0.5}, 0.5, damping=1.0, max_iter=500)
    assert not res.converged
    assert res.residual > 0.0


def test_divergent_spec_raises():
    spec = ActivitySpec(loop_activities={1: 1.0}, divergent=True)
    graph = graph_from_spec(spec)
    with pytest.raises(DivergentActivities):
        fixed_point_iterate(spec, graph, {1: 1.0}, 1.0)
    with pytest.raises(DivergentActivities):
        multistart_count(spec, graph, n_starts=50, seed=0)


def test_multistart_two_loop_unique():
    res = multistart_count(SPEC12, GRAPH12, n_starts=100, seed=0)
    assert res.count == 1
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    rep = res.representatives[0]
    assert rep.A == pytest.approx(sol.A, rel=1e-8)


def test_multistart_minimum_starts():
    with pytest.raises(InputError):
        multistart_count(SPEC12, GRAPH12, n_starts=10, seed=0)


def test_multistart_three_loop_bare_discovery():
    # all three solutions in this regime attract the damped iteration
    spec, graph = three_loop_setup(100.0)
    res = multistart_count(spec, graph, n_starts=100, seed=0)
    assert res.count == 3


def _no_draw(*args, **kwargs):
    raise AssertionError("starts were drawn")


def test_multistart_caps_starts_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    spec, graph = three_loop_setup(130.0)
    with pytest.raises(TooLarge):
        multistart_count(spec, graph, n_starts=_MAX_STARTS + 1)


def test_multistart_counts_hint_starts_against_the_cap(monkeypatch):
    # each hint adds four starts, so a long hint list passes the cap alone
    def no_newton(*args):
        raise AssertionError("Newton ran")

    monkeypatch.setattr("hcgibbs.oracle._newton", no_newton)
    spec, graph = three_loop_setup(130.0)
    sol = enumerate_solutions(ThreeLoopProblem(9.0, 130.0))[0]
    with pytest.raises(TooLarge):
        multistart_count(spec, graph, n_starts=50, hints=[sol] * 10**6)
    with pytest.raises(TooLarge):
        multistart_count(spec, graph, n_starts=_MAX_STARTS - 200, hints=[sol] * 51)


@pytest.mark.parametrize("kwargs", [
    {"n_starts": 60.5}, {"n_starts": "60"}, {"n_starts": None},
    {"seed": 1.5}, {"seed": "x"}, {"seed": -1},
    {"hints": 5}, {"hints": [5]},
    # a hint's z is read when the hint is built, inside the raises block
    {"hints": lambda: [BoundaryLawSolution(1.0, {1: "a"}, "hint", 0.0)]},
    {"hints": [({1: 1.0}, 1.0)]},
], ids=["n_starts=60.5", "n_starts=str", "n_starts=None", "seed=1.5", "seed=str", "seed=-1",
        "hints=5", "hint=5", "hint-z=str", "hint=pair"])
def test_multistart_rejects_bad_arguments_before_drawing(kwargs, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    with pytest.raises(InputError):
        kwargs = {key: value() if callable(value) else value for key, value in kwargs.items()}
        multistart_count(SPEC12, GRAPH12, **{"n_starts": 60, **kwargs})


def test_multistart_finds_repelling_points_without_hints():
    # in the five-solution regime the asymmetric points repel the damped
    # Picard map from every direction; Newton does not care whether a fixed
    # point attracts, so bare discovery sees all five and hints agree
    spec, graph = three_loop_setup(130.0)
    bare = multistart_count(spec, graph, n_starts=100, seed=0)
    assert bare.count == 5
    hints = enumerate_solutions(ThreeLoopProblem(9.0, 130.0))
    full = multistart_count(spec, graph, n_starts=100, seed=0, hints=hints)
    assert full.count == 5


def test_multistart_single_loop_draws_without_hints():
    # acceptance criterion 1's draws, with no closed-form hint: every
    # unique solution must be found by bare discovery
    rng = np.random.default_rng(20260823)
    for _ in range(20):
        lam1 = float(rng.uniform(0.1, 20.0))
        Lam = float(rng.uniform(lam1 + 0.1, 50.0))
        spec = ActivitySpec(loop_activities={1: lam1}, tail_mass=Lam - lam1)
        res = multistart_count(spec, graph_from_spec(spec), n_starts=50, seed=7)
        assert res.count == 1, (lam1, Lam)
        sol = solve_unique(TwoLoopProblem(lam1, Lam))
        rep = res.representatives[0]
        assert rep.A == pytest.approx(sol.A, rel=1e-8)
        assert rep.z[1] == pytest.approx(sol.loop_z[1], rel=1e-8)


def test_multistart_count_stable_under_doubling():
    for n in (100, 200):
        assert multistart_count(SPEC12, GRAPH12, n_starts=n, seed=0).count == 1
    spec, graph = three_loop_setup(100.0)
    for n in (100, 200):
        assert multistart_count(spec, graph, n_starts=n, seed=0).count == 3


def test_representatives_close_the_system():
    spec, graph = three_loop_setup(100.0)
    res = multistart_count(spec, graph, n_starts=100, seed=0)
    for rep in res.representatives:
        assert rep.residual < 1e-11


def test_bad_hint_adds_no_spurious_cluster():
    # Newton either rejects a fabricated point or drags it onto the genuine
    # solution; the cluster count must not inflate either way
    spec, graph = three_loop_setup(200.0)
    fake = BoundaryLawSolution(77.0, {1: 123.0, 2: 0.003}, "fake", 0.0)
    res = multistart_count(spec, graph, n_starts=60, seed=0, hints=[fake])
    assert res.count == 1


def test_threshold_satellites_merge_into_symmetric_cluster():
    # exactly at the lower threshold the defect is degenerately flat along
    # z1 - z2, so multistart lands near-diagonal satellites that pass the
    # residual gate; the merge pass must collapse them onto the symmetric
    # solution instead of inflating the count
    for lam, want in ((4.0, 1), (12.0, 3)):
        L1, _ = thresholds(lam)
        spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=L1 - 2.0 * lam)
        graph = graph_from_spec(spec)
        hints = enumerate_solutions(ThreeLoopProblem(lam, L1))
        assert len(hints) == want
        res = multistart_count(spec, graph, n_starts=100, seed=0, hints=hints)
        assert res.count == want
        sym = min(res.representatives, key=lambda r: abs(r.z[1] - r.z[2]))
        assert abs(sym.z[1] - sym.z[2]) < 1e-9


# SHA-256 of every representative (z, A, residual, members, source) of
# multistart_count at 100 starts, seeds 0-2, with and without closed-form
# hints, on threshold cells where the pitchfork merge collapses clusters.
# Frozen from the two-pass grouping that preceded _leaders.
MERGE_DIGESTS = [
    (4.0, 1.0, "0bb79ca13a35997bda275d7c9c7160c0957ba74b93662e023a4fc58699cca6f3"),
    (49 / 9, 1.0, "9775a71382286e375384a290d2b9c91a79e2b1f4519ecd769a1197259fa49631"),
    (6.0, 1.0, "434bccbf9d03a55c9e1cce83ffeb667090dc9cfed22766a82cdc4eb0d2dc14fd"),
    (6.0, 1.0001, "e7f9846e9aa6467502f13d3e44f2a6fe821f45e4e7c863925b43a37b9d33ebb4"),
    (9.0, 1.0, "a1e8a133089b6f1d8e7bbe9ab50c85a94b8d2712c4e525bf8fc6406d58c849ce"),
    (9.0, 1.0001, "41d8179c888dea4ef21e5ef1355c9ef2de5c0e35c8640cb627ffdce7738fb6e1"),
    (12.0, 1.0, "1093261e8a8f823666d695299908a0b21a38cb235318064b6c358bfe5100448b"),
    (12.0, 1.0001, "32128ab564546e1fde4c92ba91cfc446f5e14a6cfa0caeb8b6ed51cca765d17d"),
]


@pytest.mark.parametrize("lam, factor, digest", MERGE_DIGESTS)
def test_merge_representatives_frozen(lam, factor, digest):
    Lambda = thresholds(lam)[0] * factor
    spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=Lambda - 2.0 * lam)
    graph = graph_from_spec(spec)
    hints = enumerate_solutions(ThreeLoopProblem(lam, Lambda))
    runs = []
    for seed in range(3):
        for h in (None, hints):
            res = multistart_count(spec, graph, n_starts=100, seed=seed, hints=h)
            runs.append([res.count] + [[sorted(r.z.items()), r.A, r.residual, r.members, r.source]
                                       for r in res.representatives])
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == digest


def _draws(n):
    """Criterion 1's single-loop draws (lam1 < 20, Lambda < 50)."""
    rng = np.random.default_rng(20260823)
    out = []
    for _ in range(n):
        lam1 = float(rng.uniform(0.1, 20.0))
        out.append((lam1, float(rng.uniform(lam1 + 0.1, 50.0))))
    return out


# multistart_count runs beyond MERGE_DIGESTS' equal loops at k = 2: each
# case is (loop activities, tail mass, k, n_starts, seeds).  A case runs
# once per seed without hints and once with hints: the closed-form solution
# for one loop at k = 2, else the representatives of the run without them.
BATTERY = {
    "single-loop-draws": [({1: lam1}, Lam - lam1, 2, 50, (7,)) for lam1, Lam in _draws(4)],
    "unequal-loops": [({1: 9.0, 2: 12.0}, 100.0, 2, 60, (0, 1)),
                      ({1: 8.0, 2: 10.0}, 60.0, 2, 60, (0,))],
    "k1": [({1: 3.0}, 2.0, 1, 50, (0,)), ({1: 3.0, 2: 4.0}, 20.0, 1, 60, (0, 1))],
    "k3": [({1: 2.0}, 5.0, 3, 50, (0,)), ({1: 20.0, 2: 20.0}, 400.0, 3, 60, (0, 1)),
           ({1: 5.0, 2: 6.0}, 100.0, 3, 60, (0,))],
}


def _battery_runs(name):
    """(spec, graph, n_starts, seed, hints) of every run of one battery case."""
    for loops, tail, k, n_starts, seeds in BATTERY[name]:
        spec = ActivitySpec(loop_activities=loops, tail_mass=tail, k=k)
        graph = graph_from_spec(spec)
        for seed in seeds:
            if len(loops) == 1 and k == 2:
                hints = [solve_unique(TwoLoopProblem(loops[1], loops[1] + tail))]
            else:
                bare = multistart_count(spec, graph, n_starts=n_starts, seed=seed)
                hints = [BoundaryLawSolution(r.A, r.z, r.source, r.residual)
                         for r in bare.representatives]
            yield spec, graph, n_starts, seed, None
            yield spec, graph, n_starts, seed, hints


def _summary(res):
    return [res.count] + [[sorted(r.z.items()), r.A, r.residual, r.members, r.source]
                          for r in res.representatives]


def _digest(runs):
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


# SHA-256 of every representative of each battery case's runs, and the
# np.linalg.solve calls (one per Newton step) of each run, frozen from the
# Newton loop that evaluated the defect and the Jacobian separately.
BATTERY_DIGESTS = {
    "single-loop-draws": "c0668379b6dab15d43176095c5df365ff10f689e1041dab4e9670e8340a38fa5",
    "unequal-loops": "09494d31f1b6358b7fccbd76a271e4834a71c420bb6b5976560110563936e0b6",
    "k1": "381343e6687fb28f8d2cb6c69996b20a2d4a6448d5aaf071f1253f1fd58bf2b2",
    "k3": "68b7b7fd7760749519881ca79aa97fd1b31d56674337a1fecfab593e1626192b",
}
BATTERY_SOLVES = {
    "single-loop-draws": [25, 25, 26, 26, 28, 28, 32, 32],
    "unequal-loops": [35, 35, 27, 27, 30, 30],
    "k1": [33, 33, 29, 29, 28, 28],
    "k3": [27, 27, 37, 37, 30, 30, 37, 37],
}


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_battery_representatives_frozen(name):
    runs = [_summary(multistart_count(spec, graph, n_starts=n, seed=seed, hints=h))
            for spec, graph, n, seed, h in _battery_runs(name)]
    assert _digest(runs) == BATTERY_DIGESTS[name]


def _counting(monkeypatch, obj, attr):
    """Wrap obj.attr so that each call is counted; returns the call list."""
    calls, inner = [], getattr(obj, attr)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(obj, attr, counted)
    return calls


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_battery_newton_steps_frozen(name, monkeypatch):
    # bit identity alone does not catch a loop that keeps stepping after
    # every row has retired; the number of solves does
    runs = list(_battery_runs(name))
    solves = _counting(monkeypatch, np.linalg, "solve")
    counts = []
    for spec, graph, n, seed, h in runs:
        before = len(solves)
        multistart_count(spec, graph, n_starts=n, seed=seed, hints=h)
        counts.append(len(solves) - before)
    assert counts == BATTERY_SOLVES[name]


def test_newton_step_linearises_once(monkeypatch):
    # one evaluation per Newton step takes (1 + z, 1 + A)**k and
    # (1 + z)**(k - 1); a separate defect and Jacobian took five powers
    runs = [r for name in sorted(BATTERY) for r in _battery_runs(name)]
    solves = _counting(monkeypatch, np.linalg, "solve")
    pows = _counting(monkeypatch, boundary_law, "_pow")
    for spec, graph, n, seed, h in runs:
        solves.clear()
        pows.clear()
        multistart_count(spec, graph, n_starts=n, seed=seed, hints=h)
        assert len(pows) <= 3 * (len(solves) + 1)


# SHA-256 of the battery's "unequal-loops" and "k3" runs with the third
# np.linalg.solve call of each run raising LinAlgError, so that step takes
# the whole-batch pinv fallback.
PINV_DIGEST = "f7814397efe94deb62c4ce99be0036d442660cc02f40df5082333dba5e879c17"


def test_pinv_fallback_frozen(monkeypatch):
    runs = [r for name in ("unequal-loops", "k3") for r in _battery_runs(name)]
    solve, pinvs = np.linalg.solve, _counting(monkeypatch, np.linalg, "pinv")
    summaries = []
    for spec, graph, n, seed, h in runs:
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", flaky)
        before = len(pinvs)
        summaries.append(_summary(multistart_count(spec, graph, n_starts=n, seed=seed, hints=h)))
        assert len(pinvs) - before == 1
    assert _digest(summaries) == PINV_DIGEST


@pytest.mark.parametrize("z", [{1: 1.0}, {2: 1.0}, {}, {3: 1.0}])
def test_hint_missing_a_loop_label_is_bad_input(z):
    spec, graph = three_loop_setup(130.0)
    with pytest.raises(InputError, match="match neither the graph loops"):
        multistart_count(spec, graph, n_starts=50, hints=[BoundaryLawSolution(5.0, z, "hint", 0.0)])


def test_canonical_label_hints_count_as_graph_label_hints():
    # the closed forms label the loops 1 and 2; the chain maps those onto
    # the graph's loops, and the oracle now does too
    spec = ActivitySpec(loop_activities={3: 9.0, 7: 9.0}, tail_mass=112.0)
    graph = graph_from_spec(spec)
    canonical = enumerate_solutions(ThreeLoopProblem(9.0, 130.0))
    moved = [relabel_solution(s, graph) for s in canonical]
    assert {tuple(s.loop_z) for s in moved} == {(3, 7)}
    got = multistart_count(spec, graph, n_starts=60, seed=0, hints=canonical)
    assert got == multistart_count(spec, graph, n_starts=60, seed=0, hints=moved)
    assert got.count == 5
