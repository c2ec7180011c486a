"""Tree sampling, reproducibility, and the brute-force finite-volume oracle."""

import dataclasses
import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from hcgibbs import sampler
from hcgibbs.chain import (
    _MAX_STATES,
    TAIL,
    TransitionMatrix,
    minimal_window,
    stationary_closed_form,
    transition_matrix,
)
from hcgibbs.errors import InputError, TooLarge
from hcgibbs.model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    graph_from_spec,
    spec_from_json,
)
from hcgibbs.sampler import (
    _MAX_SAMPLE_VERTICES,
    TreeSample,
    _check_vertex_budget,
    _Kernel,
    edge_admissibility,
    empirical_marginal,
    finite_gibbs_oracle,
    level_counts,
    level_sizes,
    level_slices,
    marginal_tv,
    num_vertices,
    parent_array,
    sample_forest,
    sample_tree,
    single_site_conditional,
)
from hcgibbs.three_loop import ThreeLoopProblem, enumerate_solutions
from hcgibbs.two_loop import TwoLoopProblem, solve_unique
from test_chain import WIDE

SPEC = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
GRAPH = graph_from_spec(SPEC)
SOL = solve_unique(TwoLoopProblem(1.0, 2.0))
# the samplers draw from a kernel; TM has the minimal window, TM5 window 5
TM = transition_matrix(SOL, SPEC, GRAPH)
TM5 = transition_matrix(SOL, SPEC, GRAPH, 5)

SPEC5 = ActivitySpec(loop_activities={1: 0.8, 2: 0.3}, explicit_tail={3: 0.4}, tail_mass=0.6)
GRAPH5 = graph_from_spec(SPEC5)

# two equal loops on both sides of the hub, listed states and unlisted mass
PAIR = ActivitySpec(
    loop_activities={-2: 9.0, 3: 9.0}, explicit_tail={-4: 1.5, 1: 0.5}, tail_mass=3.0
)
PAIR_SOLS = enumerate_solutions(ThreeLoopProblem.from_spec(PAIR))
LISTED = ActivitySpec(loop_activities={1: 0.8}, explicit_tail={-3: 0.4, 2: 0.7}, tail_mass=0.6)
LISTED_SOL = solve_unique(TwoLoopProblem.from_spec(LISTED))
# no unlisted mass: the hub row's cumulative sum ends at 1 - 2**-52, below
# the largest Philox variate 1 - 2**-53, and TAIL is inactive
SHORT = spec_from_json(
    {
        "loops": {"1": 3.0725153012591817},
        "tail": {
            "2": 0.8166622741539723,
            "3": 0.13251083656922213,
            "4": 0.059417630230302,
            "5": 2.4416780152088147,
            "6": 2.739139176060388,
        },
        "tail_mass": 0.0,
    }
)
SHORT_SOL = solve_unique(TwoLoopProblem.from_spec(SHORT))
WIDE_SPEC = spec_from_json(WIDE)
WIDE_SOL = enumerate_solutions(ThreeLoopProblem.from_spec(WIDE_SPEC))[0]
LARGEST_VARIATE = 1.0 - 2.0**-53


@pytest.fixture(scope="module")
def forest():
    return sample_forest(TM5, depth=10, trees=200, seed=22)


def test_tree_geometry():
    assert [num_vertices(2, d) for d in range(4)] == [1, 4, 10, 22]
    assert [num_vertices(1, d) for d in range(4)] == [1, 3, 5, 7]
    assert num_vertices(3, 2) == 17
    assert level_sizes(2, 3) == [1, 3, 6, 12]
    assert sum(level_sizes(2, 10)) == num_vertices(2, 10)
    sl = level_slices(2, 2)
    assert sl == [slice(0, 1), slice(1, 4), slice(4, 10)]
    with pytest.raises(InputError):
        num_vertices(2, -1)
    with pytest.raises(InputError):
        num_vertices(2, 1.5)


def test_parent_array_layout():
    assert parent_array(2, 0).tolist() == [-1]
    assert parent_array(2, 2).tolist() == [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3]
    assert parent_array(1, 2).tolist() == [-1, 0, 0, 1, 2]
    # every non-root parent sits in the previous level
    parents = parent_array(2, 5)
    slices = level_slices(2, 5)
    for d in range(1, 6):
        sl = slices[d]
        prev = slices[d - 1]
        assert all(prev.start <= p < prev.stop for p in parents[sl])
    # a breadth-first walk: the root parents the next k + 1 vertices, and
    # every later vertex, in order, the next k
    for k in range(1, 5):
        for depth in range(6):
            want = [-1]
            for parent in range(num_vertices(k, depth)):
                if len(want) == num_vertices(k, depth):
                    break
                want += [parent] * (k + (parent == 0))
            assert parent_array(k, depth).tolist() == want


def test_sampling_is_deterministic():
    a = sample_tree(TM, depth=6, seed=123)
    b = sample_tree(TM, depth=6, seed=123)
    c = sample_tree(TM, depth=6, seed=124)
    assert a.spins == b.spins
    assert a.spins != c.spins


def test_vertex_stream_is_prefix_stable():
    # vertex v consumes variate v, so deepening a tree never reshuffles
    # the spins already drawn
    shallow = sample_tree(TM, depth=2, seed=5)
    deep = sample_tree(TM, depth=3, seed=5)
    assert deep.spins[: len(shallow.spins)] == shallow.spins


def test_forest_reproducibility(forest):
    again = sample_forest(TM5, depth=10, trees=200, seed=22)
    assert all(x.spins == y.spins for x, y in zip(forest, again))
    # each tree regenerates standalone from its own stored seed
    for t in forest[:5]:
        alone = sample_tree(TM5, depth=10, seed=t.seed)
        assert alone.spins == t.spins
    with pytest.raises(InputError):
        sample_forest(TM, depth=2, trees=0, seed=1)


def test_forest_fully_admissible(forest):
    assert all(edge_admissibility(t, GRAPH) == 1.0 for t in forest)


def test_forest_marginal_near_stationary(forest):
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 5)
    emp = empirical_marginal(forest)
    assert abs(sum(emp.values()) - 1.0) < 1e-12
    assert marginal_tv(emp, sd) <= 0.02
    assert TAIL in emp  # the aggregate symbol is drawn literally


def test_forest_levels_pass_chi_square(forest):
    """Spin frequencies at every well-populated level match the stationary law."""
    sd = stationary_closed_form(SOL, SPEC, GRAPH, 5)
    for level in range(6, 11):
        counts = level_counts(forest, level)
        n = sum(counts.values())
        assert n == 200 * level_sizes(2, 10)[level]
        assert n >= 10_000
        labels = [lab for lab in sd.states if sd.probabilities[sd.index(lab)] * n >= 5.0]
        # nothing outside the positive-probability states may ever appear
        assert set(counts) <= set(labels)
        f_obs = [counts.get(lab, 0) for lab in labels]
        f_exp = [sd.probabilities[sd.index(lab)] * n for lab in labels]
        res = stats.chisquare(f_obs, f_exp)
        assert res.pvalue >= 0.01


def test_depth_zero_tree():
    t = sample_tree(TM, depth=0, seed=3)
    assert len(t.spins) == 1
    assert t.spins[0] in (0, 1, TAIL)
    assert edge_admissibility(t, GRAPH) == 1.0


def test_tree_sample_validation():
    with pytest.raises(InputError):
        TreeSample(1, 0, (0,))  # depth 1 needs 4 spins
    with pytest.raises(InputError):
        TreeSample(0, 0, ("x",))
    with pytest.raises(InputError):
        TreeSample(0, 0, (True,))
    assert TreeSample(0, 0, (TAIL,)).spins == (TAIL,)


def test_tree_sample_json_round_trip():
    t = sample_tree(TM, depth=3, seed=11)
    data = json.loads(json.dumps(t.to_json_dict()))
    back = TreeSample(data["depth"], data["seed"], data["spins"])
    assert back.spins == t.spins
    assert back.depth == t.depth
    assert back.seed == t.seed


@pytest.mark.parametrize("k", [0, -1, True, 2.0])
def test_tree_sample_reads_its_order_by_the_input_rule(k):
    # each spin count is the one the vertex formula gives for that k
    count = {0: 2, -1: 1, True: 3, 2.0: 4}[k]
    with pytest.raises(InputError):
        TreeSample(1, 0, (0,) * count, k=k)


def test_tree_sample_refuses_a_deep_tree_before_building_it():
    # unchecked, the first formats a 6000-digit vertex count (ValueError)
    # and the second computes 2**(10**9)
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        TreeSample(20000, 0, (0,))
    with pytest.raises(TooLarge):
        TreeSample(10**9, 0, [0])
    with pytest.raises(TooLarge):
        TreeSample(2, 0, (0,), k=10**400)
    with pytest.raises(InputError):
        TreeSample(0, 0, 5)
    assert time.perf_counter() - start < 0.5


def test_level_counts_validation(forest):
    assert sum(level_counts(forest, 0).values()) == 200
    with pytest.raises(InputError):
        level_counts([], 0)
    with pytest.raises(InputError):
        level_counts(forest, 11)


def test_marginal_tv_union_semantics():
    assert marginal_tv({1: 1.0}, {2: 1.0}) == 1.0
    assert marginal_tv({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0
    with pytest.raises(InputError):
        marginal_tv({1: 1.0}, [1.0])
    with pytest.raises(InputError):
        empirical_marginal([])


def test_oracle_normalizes():
    table = finite_gibbs_oracle(SPEC5, GRAPH5, depth=1)
    assert abs(sum(table.values()) - 1.0) < 1e-12
    assert table[(0, 0, 0, 0)] > 0.0
    # every enumerated configuration is admissible edge by edge
    for cfg in table:
        assert edge_admissibility(TreeSample(1, 0, cfg), GRAPH5) == 1.0


def test_oracle_depth_zero_weights():
    table = finite_gibbs_oracle(SPEC5, GRAPH5, depth=0)
    assert table[(1,)] / table[(0,)] == pytest.approx(0.8, rel=1e-12)
    assert table[(TAIL,)] / table[(0,)] == pytest.approx(0.6, rel=1e-12)
    assert abs(sum(table.values()) - 1.0) < 1e-12


def test_oracle_boundary_pinning_matches_single_site():
    pattern = (1, 0, TAIL)
    table = finite_gibbs_oracle(SPEC5, GRAPH5, depth=1, boundary={1: 1, 2: 0, 3: TAIL})
    root_law: dict = {}
    for cfg, p in table.items():
        assert cfg[1:] == pattern
        root_law[cfg[0]] = root_law.get(cfg[0], 0.0) + p
    target = single_site_conditional(SPEC5, GRAPH5, pattern)
    assert set(root_law) == set(target)
    for spin, p in target.items():
        assert root_law[spin] == pytest.approx(p, rel=1e-12)


def test_oracle_boundary_validation():
    with pytest.raises(InputError):
        finite_gibbs_oracle(SPEC5, GRAPH5, depth=1, boundary={0: 1})
    with pytest.raises(InputError):
        finite_gibbs_oracle(SPEC5, GRAPH5, depth=1, boundary={1: 99})
    with pytest.raises(InputError):
        finite_gibbs_oracle(SPEC5, GRAPH5, depth=-1)


def test_oracle_size_caps():
    with pytest.raises(TooLarge):
        finite_gibbs_oracle(SPEC5, GRAPH5, depth=3)
    wide = ActivitySpec(
        loop_activities={1: 1.0, 2: 1.0},
        explicit_tail={3: 1.0, 4: 1.0, 5: 1.0},
        tail_mass=1.0,
    )
    with pytest.raises(TooLarge):
        finite_gibbs_oracle(wide, graph_from_spec(wide), depth=0)
    bushy = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0, k=3)
    with pytest.raises(TooLarge):
        finite_gibbs_oracle(bushy, graph_from_spec(bushy), depth=2)


def test_single_site_conditional_values():
    free = single_site_conditional(SPEC, GRAPH, (0, 0, 0))
    assert free[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert free[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert free[TAIL] == pytest.approx(1.0 / 3.0, rel=1e-12)
    beside_loop = single_site_conditional(SPEC, GRAPH, (1,))
    assert beside_loop == {0: 0.5, 1: 0.5}
    beside_tail = single_site_conditional(SPEC, GRAPH, (TAIL,))
    assert beside_tail == {0: 1.0}
    pinched = single_site_conditional(SPEC5, GRAPH5, (1, 2))
    assert pinched == {0: 1.0}
    with pytest.raises(InputError):
        single_site_conditional(SPEC, GRAPH, (7,))


def test_numpy_integer_sizes_are_capped_before_drawing(monkeypatch):
    """Sizes are read as Python ints: in int64, num_vertices(2, 64) wraps to
    -2 and 2 * 2**62 + 2 to a negative state count, both under the caps."""
    def allocate(*args):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr("hcgibbs.sampler._stream", allocate)
    monkeypatch.setattr("hcgibbs.sampler._Kernel", allocate)
    # every kernel array is built in the constructor, after _window_weights reads the window
    monkeypatch.setattr(TransitionMatrix, "__post_init__", allocate)
    with pytest.raises(TooLarge):
        sample_forest(TM, depth=np.int64(64), trees=1, seed=1)
    with pytest.raises(TooLarge):
        sample_forest(TM, depth=2, trees=np.int64(2**62), seed=1)
    with pytest.raises(TooLarge):
        sample_tree(TM, depth=np.int64(64), seed=1)
    for window in (np.int64(2048), np.int64(2**62)):
        with pytest.raises(TooLarge):
            transition_matrix(SOL, SPEC, GRAPH, window)


def _reference_admissibility(sample, graph) -> float:
    spins, parents = sample.spins, parent_array(sample.k, sample.depth)
    if len(spins) == 1:
        return 1.0
    good = sum(graph.adjacency(spins[parents[v]], spins[v]) for v in range(1, len(spins)))
    return good / (len(spins) - 1)


def _reference_counts(samples, level=None) -> dict:
    counts: dict = {}
    for sample in samples:
        spins = sample.spins
        if level is not None:
            spins = spins[level_slices(sample.k, sample.depth)[level]]
        for s in spins:
            counts[s] = counts.get(s, 0) + 1
    return counts


def test_vectorised_statistics_match_label_reference():
    """edge_admissibility, empirical_marginal and level_counts agree with
    label-by-label counting, dict order included, on hand-built trees with
    negative loop labels, TAIL and inadmissible edges."""
    graph = graph_from_spec(PAIR)
    rng = np.random.default_rng(3)
    alphabet = [0, -2, 3, -4, 1, TAIL]
    weights = [0.4, 0.2, 0.2, 0.1, 0.05, 0.05]
    samples = []
    for t in range(40):
        k, depth = 1 + t % 3, t % 5
        drawn = rng.choice(len(alphabet), num_vertices(k, depth), p=weights)
        samples.append(TreeSample(depth, t, [alphabet[i] for i in drawn], k=k))
    fractions = [edge_admissibility(s, graph) for s in samples]
    assert fractions == [_reference_admissibility(s, graph) for s in samples]
    assert min(fractions) < 1.0
    # sampler trees share the kernel's state table; mix them with hand-built ones
    drawn = sample_forest(transition_matrix(PAIR_SOLS[1], PAIR, graph), depth=4, trees=3, seed=9)
    assert all(t.states is drawn[0].states for t in drawn)
    assert [edge_admissibility(t, graph) for t in drawn] == [1.0, 1.0, 1.0]
    for group in (samples, drawn, samples[:7] + list(drawn)):
        ref = _reference_counts(group)
        total = sum(ref.values())
        got = empirical_marginal(group)
        assert list(got.items()) == [(lab, c / total) for lab, c in ref.items()]
        for level in range(5):
            reaching = [s for s in group if level <= s.depth]
            assert list(level_counts(group, level).items()) == list(
                _reference_counts(reaching, level).items()
            )


def test_edge_masks_built_once_per_state_table(monkeypatch):
    # 602 states: loops at 1 and 2, every other label of -300..300 listed
    spec = ActivitySpec(
        loop_activities={1: 9.0, 2: 9.0},
        explicit_tail={lab: 0.1 for lab in range(-300, 301) if lab not in (0, 1, 2)},
        tail_mass=22.2,
    )
    graph = graph_from_spec(spec)
    sol = enumerate_solutions(ThreeLoopProblem.from_spec(spec))[0]
    forest = sample_forest(transition_matrix(sol, spec, graph), depth=3, trees=50, seed=0)
    assert len(forest[0].states) == 602
    calls = 0
    adjacency = AdmissibilityGraph.adjacency

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return adjacency(self, i, j)

    monkeypatch.setattr(AdmissibilityGraph, "adjacency", counted)
    sampler._edge_masks.cache_clear()
    assert [edge_admissibility(t, graph) for t in forest] == [1.0] * 50
    assert 0 < calls <= len(forest[0].states)


# 4096 states at the window cap: the narrow spec (3 active states, its hub
# row in the cut table) and every label of the window listed (the hub's
# children drawn by searchsorted)
CAP = _MAX_STATES // 2 - 1
CAP_LISTED = ActivitySpec(
    loop_activities={1: 9.0, 2: 9.0},
    explicit_tail={lab: 0.01 for lab in range(-CAP, CAP + 1) if lab not in (0, 1, 2)},
    tail_mass=22.2,
)


@pytest.mark.parametrize(
    "sol, spec",
    [(SOL, SPEC), (enumerate_solutions(ThreeLoopProblem.from_spec(CAP_LISTED))[0], CAP_LISTED)],
    ids=["narrow", "listed"],
)
def test_kernel_and_edge_check_stay_linear_at_the_state_cap(sol, spec):
    """One states x states table at the cap is 16 MiB of bool; the bound is 4 MiB."""
    graph = graph_from_spec(spec)
    tree = sample_tree(transition_matrix(sol, spec, graph, CAP), depth=8, seed=1)
    sampler._edge_masks.cache_clear()
    tracemalloc.start()
    try:
        kernel = _Kernel(transition_matrix(sol, spec, graph, CAP))
        assert edge_admissibility(tree, graph) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kernel.states) == _MAX_STATES
    assert kernel.gather_hub == (spec is CAP_LISTED)
    assert peak < 4 * 2**20


def _forest_digest(forest) -> str:
    text = json.dumps([t.to_json_dict() for t in forest], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# digests of the dense-kernel sampler's forests; the structural kernel must
# reproduce them bit for bit
LISTED_WIDE = minimal_window(LISTED) + 3
GOLDEN_FORESTS = [
    (SOL, SPEC, None, 0, "aaa963092ed9dc1340d81584195003884499490f7ee96effe8cab9f13176aff3"),
    (SOL, SPEC, None, 1, "08e50400f4fbee03c710b76ecc8cedc4e3e5e6e2a68439de828e81ec2024daac"),
    (PAIR_SOLS[0], PAIR, None, 0, "7fa993cdffabd5eecc130f1abf1e4b3216e52836eb3a91e83360587f00870b14"),
    (PAIR_SOLS[1], PAIR, None, 1, "c7b4657b0e8a192587d0e78e5793abb03a1cfc5b44417d4502feac5884fe5df6"),
    (PAIR_SOLS[2], PAIR, None, 2, "4fb5dc7b22d8ac1bf964815e6ee51acb68a0aa5f993381c3a48c90a1a76cb07a"),
    (LISTED_SOL, LISTED, LISTED_WIDE, 0, "382cd3be51a44669a2c2121d65c4516f3cada86ebfbbf1496e1143b923f2c01b"),
    (LISTED_SOL, LISTED, LISTED_WIDE, 1, "28bb82cc7a449a85077043cb8f3c7c77eba0ad8a17c15da4967c02862587aec6"),
]


@pytest.mark.parametrize("sol, spec, window, seed, digest", GOLDEN_FORESTS)
def test_forest_spins_frozen(sol, spec, window, seed, digest):
    tm = transition_matrix(sol, spec, graph_from_spec(spec), window)
    forest = sample_forest(tm, depth=6, trees=3, seed=seed)
    assert _forest_digest(forest) == digest


KERNEL_CASES = [
    (SOL, SPEC, 5),
    (LISTED_SOL, LISTED, 6),
    (SHORT_SOL, SHORT, None),
] + [(sol, PAIR, 5) for sol in PAIR_SOLS] + [(WIDE_SOL, WIDE_SPEC, None)]


@pytest.mark.parametrize("sol, spec, window", KERNEL_CASES)
def test_structural_draws_match_dense_rows(sol, spec, window):
    """Every child draw equals the dense inverse CDF, breakpoints included."""
    graph = graph_from_spec(spec)
    kernel = _Kernel(transition_matrix(sol, spec, graph, window))
    # the hub row is in the cut table up to sampler._HUB_TABLE_STATES
    # active states (3 to 7 here); WIDE's 602 are past that bound, and its
    # hub's children are drawn by searchsorted
    assert kernel.gather_hub == (spec is WIDE_SPEC)
    assert kernel.gather_hub == (len(kernel.active) > sampler._HUB_TABLE_STATES)
    window = minimal_window(spec) if window is None else window
    rows = np.cumsum(transition_matrix(sol, spec, graph, window).matrix, axis=1)
    cum_root = np.cumsum(stationary_closed_form(sol, spec, graph, window).probabilities)
    n = len(kernel.states)
    breaks = np.unique(np.concatenate([rows.ravel(), cum_root]))
    u = np.concatenate(
        [
            np.random.default_rng(0).random(2000),
            breaks,
            np.nextafter(breaks, -np.inf),
            np.nextafter(breaks, np.inf),
            [0.0],
        ]
    )
    u = u[(u >= 0.0) & (u < 1.0)]
    dense_of = {}  # the dense draws of each distinct row, as most states share one
    for p in range(n):
        below = u[u < rows[p, -1]]
        key = rows[p].tobytes()
        if key not in dense_of:
            dense_of[key] = np.minimum((rows[p] <= below[:, None]).sum(axis=1), n - 1)
        got = kernel.draw_children(np.full(len(below), p), below)
        assert np.array_equal(got, dense_of[key]), kernel.states[p]
    below = u[u < cum_root[-1]]
    dense = np.minimum(np.searchsorted(cum_root, below, side="right"), n - 1)
    assert np.array_equal(kernel.draw_root(below), dense)


@pytest.mark.parametrize("sol, spec, window", KERNEL_CASES)
def test_kernel_carries_the_closed_form_stationary_law(sol, spec, window):
    graph = graph_from_spec(spec)
    tm = transition_matrix(sol, spec, graph, minimal_window(spec) if window is None else window)
    sd = stationary_closed_form(sol, spec, graph, window)
    assert (tm.stationary.window, tm.stationary.states) == (sd.window, sd.states) == (tm.window, tm.states)
    assert tm.stationary.probabilities.tobytes() == sd.probabilities.tobytes()
    assert np.array_equal(_Kernel(tm).cum_root,
                          np.cumsum(sd.probabilities[np.flatnonzero(tm.active)]))


def test_largest_variate_draws_an_active_state():
    kernel = _Kernel(transition_matrix(SHORT_SOL, SHORT, graph_from_spec(SHORT)))
    assert kernel.cum_hub[-1] < LARGEST_VARIATE
    u = np.array([LARGEST_VARIATE])
    hub = kernel.states.index(0)
    drawn = [kernel.draw_root(u)[0], kernel.draw_children(np.array([hub]), u)[0]]
    for idx in drawn:
        assert kernel.states[idx] in SHORT.listed()


def test_vertex_budget():
    # 3 * 2**22 - 2 vertices fit once, not twice
    _check_vertex_budget(2, 22, 1)
    with pytest.raises(TooLarge):
        _check_vertex_budget(2, 22, 2)
    # a path tree has 2 * depth + 1 vertices
    _check_vertex_budget(1, _MAX_SAMPLE_VERTICES // 2 - 1, 1)
    with pytest.raises(TooLarge):
        _check_vertex_budget(1, _MAX_SAMPLE_VERTICES // 2, 1)
    # refused by the bit-length test, before 2**depth is formed
    with pytest.raises(TooLarge):
        _check_vertex_budget(2, 10**18, 1)
    with pytest.raises(InputError):
        _check_vertex_budget(2, -1, 1)


def test_sampling_never_builds_the_dense_matrix(monkeypatch):
    def dense(self):
        raise AssertionError("the sampler read the dense kernel")

    monkeypatch.setattr(TransitionMatrix, "matrix", property(dense))
    for sol in PAIR_SOLS:
        tm = transition_matrix(sol, PAIR, graph_from_spec(PAIR), 300)
        sample_forest(tm, depth=4, trees=2, seed=0)
    tm = transition_matrix(SOL, SPEC, GRAPH, 2)
    with pytest.raises(AssertionError):
        tm.matrix


def test_sampling_refuses_oversized_requests():
    with pytest.raises(TooLarge):
        sample_tree(TM, depth=200, seed=1)
    with pytest.raises(TooLarge):
        sample_forest(TM, depth=20, trees=6, seed=1)
    with pytest.raises(TooLarge):
        transition_matrix(SOL, SPEC, GRAPH, 100_000)
    with pytest.raises(InputError):
        sample_tree(TM, depth=1.5, seed=1)


def test_forest_seed_is_checked_before_drawing(monkeypatch):
    def allocate(*args):
        raise AssertionError("allocated before the seed check")

    monkeypatch.setattr("hcgibbs.sampler._stream", allocate)
    monkeypatch.setattr("hcgibbs.sampler._Kernel", allocate)
    for seed in (1.5, True, "7", "x", None):
        with pytest.raises(InputError, match="seed must be an integer"):
            sample_forest(TM, depth=2, trees=2, seed=seed)
        with pytest.raises(InputError, match="seed must be an integer"):
            sample_tree(TM, depth=2, seed=seed)


def test_forest_accepts_a_numpy_integer_seed():
    a = sample_forest(TM, depth=3, trees=2, seed=np.int64(7))
    b = sample_forest(TM, depth=3, trees=2, seed=7)
    assert [t.index.tobytes() for t in a] == [t.index.tobytes() for t in b]


@pytest.mark.parametrize("kernel, match", [
    (SOL, "kernel must be a TransitionMatrix, got BoundaryLawSolution"),
    (None, "got NoneType"),
    (TM.hub_row, "got ndarray"),
], ids=["solution", "None", "array"])
def test_only_a_built_kernel_is_sampled(monkeypatch, kernel, match):
    def allocate(*args):
        raise AssertionError("drew or compiled before the kernel check")

    monkeypatch.setattr("hcgibbs.sampler._stream", allocate)
    monkeypatch.setattr("hcgibbs.sampler._Kernel", allocate)
    with pytest.raises(InputError, match=match):
        sample_forest(kernel, depth=2, trees=2, seed=1)
    with pytest.raises(InputError, match=match):
        sample_tree(kernel, depth=2, seed=1)


def test_the_tree_order_is_read_from_the_kernel():
    assert TransitionMatrix(TM.window, TM.weights, TM.loops).k == TM.k == SPEC.k == 2
    # a hand-built kernel's k is read by the input rule, as a TreeSample's
    assert type(dataclasses.replace(TM, k=np.int64(3)).k) is int
    for k in ("x", 0, True, 2.5):
        with pytest.raises(InputError, match="tree order k"):
            dataclasses.replace(TM, k=k)
    spec = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0, k=3)
    graph = graph_from_spec(spec)
    # the oracle's one fixed point of this k = 3 spec
    sol = BoundaryLawSolution(0.9397200991657023, {1: 0.802700465453801}, "k3", 0.0)
    tm = transition_matrix(sol, spec, graph)
    assert tm.k == 3
    tree = sample_tree(tm, depth=2, seed=1)
    forest = sample_forest(tm, depth=3, trees=2, seed=1)
    assert (tree.k, len(tree.index)) == (3, num_vertices(3, 2)) == (3, 17)
    assert [(t.k, len(t.index)) for t in forest] == [(3, num_vertices(3, 3))] * 2
    assert edge_admissibility(tree, graph) == 1.0


@pytest.mark.parametrize("sol, spec", [(SOL, SPEC), (WIDE_SOL, WIDE_SPEC)], ids=["narrow", "wide"])
def test_forest_does_not_depend_on_the_block_size(monkeypatch, sol, spec):
    """Each tree reads its own stream, however the trees are grouped into blocks."""
    tm, depth, trees = transition_matrix(sol, spec, graph_from_spec(spec)), 12, 12
    n = num_vertices(spec.k, depth)
    assert trees > 2 * (sampler._BLOCK_VERTICES // n)  # the default spans at least 3 blocks
    forests = []
    for block in (n, sampler._BLOCK_VERTICES, 1 << 24):
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", block)
        forests.append(sample_forest(tm, depth=depth, trees=trees, seed=3))
    alone = [sample_tree(tm, depth=depth, seed=t.seed).index for t in forests[0]]
    for forest in forests:
        assert [t.index.tobytes() for t in forest] == [idx.tobytes() for idx in alone]


def test_forest_memory_is_bounded_by_the_block():
    """Beyond the index arrays it returns, a forest holds one block's temporaries."""
    tracemalloc.start()
    try:
        forest = sample_forest(TM, depth=12, trees=120, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(t.index.nbytes for t in forest)
    assert held == 120 * num_vertices(2, 12) * 8  # 11.25 MiB
    assert peak - held < 4 * 2**20
