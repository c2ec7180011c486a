"""Plain references that the tests compare the package against.

Each reads the model the slow, direct way: brute-force Gibbs enumeration
on a tiny tree and the single-site conditional, damped Picard iteration
of the reduced system, the dense kernel and power iteration on it, the
full listed system's residual, spin counts label by label, and the tree
that one tree seed draws alone.  Their inputs come from the tests, so they
read no arguments, hold no caps and refuse nothing.  None of them imports
the closed forms (two_loop, three_loop, rootfind) or the Newton oracle,
the code they check; test_inputs.py holds that by an AST scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from hcgibbs import sampler
from hcgibbs.boundary_law import _aggregate_power, reduce
from hcgibbs.chain import TAIL
from hcgibbs.sampler import TreeSample, level_slices, num_vertices


def dense_matrix(tm) -> np.ndarray:
    """The kernel's row-stochastic matrix over its window's states, built
    from its structural rows: every row steps to the hub but the hub row and
    each loop's stay-or-return row."""
    P = np.zeros((len(tm.states), len(tm.states)))
    P[:, tm.window] = 1.0
    for pos, row in tm.nonunit_rows():
        P[pos] = row
    return P


def total_variation(u, v) -> float:
    """Total variation distance between two probability vectors."""
    return float(0.5 * np.abs(np.asarray(u) - np.asarray(v)).sum())


def power_iteration(tm, start=None, max_iter: int = 10_000):
    """Iterate x <- x P on the dense kernel until successive iterates lie
    within 1e-12 in total variation; returns (x, sweeps).  The start is
    uniform, or the given vector normalised to mass 1."""
    P = dense_matrix(tm)
    n = len(tm.states)
    x = np.full(n, 1.0 / n) if start is None else start / start.sum()
    for sweep in range(1, max_iter + 1):
        y = x @ P
        if total_variation(y, x) < 1e-12:
            return y, sweep
        x = y
    raise AssertionError(f"power iteration did not settle within {max_iter} sweeps")


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of one damped-iteration run: the accepted point and its
    residual, or, when it did not converge, the last iterate."""

    converged: bool
    z: dict
    A: float
    iterations: int
    residual: float


def fixed_point_iterate(spec, graph, init, A_init, damping=0.5, max_iter=100_000):
    """Damped Picard iteration V <- V - damping R(V) on the point V = (z, A),
    with R the reduced system's defect V - F(V); the residual is max |R(V)|.
    It stops at a residual below 1e-11, after max_iter steps, or on a NaN
    residual (the orbit left the domain for good), and reports which."""
    system = reduce(spec, graph)
    V = np.array([*(init[lab] for lab in system.loop_labels), A_init], dtype=float)
    it = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            R = system.defect(V[:-1], V[-1])
            res = float(np.abs(R).max())
            if res < 1e-11 or it == max_iter or math.isnan(res):
                break
            V = V - damping * R
            it += 1
    return FixedPointResult(converged=res < 1e-11,
                            z={lab: float(v) for lab, v in zip(system.loop_labels, V)},
                            A=float(V[-1]), iterations=it, residual=res)


def expand(solution, spec):
    """(z, tail_z_mass): the loop z as given, each listed tail spin's z
    lambda / (1 + A)^k, and the unlisted mass over (1 + A)^k."""
    q = _aggregate_power(solution.A, spec.k)
    z = dict(solution.loop_z)
    z.update({lab: lam / q for lab, lam in spec.explicit_tail.items()})
    return z, spec.tail_mass / q


def residual(spec, graph, z, A) -> float:
    """Max absolute defect of the full listed system at (z, A): the reduced
    system's, and each listed tail spin's |z - lambda / (1 + A)^k|."""
    q = _aggregate_power(A, spec.k)
    tail = (abs(z[lab] - lam / q) for lab, lam in spec.explicit_tail.items())
    return max([reduce(spec, graph).residual_at([z[lab] for lab in graph.loops], A), *tail])


def parents(k: int, depth: int) -> list:
    """Breadth-first parent of every vertex, -1 at the root: the root
    parents the next k + 1 vertices, and each later vertex in turn the next k."""
    n = num_vertices(k, depth)
    return [-1, *[0] * (k + 1), *(1 + (v - k - 2) // k for v in range(k + 2, n))][:n]


def _alphabet(spec) -> dict:
    """Activity of each symbol: the hub, every listed spin, and TAIL, one
    symbol of activity tail_mass, when there is unlisted mass."""
    activity = {0: 1.0, **dict(sorted(spec.listed().items()))}
    if spec.tail_mass > 0.0:
        activity[TAIL] = spec.tail_mass
    return activity


def finite_gibbs_oracle(spec, graph, depth, boundary=None) -> dict:
    """Exact configuration probabilities on a tree of the given depth, by
    enumeration: an admissible configuration weighs the product of its
    activities, an inadmissible one nothing.  boundary pins vertices, by
    breadth-first index, to spins."""
    activity = _alphabet(spec)
    up = parents(spec.k, depth)
    pinned = boundary or {}
    table = {}
    config = [None] * len(up)

    def assign(v: int, weight: float) -> None:
        if v == len(up):
            table[tuple(config)] = weight
            return
        for s in (pinned[v],) if v in pinned else activity:
            if v == 0 or graph.adjacency(config[up[v]], s):
                config[v] = s
                assign(v + 1, weight * activity[s])

    assign(0, 1.0)
    total = sum(table.values())
    return {cfg: w / total for cfg, w in table.items()}


def single_site_conditional(spec, graph, neighbor_spins) -> dict:
    """Law of one spin given its neighbours' spins: each symbol's activity
    times its adjacency to every neighbour, normalised."""
    weights = {s: lam for s, lam in _alphabet(spec).items()
               if all(graph.adjacency(s, t) for t in neighbor_spins)}
    total = sum(weights.values())
    return {s: w / total for s, w in weights.items()}


def spin_counts(samples, level=None) -> dict:
    """Spin counts over one level, or all vertices, of the samples that
    reach it, walked label by label, so keyed in order of first appearance."""
    counts: dict = {}
    for sample in samples:
        spins = sample.spins
        if level is not None:
            if level > sample.depth:
                continue
            spins = spins[level_slices(sample.k, sample.depth)[level]]
        for s in spins:
            counts[s] = counts.get(s, 0) + 1
    return counts


def sample_tree(tm, depth: int, seed: int) -> TreeSample:
    """The tree that tree seed draws from the kernel tm on its own, a block of one."""
    table = sampler._Kernel(tm)
    idx = sampler._sample_block(table, depth, [seed])[0]
    return TreeSample._drawn(depth, seed, idx, table.states, table.k)
