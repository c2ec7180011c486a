"""Sampling of tree configurations driven by the windowed spin chain.

The samplers take a TransitionMatrix, as chain.transition_matrix builds
for one solution, and read nothing else: its rows, its stationary law and
the tree order k it was built for.  A configuration on the rooted Cayley
tree is drawn top down: the root spin comes from the stationary
distribution, and every child spin from the transition-matrix row of its
parent's spin.  Because the root law is stationary, the marginal at every
vertex is the same distribution, a sharp statistical target for tests.

The kernel is used in its structural form, never as a dense matrix: a
child of the hub is drawn by inverse CDF over the hub row, a child of a
loop spin stays or steps to 0 by one threshold compare, and any other
child is 0.  _Kernel compiles that form into a cut table of O(states)
entries: each child spin is one lookup, to[p, #(cut[:, p] <= u)], at its
parent state p and variate u.  The hub's row is in the table while at
most _HUB_TABLE_STATES states are active; past that, the hub's children
are drawn by searchsorted over its cumulative row.  The draws are those
of the dense cumulative rows.

Randomness comes from a counter-based generator (Philox) keyed by the tree
seed.  The stream-split rule is: the vertex with breadth-first index v
consumes variate number v of the keyed stream.  Any worker can therefore
reproduce any subtree independently, and samples are bit-identical for a
fixed seed regardless of thread count.  A forest is drawn in blocks of
trees, level by level: one root draw for the block, then one child draw
per level over every tree of the block.  Each tree still reads its own
keyed stream, so the output does not depend on how the trees are grouped,
and sample_tree is a block of one.  The tail aggregate is sampled as
the literal symbol "TAIL" and kept unresolved; every unlisted spin behaves
identically, so statistics treat the aggregate as one state.

A brute-force finite-volume oracle enumerates all admissible configurations
on tiny trees and returns their exact probabilities, for cross-checking
conditionals and normalization.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .chain import (
    TAIL,
    StationaryDistribution,
    TransitionMatrix,
    _as_transition_matrix,
    stationary_closed_form,  # unused here, but bench/tracing.py patches this name
    transition_matrix,  # unused here, but bench/tracing.py patches this name
)
from .errors import InputError
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    _as_int,
    _as_kind,
    _as_list,
    _as_nonnegative,
    _items,
    _shown,
    check_spec_graph,
)

_KEY_SPACE = 1 << 128

# enumeration caps for the brute-force oracle
_MAX_SYMBOLS = 6
_MAX_DEPTH = 2
_MAX_VERTICES = 10

# most vertices one sample_tree/sample_forest call may draw, over all trees
_MAX_SAMPLE_VERTICES = 2**24

# most vertices sample_forest draws in one block (at least one tree).  Of
# 2**15, 2**16, 2**17 and one block per forest, 2**16 drew `sample` fastest;
# a block that grows with the forest also grows its per-level temporaries
_BLOCK_VERTICES = 1 << 16

# most active states whose hub row _Kernel compiles into its cut table.
# Each cut column costs every child a compare, so a long hub row is drawn
# by searchsorted instead.  On depth-12 forests of 40 trees the table drew
# faster with up to 9 active states and slower from 11 on
_HUB_TABLE_STATES = 8


def _tree_shape(k, depth) -> tuple[int, int, int]:
    """The tree order k read as an integer >= 1, depth as one >= 0, and the
    tree's vertex count, which over _MAX_SAMPLE_VERTICES is TooLarge.  A
    tree of order k >= 2 has over 2**depth vertices, and one of depth >= 1
    over k, so a depth of at least the cap's bit length, or an order of at
    least the cap, is refused before k**depth is formed."""
    k, depth = _as_int(k, "tree order k", 1), _as_int(depth, "depth", 0)
    if k > 1:
        _as_int(depth, "depth", most=_MAX_SAMPLE_VERTICES.bit_length() - 1)
    if depth > 0:
        _as_int(k, "tree order k", most=_MAX_SAMPLE_VERTICES - 1)
    n = 1 + 2 * depth if k == 1 else 1 + (k + 1) * (k**depth - 1) // (k - 1)
    return k, depth, _as_int(n, "sampled vertices", most=_MAX_SAMPLE_VERTICES)


def num_vertices(k: int, depth: int) -> int:
    """Vertices of the rooted Cayley tree: root plus k+1 branches of depth n."""
    return _tree_shape(k, depth)[2]


def level_sizes(k: int, depth: int) -> list[int]:
    """Vertex counts per level: 1 at the root, then (k+1)*k**(d-1)."""
    k, depth, _ = _tree_shape(k, depth)
    sizes = [1]
    for d in range(1, depth + 1):
        sizes.append((k + 1) * k ** (d - 1))
    return sizes


def parent_array(k: int, depth: int) -> np.ndarray:
    """Breadth-first parent index of every vertex; the root gets -1.

    The root's children occupy indices 1..k+1, and every later vertex v is
    one of the k children of vertex 1 + (v-k-2)//k.
    """
    k, depth, n = _tree_shape(k, depth)
    parents = np.zeros(n, dtype=np.int64)
    parents[0] = -1
    parents[k + 2 :] = 1 + np.arange(n - k - 2) // k
    return parents


def level_slices(k: int, depth: int) -> list[slice]:
    """Breadth-first index ranges of each level."""
    out = []
    offset = 0
    for size in level_sizes(k, depth):
        out.append(slice(offset, offset + size))
        offset += size
    return out


class TreeSample:
    """One sampled configuration, spins in breadth-first vertex order.

    index is an int64 array giving each vertex's position in the state
    table states; trees of one forest share their kernel's table.  spins,
    the tuple of labels, is built from the two on first read and cached.
    A tree built by hand from labels has every spin checked, its depth and
    order k read as integers >= 0 and >= 1, and its size held to the
    sampler's vertex cap before any k**depth is computed; the sampler
    builds its trees from the index arrays it drew, unchecked.
    """

    def __init__(self, depth: int, seed: int, spins, k: int = 2) -> None:
        depth, seed = _as_int(depth, "depth", 0), _as_int(seed, "seed")
        k = _as_int(k, "tree order k", 1)
        want = _check_vertex_budget(k, depth, 1)
        spins = tuple(
            s if s == TAIL else _as_int(s, f"spin other than {TAIL!r}")
            for s in _as_list(spins, "spins")
        )
        if len(spins) != want:
            raise InputError(
                f"depth {depth} on a tree of order {_shown(k)} needs {want} spins, got {len(spins)}"
            )
        states = tuple(dict.fromkeys(spins))
        row = {lab: i for i, lab in enumerate(states)}
        self.depth, self.seed, self.k, self.states = depth, seed, k, states
        self.index = np.array([row[s] for s in spins], dtype=np.int64)
        self.spins = spins

    @classmethod
    def _drawn(cls, depth: int, seed: int, index: np.ndarray, states: tuple, k: int) -> TreeSample:
        tree = cls.__new__(cls)
        tree.depth, tree.seed, tree.k, tree.states, tree.index = depth, seed, k, states, index
        return tree

    @cached_property
    def spins(self) -> tuple:
        return tuple(map(self.states.__getitem__, self.index.tolist()))

    def to_json_dict(self) -> dict:
        return {"depth": self.depth, "seed": self.seed, "spins": list(self.spins)}


class _Kernel:
    """Structural form of (X, P) for inverse-CDF sampling, compiled to a cut table.

    cum_root and cum_hub sum X and the hub row over the active states only,
    which equals the dense cumulative rows there.  A child of parent state p
    with variate u is to[p, j], where j counts the cuts cut[:, p] at or
    below u.  A loop has one finite cut, at the end of [0, 1) on which it
    stays: at 1 - stay right of the hub, with to[p] = [hub, p], and at stay
    left of it, with to[p] = [p, hub].  Every other cut is +inf, so any
    other state steps to the hub.  With at most _HUB_TABLE_STATES active
    states (gather_hub false) the hub's cuts are cum_hub[:-1] and its row of
    to lists the active states.  Past that bound the table has one cut
    column, and the hub's children are drawn by searchsorted over cum_hub.
    Both arrays hold O(states) entries.
    """

    def __init__(self, tm: TransitionMatrix) -> None:
        self.states = tm.states
        self.k = tm.k
        self.hub = tm.index(0)
        self.active = np.flatnonzero(tm.active)
        self.cum_root = np.cumsum(tm.stationary.probabilities[self.active])
        self.cum_hub = np.cumsum(tm.hub_row[self.active])
        self.gather_hub = len(self.active) > _HUB_TABLE_STATES
        cuts = 1 if self.gather_hub else max(1, len(self.active) - 1)
        self.cut = np.full((cuts, len(self.states)), np.inf)
        self.to = np.full((len(self.states), cuts + 1), self.hub, dtype=np.int64)
        for lab, stay in tm.stays.items():
            p = tm.index(lab)
            if lab > 0:
                self.cut[0, p], self.to[p, :2] = 1.0 - stay, (self.hub, p)
            else:
                self.cut[0, p], self.to[p, :2] = stay, (p, self.hub)
        if not self.gather_hub:
            self.cut[: len(self.active) - 1, self.hub] = self.cum_hub[:-1]
            self.to[self.hub, : len(self.active)] = self.active

    def _inverse_cdf(self, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
        # a variate at or past the last sum takes the last active state
        idx = np.searchsorted(cum, u, side="right")
        return self.active[np.minimum(idx, len(self.active) - 1)]

    def draw_root(self, u: np.ndarray) -> np.ndarray:
        return self._inverse_cdf(self.cum_root, u)

    def draw_children(self, parent_idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Child states for parent states and variates of one shape."""
        key = parent_idx * self.to.shape[1]
        for cut in self.cut:
            key += cut.take(parent_idx) <= u
        out = self.to.take(key)
        if self.gather_hub:
            from_hub = np.flatnonzero(parent_idx == self.hub)
            out.put(from_hub, self._inverse_cdf(self.cum_hub, u.take(from_hub)))
        return out


def _stream(seed, count: int, out: np.ndarray) -> np.ndarray:
    """The first count variates of seed's keyed stream, written into out."""
    gen = np.random.Generator(np.random.Philox(key=_as_int(seed, "seed") % _KEY_SPACE))
    return gen.random(count, out=out)


def _repeat_each(a: np.ndarray, times: int) -> np.ndarray:
    """np.repeat(a, times, axis=-1), as one strided copy per repeat.

    On a level of 15,360 parents it took 0.7 ns per output element, and
    np.repeat 2.0 ns.
    """
    out = np.empty((*a.shape, times), a.dtype)
    for j in range(times):
        out[..., j] = a
    return out.reshape(*a.shape[:-1], -1)


def _sample_block(kernel: _Kernel, depth: int, seeds) -> np.ndarray:
    """Index arrays of one tree per seed, as the rows of one block.

    Row t reads the keyed stream of seeds[t] alone, so a tree's spins do not
    depend on the other trees of its block.  The block is drawn level by
    level: one root draw, then one child draw per level over every row.
    """
    n = num_vertices(kernel.k, depth)
    u = np.empty((len(seeds), n))
    for row, seed in zip(u, seeds):
        # drawn in place: a temporary array per tree raised the peak RSS
        # of the bench's sample-narrow workload by about 2.6 MB
        _stream(seed, n, row)
    idx = np.empty((len(seeds), n), dtype=np.int64)
    idx[:, 0] = kernel.draw_root(u[:, 0])
    levels = level_slices(kernel.k, depth)
    for d in range(1, depth + 1):
        # each vertex of level d-1 parents the next k vertices of level d,
        # the root k + 1
        above = _repeat_each(idx[:, levels[d - 1]], kernel.k + (d == 1))
        idx[:, levels[d]] = kernel.draw_children(above, u[:, levels[d]])
    return idx


def _check_vertex_budget(k: int, depth: int, trees: int) -> int:
    """The vertex count of the trees, read by _as_int against _MAX_SAMPLE_VERTICES, after
    _tree_shape has held one tree to it."""
    return _as_int(trees * num_vertices(k, depth), "sampled vertices", most=_MAX_SAMPLE_VERTICES)


def sample_tree(kernel: TransitionMatrix, depth: int, seed: int) -> TreeSample:
    """Draw one configuration of the given depth from kernel, deterministically in seed."""
    kernel = _as_transition_matrix(kernel)
    depth, seed = _as_int(depth, "depth", 0), _as_int(seed, "seed")
    _check_vertex_budget(kernel.k, depth, 1)
    table = _Kernel(kernel)
    idx = _sample_block(table, depth, [seed])[0]
    return TreeSample._drawn(depth, seed, idx, table.states, table.k)


def sample_forest(kernel: TransitionMatrix, depth: int, trees: int,
                  seed: int) -> tuple[TreeSample, ...]:
    """Draw independent trees from kernel; tree t is reproducible from its own seed.

    Per-tree seeds are spawned deterministically from the forest seed.  The
    trees are drawn in blocks of at most _BLOCK_VERTICES vertices (one tree
    when a tree is larger), and each tree's index array is a row of its
    block.
    """
    kernel = _as_transition_matrix(kernel)
    depth, trees = _as_int(depth, "depth", 0), _as_int(trees, "trees", 1)
    seed = _as_int(seed, "seed")
    _check_vertex_budget(kernel.k, depth, trees)
    table = _Kernel(kernel)
    spawn = np.random.SeedSequence(seed % _KEY_SPACE)
    tree_seeds = spawn.generate_state(trees, np.uint64).tolist()
    per_block = max(1, _BLOCK_VERTICES // num_vertices(table.k, depth))
    forest = []
    for start in range(0, trees, per_block):
        seeds = tree_seeds[start : start + per_block]
        block = _sample_block(table, depth, seeds)
        forest.extend(
            TreeSample._drawn(depth, t, idx, table.states, table.k) for t, idx in zip(seeds, block)
        )
    return tuple(forest)


@lru_cache(maxsize=1)
def _edge_masks(states: tuple, graph: AdmissibilityGraph) -> tuple[np.ndarray, int]:
    """Mate table and hub position of a state table, built once for the trees sharing it.

    mate is -1 on the hub, p on a state p with a self-loop and -2 on every
    other state; the hub position is -1 when 0 is not in the table.  Both
    are linear in the number of states.
    """
    mate = np.array(
        [-1 if s == 0 else p if graph.adjacency(s, s) == 1 else -2 for p, s in enumerate(states)],
        dtype=np.int64,
    )
    mate.flags.writeable = False
    return mate, states.index(0) if 0 in states else -1


def edge_admissibility(sample: TreeSample, graph: AdmissibilityGraph) -> float:
    """Fraction of tree edges whose endpoint spins are admissible.

    An edge is admissible when either end is the hub, or both ends hold the
    same spin and that spin's self-adjacency, graph.adjacency(s, s), is 1:
    that is, when the parent's mate is the child or -1, or the child is the
    hub.
    """
    sample, graph = _as_kind(sample, TreeSample, "sample"), _as_kind(graph, AdmissibilityGraph, "graph")
    edges = len(sample.index) - 1
    if edges == 0:
        return 1.0
    mate, hub = _edge_masks(sample.states, graph)
    # in breadth-first order the root parents the next k + 1 vertices, and
    # every vertex above the last level but the root the next k after those
    idx, k = sample.index, sample.k
    inner = idx[1 : len(idx) - level_sizes(k, sample.depth)[-1]]
    families = [(_repeat_each(mate.take(idx[:1]), k + 1), idx[1 : k + 2]),
                (_repeat_each(mate.take(inner), k), idx[k + 2 :])]
    good = sum(int(np.count_nonzero((m == c) | (m == -1) | (c == hub))) for m, c in families)
    return good / edges


def _tally(samples, level: int | None = None) -> dict:
    """Spin counts over one level, or all vertices, of every sample.

    Labels are keyed in order of first appearance, vertex by vertex, as a
    count that walked every spin would key them.  marginal_tv sums with
    math.fsum, so its value does not depend on that order; the order is
    kept because README documents it for empirical_marginal and
    level_counts, and test_vectorised_statistics_match_label_reference
    pins it.
    """
    counts: dict = {}
    for sample in samples:
        idx = sample.index
        if level is not None:
            idx = idx[level_slices(sample.k, sample.depth)[level]]
        per_state = np.bincount(idx, minlength=len(sample.states))
        present = np.flatnonzero(per_state).tolist()
        new = [i for i in present if sample.states[i] not in counts]
        if new:
            is_new = np.zeros(len(sample.states), dtype=bool)
            is_new[new] = True
            for i in dict.fromkeys(idx[is_new[idx]].tolist()):
                counts[sample.states[i]] = 0
        for i in present:
            counts[sample.states[i]] += int(per_state[i])
    return counts


def _as_samples(samples) -> list:
    """The samples as a nonempty list, each read as a TreeSample."""
    samples = _as_list(samples, "samples")
    if not samples:
        raise InputError("no samples")
    return [_as_kind(sample, TreeSample, "sample") for sample in samples]


def level_counts(samples, level: int) -> dict:
    """Spin counts over the vertices at one depth level of every sample."""
    level = _as_int(level, "level", 0)
    reaching = [sample for sample in _as_samples(samples) if level <= sample.depth]
    if not reaching:
        raise InputError(f"no sample reaches level {_shown(level)}")
    return _tally(reaching, level)


def empirical_marginal(samples) -> dict:
    """Relative spin frequencies over all vertices of all samples."""
    counts = _tally(_as_samples(samples))
    total = sum(counts.values())
    return {lab: c / total for lab, c in counts.items()}


def _as_frequencies(mapping, name: str) -> dict:
    """A mapping of labels to finite reals >= 0, each value read by _as_nonnegative."""
    return {lab: _as_nonnegative(p, f"{name} at {_shown(lab)}") for lab, p in _items(mapping, name)}


def _as_marginal(dist) -> dict:
    if isinstance(dist, StationaryDistribution):
        return {lab: float(p) for lab, p in zip(dist.states, dist.probabilities)}
    return _as_frequencies(dist, "distribution")


def marginal_tv(empirical: dict, dist) -> float:
    """Total variation between a frequency mapping and a distribution.

    The sum is math.fsum's correctly rounded one, so it does not depend on
    the order of the labels (a set's order follows the string hash seed).
    """
    empirical = _as_frequencies(empirical, "empirical frequencies")
    target = _as_marginal(dist)
    labels = set(empirical) | set(target)
    return 0.5 * math.fsum(abs(empirical.get(lab, 0.0) - target.get(lab, 0.0)) for lab in labels)


def _oracle_alphabet(spec: ActivitySpec, graph: AdmissibilityGraph) -> tuple[list, dict]:
    """Spin alphabet and activity table for brute-force enumeration, of a
    spec and a graph that check_spec_graph pairs."""
    check_spec_graph(spec, graph)
    activity = {0: 1.0}
    for lab, lam in sorted(spec.listed().items()):
        activity[lab] = lam
    alphabet = list(activity)
    if spec.tail_mass > 0.0:
        alphabet.append(TAIL)
        activity[TAIL] = spec.tail_mass
    _as_int(len(alphabet), "enumeration alphabet size", most=_MAX_SYMBOLS)
    return alphabet, activity


def finite_gibbs_oracle(
    spec: ActivitySpec,
    graph: AdmissibilityGraph,
    depth: int,
    boundary: dict | None = None,
) -> dict:
    """Exact configuration probabilities on a tiny tree, by enumeration.

    The alphabet is the hub plus every listed spin, plus the tail symbol
    when unlisted mass is present (one symbol of activity tail_mass).  The
    probability of an admissible configuration is proportional to the
    product of its activities; inadmissible ones are dropped.  boundary
    optionally pins leaf vertices (breadth-first indices at the last level)
    to fixed spins.  The graph must carry the spec's loops
    (check_spec_graph).  Raises TooLarge beyond the enumeration caps.
    """
    alphabet, activity = _oracle_alphabet(spec, graph)
    depth = _as_int(depth, "enumeration depth", 0, most=_MAX_DEPTH)
    n = _as_int(num_vertices(spec.k, depth), "enumerated vertices", most=_MAX_VERTICES)
    parents = parent_array(spec.k, depth)
    leaf_start = level_slices(spec.k, depth)[depth].start

    pinned: dict[int, object] = {}
    if boundary is not None:
        for v, s in _items(boundary, "boundary"):
            v = _as_int(v, "boundary vertex")
            if not leaf_start <= v < n:
                raise InputError(f"boundary vertex {_shown(v)} is not a leaf index")
            if s not in alphabet:
                raise InputError(f"boundary spin {_shown(s)} is not in the alphabet")
            pinned[v] = s

    table: dict[tuple, float] = {}
    config: list = [None] * n

    def assign(v: int, weight: float) -> None:
        if v == n:
            table[tuple(config)] = weight
            return
        options = (pinned[v],) if v in pinned else alphabet
        parent_spin = config[parents[v]] if v > 0 else None
        for s in options:
            if v > 0 and not graph.adjacency(parent_spin, s):
                continue
            config[v] = s
            assign(v + 1, weight * activity[s])
        config[v] = None

    assign(0, 1.0)
    total = sum(table.values())
    if not total > 0.0:
        raise InputError("no admissible configuration under the given boundary")
    return {cfg: w / total for cfg, w in table.items()}


def single_site_conditional(spec: ActivitySpec, graph: AdmissibilityGraph, neighbor_spins) -> dict:
    """Distribution of one spin given its neighbours' spins.

    The weight of candidate i is its activity times the product of
    adjacency indicators with each neighbour, renormalized.  The hub is
    adjacent to everything, so the conditional always exists.
    """
    alphabet, activity = _oracle_alphabet(spec, graph)
    neighbors = _as_list(neighbor_spins, "neighbour spins")
    for s in neighbors:
        if s not in alphabet:
            raise InputError(f"neighbour spin {_shown(s)} is not in the alphabet")
    weights = {}
    for i in alphabet:
        if all(graph.adjacency(i, s) for s in neighbors):
            weights[i] = activity[i]
    total = sum(weights.values())
    return {i: w / total for i, w in weights.items()}
