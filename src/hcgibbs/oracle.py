"""Independent numerical solver: batched Newton multistart.

This module never touches the closed-form branch algebra.  It solves the
reduced consistency system directly, so agreement with the explicit
solvers is a genuine cross-check.  One vectorised damped Newton runs from
every random start at once; Newton converges to repelling fixed points of
the consistency map as readily as to attracting ones, so discovery needs
no hints.  Hint points (e.g. closed-form solutions) are optional extra
starts: a genuine hint is confirmed, a wrong one is rejected or pulled onto
a genuine solution.  fixed_point_iterate keeps the plain damped Picard
iteration as a single-start instrument; it steps on the same defect
(ReducedSystem.defect) that Newton reads.

Confirmed points are grouped by one greedy leader rule (_leaders): taken
in order, a point joins the first earlier leader within a relative
max-norm tolerance, or else leads a new group.  It runs twice.  First on
the confirmed points in order of residual, at CLUSTER_TOL: each group is a
cluster and its leader, the lowest-residual point, represents it.  Then,
with two loop vertices only, on the near-diagonal cluster leaders at
PITCHFORK_TOL: this is the pitchfork merge.  A group that absorbed another
cluster is represented by its member point nearest the diagonal (ties by
residual, then by cluster); every other cluster keeps its leader.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .boundary_law import ReducedSystem, reduce
from .errors import InputError
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    _as_float,
    _as_int,
    _as_positive,
    _shown,
    relabel_solution,
)

TOL = 1e-11  # residual gate for a confirmed point
MAX_STEPS = 60  # Newton steps per start
STALL_STEPS = 10  # steps without a new best residual after which a start retires
MAX_HALVINGS = 40  # step halvings that may keep a start in the positive orthant
CLUSTER_TOL = 1e-6  # relative distance under which two points are one solution
HINT_JITTER = 1e-4  # relative spread of the three jittered copies of each hint
_MAX_STARTS = 100_000  # most random starts one multistart_count call may run
_TINY = np.finfo(float).tiny  # least positive normal double

# Distinctness resolution at a symmetric branch point.  Exactly where the
# asymmetric solution family is born from the symmetric one, the defect is
# only cubically flat along the symmetry-breaking direction (quartically
# at the tangency of the two thresholds), so points far from the diagonal
# still pass the residual gate and Newton's method cannot pull them in
# (the Jacobian is singular there and float noise dominates the step,
# drifting even an exact symmetric start off the diagonal).  Observed
# satellite distances reach ~1e-3 at cubic branch points and ~2.3e-2 at
# the quartic tangency, while genuinely distinct asymmetric pairs away
# from the thresholds sit at least ~0.28 apart.  Clusters whose leaders
# lie within this relative radius of the diagonal are regrouped by the
# leader rule at this radius and counted once per group; asymmetry below
# this radius is not certifiable in double precision.
PITCHFORK_TOL = 5e-2


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of one damped-iteration run.

    Converged runs report the accepted point and its residual; failed runs
    report the final iterate so callers can inspect where the orbit went.
    """

    converged: bool
    z: dict[int, float]
    A: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ClusterPoint:
    """Representative of one cluster of numerically confirmed fixed points."""

    z: dict[int, float]
    A: float
    residual: float
    members: int
    source: str  # start of the representative: "newton" (random) or "hint"


@dataclass(frozen=True)
class MultistartResult:
    count: int
    representatives: tuple[ClusterPoint, ...]


def fixed_point_iterate(spec: ActivitySpec, graph: AdmissibilityGraph, init: dict[int, float],
                        A_init: float, damping: float = 0.5, max_iter: int = 100_000,
                        tol: float = 1e-11) -> FixedPointResult:
    """Damped Picard iteration V <- V - theta R(V) on the point V = (z, A).

    R is ReducedSystem.defect, V - F(V), as in _newton; the residual is
    max |R(V)|.  init maps each loop vertex to a positive starting value;
    A_init starts the aggregate.  Non-convergence (blow-up, bounded
    oscillation, or an exhausted budget) is reported in the result, never
    raised.  An init that already solves the system returns with
    iterations == 0.  max_iter must be an integer >= 0 and tol a finite
    number > 0: any other budget or gate could never end the loop.
    """
    system = reduce(spec, graph)
    damping = _as_float(damping, "damping")
    if not 0.0 < damping <= 1.0:
        raise InputError(f"damping must lie in (0, 1], got {damping}")
    max_iter = _as_int(max_iter, "max_iter", 0)
    tol = _as_positive(tol, "tol")
    if not isinstance(init, Mapping):
        raise InputError(f"init must map each loop vertex to a value, got {_shown(init)}")
    missing = set(system.loop_labels) - set(init)
    if missing:
        raise InputError(f"init is missing loop components {_shown(sorted(missing))}")
    V = np.array([*(_as_positive(init[lab], f"init[{_shown(lab)}]") for lab in system.loop_labels),
                  _as_positive(A_init, "A_init")])
    it = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            R = system.defect(V[:-1], V[-1])
            res = float(np.abs(R).max())
            # NaN means the orbit left the domain for good (inf - inf)
            if res < tol or it == max_iter or math.isnan(res):
                break
            V = V - damping * R
            it += 1
    return FixedPointResult(converged=res < tol,
                            z={lab: float(v) for lab, v in zip(system.loop_labels, V)},
                            A=float(V[-1]), iterations=it, residual=res)


def _newton(system: ReducedSystem, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the defect from every row of V (shape (n, m+1)) at once.

    Each step linearises the system once at all live rows
    (ReducedSystem.linearise), solves J step = defect for the rows still
    live in one batched np.linalg.solve (np.linalg.pinv for the whole batch
    if any J is singular), and halves each row's step until the row stays
    positive.  A row retires once its best residual is below TOL and the
    last step did not halve it (double roots converge only linearly, so
    polishing goes on while each step still gains a factor two), once it
    has gone STALL_STEPS steps without a new best residual, once its defect
    or step is non-finite, or once MAX_HALVINGS cannot keep it positive.
    The live rows' points and bookkeeping are compacted only on a step
    where some row retires, and the loop ends as soon as none is live.
    Returns the best point and residual of each row.
    """
    best_v, best_r = V.copy(), np.full(len(V), np.inf)
    live, v = np.arange(len(V)), V  # each live row's index in V, and its point
    was = best_r.copy()  # each live row's best residual
    gained = np.zeros(len(V), dtype=int)  # step of each live row's last new best
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(MAX_STEPS + 1):
            R, J = system.linearise(v)
            r = _fold_columns(np.maximum, np.abs(R))
            better = r < was
            won = live[better]
            best_r[won] = r[better]
            best_v[won] = v[better]
            gained[better] = it
            now = np.fmin(r, was)  # a NaN residual is no new best
            polished = (now < TOL) & (r >= 0.5 * was)
            keep = np.isfinite(r) & ~polished & (it - gained < STALL_STEPS)
            was = now
            if not keep.all():
                live, v, R, J, was, gained = _compress(keep, live, v, R, J, was, gained)
                if live.size == 0:
                    break
            if it == MAX_STEPS:
                break
            try:
                step = np.linalg.solve(J, R[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = (np.linalg.pinv(J) @ R[..., None])[..., 0]
            # halve each step until the row stays positive: the first power
            # of two below v_i / step_i over the coordinates moving down.
            # A ratio above 1 needs none; clipped to 2, frexp gives it none.
            ratio = _fold_columns(np.minimum, np.where(step > 0.0, v / step, np.inf))
            mant, expo = np.frexp(np.minimum(np.maximum(ratio, _TINY), 2.0))
            halvings = 1 - expo + (mant == 0.5)
            keep = np.isfinite(step).all(axis=1) & (halvings <= MAX_HALVINGS)
            if not keep.all():
                live, v, step, halvings, was, gained = _compress(
                    keep, live, v, step, halvings, was, gained)
                if live.size == 0:
                    break
            v = v - np.ldexp(step, -halvings[:, None])
    return best_v, best_r


def _fold_columns(ufunc, X: np.ndarray) -> np.ndarray:
    """ufunc.reduce(X, axis=1) as a fold over X's few columns, in the same
    order and so with the same bits; for two or three columns numpy's
    reduction along the short axis takes about twice as long."""
    out = X[:, 0]
    for j in range(1, X.shape[1]):
        out = ufunc(out, X[:, j])
    return out


def _compress(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The rows of each array where keep is true."""
    return [a.compress(keep, axis=0) for a in arrays]


def _normalise_hint(hint, graph: AdmissibilityGraph) -> np.ndarray:
    """A hint, a BoundaryLawSolution in canonical or graph labels (see
    relabel_solution), as the point (z_loops..., A)."""
    if not isinstance(hint, BoundaryLawSolution):
        raise InputError(f"a hint must be a BoundaryLawSolution, got {_shown(hint)}")
    hint = relabel_solution(hint, graph)
    return np.array([*(hint.loop_z[lab] for lab in graph.loops), hint.A])


def _leaders(P: np.ndarray, tol: float) -> np.ndarray:
    """Greedy leader grouping of the rows of P, taken in order.

    A row joins the first earlier leader within max-norm distance tol
    relative to max(1, |row|max, |leader|max); otherwise it leads a new
    group.  Returns the index of each row's leader (a leader's is its own).
    Memory is linear in the rows: each row is compared with the leaders only.
    The rows are few and short, so the comparisons run on Python floats.
    """
    rows = P.tolist()
    size = [max(map(abs, row)) for row in rows]
    lead = list(range(len(rows)))
    heads = []
    for i, row in enumerate(rows):
        for h in heads:
            if max(abs(a - b) for a, b in zip(rows[h], row)) <= tol * max(size[h], size[i], 1.0):
                lead[i] = h
                break
        else:
            heads.append(i)
    return np.array(lead, dtype=int)


def multistart_count(spec: ActivitySpec, graph: AdmissibilityGraph, n_starts: int = 100,
                     seed: int = 0, hints=None) -> MultistartResult:
    """Count distinct fixed points of the reduced system by Newton multistart.

    Starts are log-uniform over [1e-3, 1e3] per coordinate; with two loop
    vertices half the starts are symmetrised (z1 = z2); with equal loop
    activities Newton keeps those on the diagonal up to rounding, where the
    symmetric solution lies.  Optional hints (e.g. closed-form solutions)
    add four starts each: the hint and three copies jittered by
    HINT_JITTER.  One batched damped Newton (see _newton) runs from every
    start and reaches attracting and repelling fixed points alike.  Points
    with residual below TOL are grouped as the module docstring describes:
    clusters at CLUSTER_TOL, then the pitchfork merge at PITCHFORK_TOL.
    Every argument is checked before any start is drawn: n_starts must be
    an integer >= 50, seed an integer >= 0 and hints None or an iterable of
    BoundaryLawSolutions in the closed forms' canonical loop labels or the
    graph's (see _normalise_hint), else InputError; more than _MAX_STARTS
    starts in all, n_starts plus four per hint, raise TooLarge before any
    hint is read.
    """
    n_starts = _as_int(n_starts, "n_starts", 50)
    seed = _as_int(seed, "seed", 0)
    try:
        hints = [] if hints is None else list(hints)
    except TypeError:
        raise InputError(f"hints must be None or an iterable of hints, got {_shown(hints)}") from None
    _as_int(n_starts + 4 * len(hints), "n_starts plus four per hint", most=_MAX_STARTS)
    system = reduce(spec, graph)
    labels = system.loop_labels
    m = len(labels)
    hint_points = [_normalise_hint(hint, graph) for hint in hints]
    rng = np.random.default_rng(seed)
    Z0 = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_starts, m))
    A0 = 10.0 ** rng.uniform(-3.0, 3.0, size=n_starts)
    if m == 2:
        Z0[n_starts // 2:, 1] = Z0[n_starts // 2:, 0]
    starts = [np.column_stack([Z0, A0])]  # one (z_loops..., A) per row
    for v in hint_points:
        starts += [v[None, :], v * (1.0 + HINT_JITTER * rng.standard_normal((3, m + 1)))]
    V = np.concatenate(starts)
    source = np.where(np.arange(len(V)) < n_starts, "newton", "hint")
    keep = (V > 0.0).all(axis=1)
    V, residuals = _newton(system, V[keep])
    source = source[keep]

    ok = sorted(np.flatnonzero(residuals < TOL), key=residuals.__getitem__)  # stable
    P, res, source = V[ok], residuals[ok], source[ok]
    lead = _leaders(P, CLUSTER_TOL)
    is_head = lead == np.arange(len(P))
    heads = np.flatnonzero(is_head)  # first-pass leaders
    cluster = np.cumsum(is_head)[lead] - 1  # first-pass cluster of each point
    top = np.arange(len(heads))  # leading cluster of each cluster's group
    if m == 2 and len(heads) > 1:
        # pitchfork guard, see PITCHFORK_TOL
        H = P[heads]
        near = np.flatnonzero(np.abs(H[:, 0] - H[:, 1])
                              <= PITCHFORK_TOL * np.maximum(np.abs(H).max(axis=1), 1.0))
        top[near] = near[_leaders(H[near], PITCHFORK_TOL)]
    group = top[cluster]  # leading cluster of each point's group
    rep = heads.copy()  # representative point of each group
    for g in np.flatnonzero(np.bincount(top) > 1):
        rep[g] = min(np.flatnonzero(group == g),
                     key=lambda i: (abs(P[i, 0] - P[i, 1]), res[i], cluster[i]))
    members = np.bincount(group, minlength=len(heads))
    reps = tuple(
        ClusterPoint(z={lab: float(v) for lab, v in zip(labels, P[rep[g], :m])},
                     A=float(P[rep[g], m]), residual=float(res[rep[g]]),
                     members=int(members[g]), source=str(source[rep[g]]))
        for g in np.flatnonzero(top == np.arange(len(heads)))
    )
    return MultistartResult(count=len(reps), representatives=reps)
