"""Independent numerical solver: batched Newton multistart.

This module never touches the closed-form branch algebra.  It solves the
reduced consistency system directly, so agreement with the explicit
solvers is a genuine cross-check.  One vectorised damped Newton runs from
every random start at once; Newton converges to repelling fixed points of
the consistency map as readily as to attracting ones, so discovery needs
no hints.  Hint points (e.g. closed-form solutions) are optional extra
starts: a genuine hint is confirmed, a wrong one is rejected or pulled onto
a genuine solution.  fixed_point_iterate keeps the plain damped Picard
iteration as a single-start instrument.

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
from dataclasses import dataclass

import numpy as np

from .boundary_law import ReducedSystem, reduce
from .errors import InputError, TooLarge
from .model import ActivitySpec, AdmissibilityGraph, BoundaryLawSolution

TOL = 1e-11  # residual gate for a confirmed point
MAX_STEPS = 60  # Newton steps per start
STALL_STEPS = 10  # steps without a new best residual after which a start retires
MAX_HALVINGS = 40  # step halvings that may keep a start in the positive orthant
CLUSTER_TOL = 1e-6  # relative distance under which two points are one solution
HINT_JITTER = 1e-4  # relative spread of the three jittered copies of each hint
_MAX_STARTS = 100_000  # most random starts one multistart_count call may run

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
    """Damped Picard iteration (z, A) <- (1-theta)(z, A) + theta F(z, A).

    init maps each loop vertex to a positive starting value; A_init starts
    the aggregate.  The residual is max |(z, A) - F(z, A)|.  Non-convergence
    (blow-up, bounded oscillation, or an exhausted budget) is reported in
    the result, never raised.  An init that already solves the system
    returns with iterations == 0.
    """
    system = reduce(spec, graph)
    if not 0.0 < damping <= 1.0:
        raise InputError(f"damping must lie in (0, 1], got {damping}")
    missing = set(system.loop_labels) - set(init)
    if missing:
        raise InputError(f"init is missing loop components {sorted(missing)}")
    z = np.array([float(init[lab]) for lab in system.loop_labels])
    A = float(A_init)
    if not (np.isfinite(z).all() and (z > 0.0).all() and math.isfinite(A) and A > 0.0):
        raise InputError("init values and A_init must be positive and finite")
    it = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            Fz, FA = system.picard(z, A)
            res = float(np.abs(np.append(z - Fz, A - FA)).max())
            # NaN means the orbit left the domain for good (inf - inf)
            if res < tol or it == max_iter or math.isnan(res):
                break
            z = (1.0 - damping) * z + damping * Fz
            A = (1.0 - damping) * A + damping * float(FA)
            it += 1
    return FixedPointResult(converged=res < tol,
                            z={lab: float(v) for lab, v in zip(system.loop_labels, z)},
                            A=A, iterations=it, residual=res)


def _newton(system: ReducedSystem, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the defect from every row of V (shape (n, m+1)) at once.

    Each step solves J step = defect for all live rows and halves each
    row's step until the row stays positive.  A row retires once its best
    residual is below TOL and the last step did not halve it (double roots
    converge only linearly, so polishing goes on while each step still
    gains a factor two), once it has gone STALL_STEPS steps without a new
    best residual, once its defect or step is non-finite, or once
    MAX_HALVINGS cannot keep it positive.  Returns the best point and
    residual of each row.
    """
    m = V.shape[1] - 1
    best_v, best_r = V.copy(), np.full(len(V), np.inf)
    gained = np.zeros(len(V), dtype=int)  # step of each row's last new best
    live = np.arange(len(V))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(MAX_STEPS + 1):
            v = V[live]
            R = system.defect(v[:, :m], v[:, m])
            r = np.abs(R).max(axis=1)
            improving = r < 0.5 * best_r[live]
            better = r < best_r[live]
            best_r[live[better]] = r[better]
            best_v[live[better]] = v[better]
            gained[live[better]] = it
            polished = (best_r[live] < TOL) & ~improving
            stalled = it - gained[live] >= STALL_STEPS
            keep = np.isfinite(r) & ~polished & ~stalled
            live, v, R = live[keep], v[keep], R[keep]
            if live.size == 0 or it == MAX_STEPS:
                break
            J = system.jacobian(v[:, :m], v[:, m])
            try:
                step = np.linalg.solve(J, R[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = (np.linalg.pinv(J) @ R[..., None])[..., 0]
            # halve each step until the row stays positive: the first power
            # of two below v_i / step_i over the coordinates moving down
            ratio = np.where(step > 0.0, v / step, np.inf).min(axis=1)
            mant, expo = np.frexp(np.clip(ratio, np.finfo(float).tiny, 1.0))
            halvings = np.where(ratio > 1.0, 0, 1 - expo + (mant == 0.5))
            keep = np.isfinite(step).all(axis=1) & (halvings <= MAX_HALVINGS)
            live = live[keep]
            V[live] = v[keep] - np.ldexp(step[keep], -halvings[keep, None])
    return best_v, best_r


def _normalise_hint(hint, labels) -> np.ndarray:
    """A hint as the point (z_loops..., A)."""
    if isinstance(hint, BoundaryLawSolution):
        z_map, A = hint.loop_z, hint.A
    else:
        z_map, A = hint
    missing = set(labels) - set(z_map)
    if missing:
        raise InputError(f"hint is missing loop components {sorted(missing)}")
    return np.array([*(float(z_map[lab]) for lab in labels), float(A)])


def _leaders(P: np.ndarray, tol: float) -> np.ndarray:
    """Greedy leader grouping of the rows of P, taken in order.

    A row joins the first earlier leader within max-norm distance tol
    relative to max(1, |row|max, |leader|max); otherwise it leads a new
    group.  Returns the index of each row's leader (a leader's is its own).
    Memory is linear in the rows: each row is compared with the leaders only.
    """
    size = np.abs(P).max(axis=1)
    lead = np.arange(len(P))
    heads = np.empty(0, dtype=int)
    for i in range(len(P)):
        close = np.abs(P[heads] - P[i]).max(axis=1) <= tol * np.maximum(
            np.maximum(size[heads], size[i]), 1.0)
        if close.any():
            lead[i] = heads[close.argmax()]
        else:
            heads = np.append(heads, i)
    return lead


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
    More than _MAX_STARTS starts raise TooLarge before any is drawn.
    """
    if n_starts < 50:
        raise InputError(f"n_starts must be at least 50, got {n_starts}")
    if n_starts > _MAX_STARTS:
        raise TooLarge(f"n_starts {n_starts} exceeds the cap of {_MAX_STARTS}")
    system = reduce(spec, graph)
    labels = system.loop_labels
    m = len(labels)
    rng = np.random.default_rng(seed)
    Z0 = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_starts, m))
    A0 = 10.0 ** rng.uniform(-3.0, 3.0, size=n_starts)
    if m == 2:
        Z0[n_starts // 2:, 1] = Z0[n_starts // 2:, 0]
    starts = [np.column_stack([Z0, A0])]  # one (z_loops..., A) per row
    for hint in hints or []:
        v = _normalise_hint(hint, labels)
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
