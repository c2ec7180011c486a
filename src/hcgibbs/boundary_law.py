"""Translation-invariant boundary-law equations in reduced coordinates.

For a graph with self-loops at the hub 0 and at nonzero vertices i the
consistency system for a boundary law z (normalised so z_0 = 1) closes on
the loop components z_i and the aggregate A = sum over nonzero j of z_j:

    z_i = lambda_i * ((1 + z_i)/(1 + A))**k          (loop vertices)
    z_j = lambda_j / (1 + A)**k                      (every other vertex)
    A   = sum_i z_i + (Lambda - sum_i lambda_i)/(1 + A)**k

with Lambda the total activity.  Non-loop components are slaved to A, so
the reduced unknowns are (z_loops, A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    _as_kind,
    _as_positive,
    _items,
    _positive_values,
    _shown,
    check_spec_graph,
    require_finite,
)


def _pow(base, k: int):
    # float_power calls the C library's pow(), as Python's float ** does;
    # numpy's ** squares or uses SIMD pow, which differ in the last bit, and
    # the solvers' reported residuals are pinned to the scalar arithmetic
    return np.float_power(base, k)


@dataclass(frozen=True)
class ReducedSystem:
    """The closed (z_loops, A) system for one parameter point.

    A point is the row (z_loops..., A).  linearise is the one evaluation of
    the defect and its Jacobian at a point or a stack of them; defect and
    residual_at read the defect and stop before the Jacobian.  It takes
    the powers (1 + z, 1 + A)**k in one _pow call and (1 + z)**(k - 1) in
    a second, and the loop activities and tail_lambda are computed once
    per system.
    """

    k: int
    loop_labels: tuple[int, ...]
    loop_lams: tuple[float, ...]
    Lambda: float

    @cached_property
    def tail_lambda(self) -> float:
        """Aggregate activity of all non-loop vertices."""
        return self.Lambda - sum(self.loop_lams)

    @cached_property
    def _lams(self) -> np.ndarray:
        return np.asarray(self.loop_lams, dtype=float)

    def _defect(self, V):
        """(1 + V, (1 + V)**k, the defect) at the points V."""
        m = len(self.loop_lams)
        W = 1.0 + V
        P = _pow(W, self.k)
        R = np.empty(V.shape)
        R[..., :m] = V[..., :m] - self._lams * P[..., :m] / P[..., m:]
        R[..., m] = V[..., m] - V[..., :m].sum(axis=-1) - self.tail_lambda / P[..., m]
        return W, P, R

    def linearise(self, V) -> tuple[np.ndarray, np.ndarray]:
        """The defect at the points V, shape (m+1,) or (n, m+1), and its
        Jacobian with respect to (z_loops, A).

        The defect holds the loop equations, then the aggregate identity,
        and has V's shape; the Jacobian has shape (m+1, m+1) or
        (n, m+1, m+1).  Each row is computed from its own point only, so its
        bits do not depend on the rest of the stack.
        """
        V = np.asarray(V, dtype=float)
        m, k = len(self.loop_lams), self.k
        W, P, R = self._defect(V)
        q1 = W[..., m] * P[..., m]  # (1 + A)**(k + 1)
        klams = k * self._lams
        J = np.zeros(V.shape + (m + 1,))
        # each J's entries in row-major order: the loop diagonal is every
        # (m+2)-th from 0, column m every (m+1)-th from m, row m the last m+1
        flat = J.reshape(V.shape[:-1] + ((m + 1) ** 2,))
        flat[..., 0:m * (m + 2):m + 2] = 1.0 - klams * _pow(W[..., :m], k - 1) / P[..., m:]
        flat[..., m:m * (m + 1):m + 1] = klams * P[..., :m] / q1[..., None]
        flat[..., m * (m + 1):-1] = -1.0
        flat[..., -1] = 1.0 + k * self.tail_lambda / q1
        return R, J

    def defect(self, z, A):
        """The defect of linearise at (z, A), without the Jacobian.

        z has shape (m,) with a scalar A, or shape (n, m) with A of shape
        (n,); the defect is the point (z, A) minus its image under the
        consistency map, shape (m+1,) or (n, m+1).  Overflow follows
        numpy's float rules, to inf or NaN, without a RuntimeWarning.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._defect(_points(z, A))[2]

    def residual_at(self, z, A: float) -> float:
        """Max absolute defect at one point."""
        return float(np.abs(self.defect(z, A)).max())


def _points(z, A) -> np.ndarray:
    """z (shape (m,) or (n, m)) and A (a scalar or shape (n,)) as the
    points (z_loops..., A)."""
    return np.concatenate([np.asarray(z, dtype=float), np.asarray(A, dtype=float)[..., None]],
                          axis=-1)


def reduce(spec: ActivitySpec, graph: AdmissibilityGraph) -> ReducedSystem:
    """Collapse a spec onto the closed (z_loops, A) system.

    Raises DivergentActivities when the total activity is infinite.
    """
    check_spec_graph(spec, graph)
    Lambda = require_finite(spec)
    labels = graph.loops
    lams = tuple(spec.loop_activities[lab] for lab in labels)
    return ReducedSystem(k=spec.k, loop_labels=labels, loop_lams=lams, Lambda=Lambda)


def _aggregate_power(A: float, k: int) -> float:
    """(1 + A)**k for an A read by _as_positive, +inf where it overflows, as
    in _pow; a non-loop vertex's z is its activity over this."""
    try:
        return (1.0 + A) ** k
    except OverflowError:
        return math.inf


def residual(spec: ActivitySpec, graph: AdmissibilityGraph, z: dict[int, float], A: float) -> float:
    """Max absolute defect of the full listed system at (z, A).

    z must contain every loop and every explicitly listed tail vertex.
    Unlisted vertices only enter through the aggregate identity.
    """
    system = reduce(spec, graph)
    A = _as_positive(A, "aggregate A")
    z = dict(_items(z, "z"))
    missing = (set(graph.loops) | set(spec.explicit_tail)) - set(z)
    if missing:
        raise InputError(f"z is missing components for {_shown(sorted(missing))}")
    z = _positive_values(z, "z")
    q = _aggregate_power(A, spec.k)
    tail = (abs(z[lab] - lam / q) for lab, lam in spec.explicit_tail.items())
    return max([system.residual_at([z[lab] for lab in graph.loops], A), *tail])


def expand(solution: BoundaryLawSolution, spec: ActivitySpec) -> tuple[dict[int, float], float]:
    """Recover every listed boundary-law component plus the unlisted tail mass.

    Returns (z, tail_z_mass): z covers loops and explicit tail vertices,
    tail_z_mass is the aggregate boundary-law mass of the unlisted states,
    tail_mass / (1 + A)**k.  The solution must carry the spec's loop
    labels, and its A is read by _as_positive, else InputError; where
    (1 + A)**k overflows, the tail z are 0.0.  The loop z are returned as
    given, unchecked.
    """
    require_finite(spec)
    if set(_as_kind(solution, BoundaryLawSolution, "solution").loop_z) != set(spec.loop_activities):
        raise InputError(
            f"solution labels {_shown(sorted(solution.loop_z))} do not match spec loops "
            f"{_shown(sorted(spec.loop_activities))}"
        )
    q = _aggregate_power(_as_positive(solution.A, "aggregate A"), spec.k)
    z = dict(solution.loop_z)
    for lab, lam in spec.explicit_tail.items():
        z[lab] = lam / q
    return z, spec.tail_mass / q

