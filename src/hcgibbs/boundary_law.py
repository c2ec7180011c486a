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

import numpy as np

from .errors import InputError
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
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
    """The closed (z_loops, A) system for one parameter point."""

    k: int
    loop_labels: tuple[int, ...]
    loop_lams: tuple[float, ...]
    Lambda: float

    @property
    def dim(self) -> int:
        return len(self.loop_labels) + 1

    @property
    def tail_lambda(self) -> float:
        """Aggregate activity of all non-loop vertices."""
        return self.Lambda - sum(self.loop_lams)

    def _loop_image(self, z, A):
        """(z, A, (1 + A)**k, loop part of F) as float arrays."""
        z, A = np.asarray(z, dtype=float), np.asarray(A, dtype=float)
        q = _pow(1.0 + A, self.k)
        return z, A, q, np.asarray(self.loop_lams) * _pow(1.0 + z, self.k) / q[..., None]

    def picard(self, z, A):
        """The fixed-point map (z, A) -> F(z, A), at one point or a stack.

        z has shape (m,) or (n, m) and A is a scalar or has shape (n,); the
        image has the same shapes.  Overflow follows numpy's float rules.
        """
        z, A, q, Fz = self._loop_image(z, A)
        return Fz, z.sum(axis=-1) + self.tail_lambda / q

    def defect(self, z, A):
        """Residual vector (loop equations, then the aggregate identity).

        Shapes as in picard; the result has shape (m+1,) or (n, m+1).
        """
        z, A, q, Fz = self._loop_image(z, A)
        dA = A - z.sum(axis=-1) - self.tail_lambda / q
        return np.concatenate([z - Fz, dA[..., None]], axis=-1)

    def residual_at(self, z, A: float) -> float:
        """Max absolute defect at one point."""
        return float(np.abs(self.defect(z, A)).max())

    def jacobian(self, z, A) -> np.ndarray:
        """Analytic Jacobian of the defect with respect to (z_loops, A).

        Shapes as in picard; the result has shape (m+1, m+1) or
        (n, m+1, m+1).
        """
        z, A = np.asarray(z, dtype=float), np.asarray(A, dtype=float)
        m, k = len(self.loop_lams), self.k
        lams = np.asarray(self.loop_lams)
        q = _pow(1.0 + A, k)
        q1 = ((1.0 + A) * q)[..., None]  # (1 + A)**(k + 1)
        J = np.zeros(A.shape + (m + 1, m + 1))
        diag = np.arange(m)
        J[..., diag, diag] = 1.0 - lams * k * _pow(1.0 + z, k - 1) / q[..., None]
        J[..., :m, m] = lams * k * _pow(1.0 + z, k) / q1
        J[..., m, :m] = -1.0
        J[..., m, m] = 1.0 + k * self.tail_lambda / q1[..., 0]
        return J


def reduce(spec: ActivitySpec, graph: AdmissibilityGraph) -> ReducedSystem:
    """Collapse a spec onto the closed (z_loops, A) system.

    Raises DivergentActivities when the total activity is infinite.
    """
    check_spec_graph(spec, graph)
    Lambda = require_finite(spec)
    labels = graph.loops
    lams = tuple(spec.loop_activities[lab] for lab in labels)
    return ReducedSystem(k=spec.k, loop_labels=labels, loop_lams=lams, Lambda=Lambda)


def residual(spec: ActivitySpec, graph: AdmissibilityGraph, z: dict[int, float], A: float) -> float:
    """Max absolute defect of the full listed system at (z, A).

    z must contain every loop and every explicitly listed tail vertex.
    Unlisted vertices only enter through the aggregate identity.
    """
    system = reduce(spec, graph)
    if not (isinstance(A, (int, float)) and math.isfinite(A) and A > 0.0):
        raise InputError(f"aggregate A must be positive and finite, got {A!r}")
    missing = (set(graph.loops) | set(spec.explicit_tail)) - set(z)
    if missing:
        raise InputError(f"z is missing components for {sorted(missing)}")
    for lab, val in z.items():
        if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0.0):
            raise InputError(f"z[{lab}] must be positive and finite, got {val!r}")
    q = (1.0 + A) ** spec.k
    tail = (abs(z[lab] - lam / q) for lab, lam in spec.explicit_tail.items())
    return max([system.residual_at([z[lab] for lab in graph.loops], A), *tail])


def expand(solution: BoundaryLawSolution, spec: ActivitySpec) -> tuple[dict[int, float], float]:
    """Recover every listed boundary-law component plus the unlisted tail mass.

    Returns (z, tail_z_mass): z covers loops and explicit tail vertices,
    tail_z_mass is the aggregate boundary-law mass of the unlisted states,
    tail_mass / (1 + A)**k.
    """
    require_finite(spec)
    if set(solution.loop_z) != set(spec.loop_activities):
        raise InputError(
            f"solution labels {sorted(solution.loop_z)} do not match spec loops "
            f"{sorted(spec.loop_activities)}"
        )
    q = (1.0 + solution.A) ** spec.k
    z = dict(solution.loop_z)
    for lab, lam in spec.explicit_tail.items():
        z[lab] = lam / q
    return z, spec.tail_mass / q


def normalisable(spec: ActivitySpec) -> bool:
    """Whether any translation-invariant Gibbs measure can exist at all."""
    return math.isfinite(spec.total_activity())
