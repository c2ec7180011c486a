"""Transition kernels and stationary distributions of the spin chain.

A boundary-law solution (z, A) turns the model into a Markov chain on spin
values: from spin i the next spin j is drawn with probability proportional
to adjacency(i, j) * lambda_j * z_j, with lambda_0 = z_0 = 1.  Rows for
non-loop spins collapse to a unit step back to the hub 0, loop rows keep a
self-transition, and row 0 spreads over everything.

Software needs a finite state set, so the countably many unlisted spins are
folded into one aggregate super-state "TAIL" with activity tail_mass and
boundary-law weight tail_mass / (1+A)^k.  The folded chain is exactly the
chain of the finite model obtained by replacing the unlisted family with a
single non-loop spin of that activity; it has the same reduced system, the
same A, and every stochasticity and stationarity identity holds exactly
rather than up to truncation error.

The finite state set is the window -M..M plus TAIL.  Window states that
carry no listed activity have zero weight: they are displayed but never
entered, and their rows are the unit vector at 0.  A kernel and a law take
the window alone: their one base reads it and derives states from it.

A kernel is stored in its structural form: the hub row, one stay
probability per loop, and a unit step to 0 for every other state.  The
sampler draws from that form, export encodes the unit row, the hub row and
each loop row once, and the stationarity check, power iteration and
irreducibility read it too: they take a TransitionMatrix and nothing
else.  Only the matrix attribute, the dense reference of the tests, holds
a window-squared matrix.

transition_matrix is the one builder: it checks the solution once and
returns the kernel with its closed-form stationary law, both read from the
same weights, and the tree order of its spec.  The sampler draws from that
kernel as it is, so a command builds and checks one kernel per solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary_law import _aggregate_power, reduce
from .errors import InputError, NumericalFailure, ShapeMismatch, WindowTooSmall
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    _as_float,
    _as_int,
    _as_nonnegative,
    _as_positive,
    _positive_values,
    _shown,
    check_spec_graph,
    relabel_solution,
)

TAIL = "TAIL"

# a solution must close its own consistency system this well before we
# build a kernel from it
RESIDUAL_PRE_TOL = 1e-8

# largest state set 2M+2 a kernel may have; the exported rows grow with its
# square, about 420 MB of JSON for five solutions at the cap
_MAX_STATES = 4096


def _as_window(window) -> int:
    """The window M read as an integer >= 0 whose 2M+2 states fit the state cap."""
    return _as_int(window, "window", 0, most=_MAX_STATES // 2 - 1)


def state_labels(window: int) -> tuple:
    """Labels of the finite state set: -M..M then the tail aggregate."""
    window = _as_window(window)
    return tuple(range(-window, window + 1)) + (TAIL,)


def _state_index(window: int, label) -> int:
    """Position of a label in state_labels(window); InputError off the window."""
    if label == TAIL:
        return 2 * window + 1
    label = _as_int(label, f"state label other than {TAIL!r}")
    if abs(label) > window:
        raise InputError(f"state label {_shown(label)} lies outside the window {window}")
    return label + window


@dataclass(frozen=True, eq=False)
class _OnWindow:
    """A vector or kernel on a window's states; states is state_labels(window), derived."""

    window: int
    states: tuple = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", _as_window(self.window))
        object.__setattr__(self, "states", state_labels(self.window))

    def index(self, label) -> int:
        return _state_index(self.window, label)


@dataclass(frozen=True, eq=False)
class TransitionMatrix(_OnWindow):
    """Row-stochastic kernel on the windowed state set, in structural form.

    states lists the labels in row/column order (-M..M then TAIL); active
    flags the states the chain actually visits (the hub, every listed spin,
    and TAIL when the unlisted mass is positive).

    hub_row is row 0 and stays maps each loop label to its stay probability,
    the rest of that row going to 0; every other row steps to 0.
    nonunit_rows yields the hub and loop rows.  matrix, the dense form, is
    built from them when first read, as the tests' dense reference.
    stationary is the closed-form stationary law transition_matrix computes
    from the same weights, and k the tree order of its spec (2 by default,
    read as an integer >= 1); a kernel built by hand may have no stationary law.

    Every field is read on construction, in O(states) numpy calls: window
    as an integer under the state cap, active as one bool per state with
    the hub's set, hub_row as a float array of one entry in [0, 1] per
    state, stays as a dict from loop labels (nonzero labels of the window)
    to reals in [0, 1], and a StationaryDistribution stationary as a law on
    the same window with finite entries.  A row need not sum to 1, and a
    stationary of any other type is no law.  Anything else is an InputError.
    """

    active: np.ndarray
    hub_row: np.ndarray
    stays: dict
    stationary: StationaryDistribution | None = None
    k: int = 2

    def __post_init__(self) -> None:
        # the samplers, the checks and export then index the fields unchecked
        super().__post_init__()
        window, n = self.window, len(self.states)
        active = np.asarray(self.active)
        if active.shape != (n,) or active.dtype != bool or not active[window]:
            raise ShapeMismatch(f"active must hold {n} bools, one per state, True at the hub")
        hub_row = self.hub_row
        if not (isinstance(hub_row, np.ndarray) and hub_row.dtype == float and hub_row.shape == (n,)):
            raise ShapeMismatch(f"hub_row must be a float array of {n} entries, one per state")
        if not (0.0 <= hub_row.min() and hub_row.max() <= 1.0):  # NaN fails both
            raise InputError("hub_row entries must lie in [0, 1]")
        if not isinstance(self.stays, dict):
            raise InputError(f"stays must be a dict, got {type(self.stays).__name__}")
        stays = {}
        for lab, stay in self.stays.items():
            if self.index(lab) in (window, n - 1):
                raise InputError(f"stay label {_shown(lab)} is the hub or {TAIL!r}, not a loop")
            stays[lab] = _as_float(stay, f"stay at {_shown(lab)}")
            if not 0.0 <= stays[lab] <= 1.0:
                raise InputError(f"stay at {_shown(lab)} must lie in [0, 1], got {_shown(stay)}")
        law = self.stationary
        if isinstance(law, StationaryDistribution) and not (
                law.window == window and np.isfinite(law.probabilities).all()):
            raise InputError(f"stationary law must hold finite entries on the kernel's window {window}")
        # the samplers size their trees by k, read as a TreeSample reads it
        k = _as_int(self.k, "tree order k", 1)
        for name, value in (("active", active), ("stays", stays), ("k", k)):
            object.__setattr__(self, name, value)

    def nonunit_rows(self):
        """(position, row) of the hub row, then of each loop's stay-or-return row."""
        yield self.window, self.hub_row
        for lab, stay in self.stays.items():
            pos = self.index(lab)
            row = np.zeros(len(self.states))
            row[pos], row[self.window] = stay, 1.0 - stay
            yield pos, row

    @cached_property
    def matrix(self) -> np.ndarray:
        P = np.zeros((len(self.states), len(self.states)))
        P[:, self.window] = 1.0
        for pos, row in self.nonunit_rows():
            P[pos] = row
        return P

    def entry(self, i, j) -> float:
        """P[i, j], read from the structural form."""
        r, c = self.index(i), self.index(j)
        if r == self.window:
            return float(self.hub_row[c])
        stay = self.stays.get(self.states[r], 0.0)
        if c == r:
            return float(stay)
        return float(1.0 - stay) if c == self.window else 0.0


@dataclass(frozen=True, eq=False)
class StationaryDistribution(_OnWindow):
    """Probability vector over the windowed state set, X * P = X.

    probabilities is a float array of one entry per state, finite or not.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        p, n = self.probabilities, len(self.states)
        if not (isinstance(p, np.ndarray) and p.dtype == float and p.shape == (n,)):
            raise ShapeMismatch(f"probabilities must be a float array of {n} entries, one per state")

    def probability(self, label) -> float:
        return float(self.probabilities[self.index(label)])

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "states": list(self.states),
            "probabilities": self.probabilities.tolist(),
        }


@dataclass(frozen=True)
class StationaryReport:
    """Outcome of checking X * P = X and the normalization of X."""

    max_residual: float
    sum_error: float
    passed: bool


def _window_weights(
    solution: BoundaryLawSolution,
    spec: ActivitySpec,
    graph: AdmissibilityGraph,
    window: int | None,
) -> tuple[int, dict[int, float], float]:
    """The window as an int (minimal_window(spec) when None), the weights
    lambda*z over it, and the tail weight.  Checks, in order: the window, the
    spec/graph pairing, the labels (relabel_solution), a finite total, A and
    the loop z, the residual, each tail z lambda/(1+A)^k, the window's cover.
    """
    window = _as_window(minimal_window(spec) if window is None else window)
    check_spec_graph(spec, graph)
    solution = relabel_solution(solution, graph)
    system = reduce(spec, graph)
    A = _as_positive(solution.A, "aggregate A")
    z = _positive_values(solution.loop_z, "z")
    res = system.residual_at([z[lab] for lab in graph.loops], A)
    if not res < RESIDUAL_PRE_TOL:
        raise InputError(
            f"solution residual {res:.3e} exceeds {RESIDUAL_PRE_TOL:.0e}; refusing to build a kernel"
        )
    q = _aggregate_power(A, spec.k)
    if spec.explicit_tail and not min(spec.explicit_tail.values()) / q > 0.0:
        # a tail z lambda / q rounds to 0; _positive_values refuses the first
        _positive_values({lab: lam / q for lab, lam in spec.explicit_tail.items()}, "z")
    weights = {lab: lam * z[lab] if lab in z else lam * (lam / q) for lab, lam in spec.listed().items()}
    outside = sorted(lab for lab in weights if abs(lab) > window)
    if outside:
        raise WindowTooSmall(f"listed states {_shown(outside)} lie outside the window {window}")
    return window, weights, spec.tail_mass * (spec.tail_mass / q)


def _on_window(window: int, hub, values: dict, tail, dtype=float) -> np.ndarray:
    """A vector over state_labels(window): hub at 0, values[lab] at each label, tail at TAIL."""
    x = np.zeros(2 * window + 2, dtype=dtype)
    x[window] = hub
    for lab, v in values.items():
        x[lab + window] = v
    x[-1] = tail
    return x


def transition_matrix(
    solution: BoundaryLawSolution,
    spec: ActivitySpec,
    graph: AdmissibilityGraph,
    window: int | None = None,
) -> TransitionMatrix:
    """Build the windowed kernel for one boundary-law solution, with its stationary law.

    The solution, in canonical or graph labels, must close the reduced
    system (see _window_weights); window defaults to minimal_window(spec).

    Row 0 is proportional to (1, weights, tail weight); each loop row splits
    between staying put and returning to 0; every other row steps to 0 with
    probability one.  Each row sums to 1 to the last bit: row 0 is divided
    by its own sum and two-entry rows are completed by subtraction.  Only
    row 0 and the stay probabilities are computed here, not the dense matrix.

    The stationary law is read from the same weights w = lambda*z in closed
    form.  With S their sum over nonzero spins, the mass is (1+S)/d at the
    hub, (w^2+w)/d at a loop spin and w/d elsewhere, where d = 1 + sum of
    loop w^2 + 2S.  The formulas do not depend on the window, so enlarging
    it only appends zero entries.
    """
    window, weights, w_tail = _window_weights(solution, spec, graph, window)
    return _kernel(window, weights, w_tail, graph.loops, spec)


def _kernel(window: int, weights: dict, w_tail: float, loops, spec: ActivitySpec) -> TransitionMatrix:
    # summing in label order keeps the kernel bit-identical across windows
    # (np.sum would regroup the additions as the row length changes)
    w_sum = sum(weights.values())
    hub_row = _on_window(window, 1.0, weights, w_tail) / (1.0 + w_sum + w_tail)
    stays = {lab: weights[lab] / (1.0 + weights[lab]) for lab in loops}
    active = _on_window(window, True, dict.fromkeys(weights, True), spec.tail_mass > 0.0, bool)
    S = w_sum + w_tail
    denom = 1.0 + sum(weights[lab] ** 2 for lab in loops) + 2.0 * S
    mass = {lab: (w * w + w) / denom if lab in loops else w / denom for lab, w in weights.items()}
    x = _on_window(window, (1.0 + S) / denom, mass, w_tail / denom)
    return TransitionMatrix(window, active, hub_row, stays, StationaryDistribution(window, x), spec.k)


def minimal_window(spec: ActivitySpec) -> int:
    """Smallest window covering every listed spin."""
    return max(abs(lab) for lab in spec.listed())


def stationary_closed_form(
    solution: BoundaryLawSolution,
    spec: ActivitySpec,
    graph: AdmissibilityGraph,
    window: int | None = None,
) -> StationaryDistribution:
    """transition_matrix(...).stationary, with the same window default."""
    return transition_matrix(solution, spec, graph, window).stationary


def _as_transition_matrix(P) -> TransitionMatrix:
    """P, if it is a TransitionMatrix; the one check of what a kernel is."""
    if not isinstance(P, TransitionMatrix):
        raise InputError(f"kernel must be a TransitionMatrix, got {type(P).__name__}")
    return P


def _as_vector(X) -> np.ndarray:
    if isinstance(X, StationaryDistribution):
        return X.probabilities
    try:
        arr = np.asarray(X, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"distribution must be a vector of reals, got {type(X).__name__}") from None
    if arr.ndim != 1:
        raise ShapeMismatch(f"distribution must be a vector, got shape {arr.shape}")
    return arr


def verify_stationary(X, P, tol: float = 1e-10) -> StationaryReport:
    """Check that X is stationary for the kernel P and normalized, within tol.

    X may be a StationaryDistribution, whose window must be P's, or a
    plain vector; P must be a TransitionMatrix.  P is multiplied from its
    structural form, never as the dense matrix.
    """
    tol = _as_nonnegative(tol, "tol")
    x = _as_vector(X)
    P = _as_transition_matrix(P)
    if isinstance(X, StationaryDistribution) and X.window != P.window:
        raise ShapeMismatch("distribution and matrix are on different state sets")
    n = len(P.states)
    if x.shape[0] != n:
        raise ShapeMismatch(f"distribution has {x.shape[0]} entries but the matrix has {n} states")
    max_residual = float(np.max(np.abs(_times_kernel(x, P) - x)))
    sum_error = float(abs(x.sum() - 1.0))
    passed = bool(max_residual <= tol and sum_error <= tol)
    return StationaryReport(max_residual, sum_error, passed)


def _times_kernel(x: np.ndarray, tm: TransitionMatrix) -> np.ndarray:
    """x @ tm.matrix in O(states), summed in a fixed order.

    Off the hub, column j is x[hub] * hub_row[j], plus x[j] * stay at a
    loop.  math.fsum adds the hub column's terms exactly and rounds once,
    so neither the BLAS build nor its thread count moves the result.
    """
    hub = tm.window
    xP = x[hub] * tm.hub_row
    terms = x.copy()
    terms[hub] = xP[hub]
    for lab, stay in tm.stays.items():
        pos = tm.index(lab)
        xP[pos] += x[pos] * stay
        terms[pos] = x[pos] * (1.0 - stay)
    try:  # zero terms, as at dead states, add nothing
        xP[hub] = math.fsum(terms[terms != 0.0].tolist())
    except (OverflowError, ValueError):  # an overflowing sum, or +inf with -inf
        xP[hub] = terms.sum()  # the inf or nan that then fails the check
    return xP


def irreducible(P) -> bool:
    """Whether the kernel P, restricted to its active states, is one class.

    P must be a TransitionMatrix.  Its active flags select the states the
    chain can occupy (dead window states are padding, not part of the
    chain), and the verdict is read from its structure: every state off
    the hub is entered only from the hub and leaves only for itself or the
    hub, so the active states are one class iff the hub row reaches each
    of them and no loop keeps its state with probability one.
    """
    P = _as_transition_matrix(P)
    off_hub = P.active.copy()
    off_hub[P.window] = False
    return bool(np.all(P.hub_row[off_hub] > 0.0)) and all(
        1.0 - stay > 0.0 for stay in P.stays.values()
    )


def power_iteration(P, start=None, tol: float = 1e-12, max_iter: int = 10_000):
    """Iterate x <- x * P on the kernel P until successive total variation falls below tol.

    P must be a TransitionMatrix, multiplied from its structural form.
    Returns (probabilities, iterations).  The default start is uniform; a
    supplied start is normalized.  Raises NumericalFailure when max_iter
    sweeps do not reach the tolerance.
    """
    max_iter = _as_int(max_iter, "max_iter", 0)
    tol = _as_positive(tol, "tol")
    P = _as_transition_matrix(P)
    n = len(P.states)
    if start is None:
        x = np.full(n, 1.0 / n)
    else:
        x = _as_vector(start).astype(float)
        if x.shape[0] != n:
            raise ShapeMismatch(f"start has {x.shape[0]} entries for {n} states")
        with np.errstate(over="ignore"):  # a sum past double range is refused below
            mass = x.sum()
        if np.any(x < 0.0) or not 0.0 < mass < math.inf:  # NaN fails too
            raise InputError("start vector must be nonnegative with positive finite mass")
        x /= mass
    for it in range(1, max_iter + 1):
        y = _times_kernel(x, P)
        if total_variation(y, x) < tol:
            return y, it
        x = y
    raise NumericalFailure(f"power iteration did not settle within {max_iter} sweeps")


def total_variation(u, v) -> float:
    """Total variation distance between two probability vectors."""
    a = _as_vector(u)
    b = _as_vector(v)
    if a.shape != b.shape:
        raise ShapeMismatch(f"vectors of length {a.shape[0]} and {b.shape[0]}")
    return float(0.5 * np.abs(a - b).sum())


def _fmt(value: float) -> str:
    return "%.17g" % value


def _label_str(label) -> str:
    return label if label == TAIL else str(label)


def _row_texts(tm: TransitionMatrix, encode) -> list:
    """encode(row) for each row of tm, without reading the dense matrix.

    encode runs once on the unit step to 0, which every state off the hub
    and the loops shares, and once on each row of tm.nonunit_rows().
    """
    unit = np.zeros(len(tm.states))
    unit[tm.window] = 1.0
    texts = [encode(unit)] * len(tm.states)
    for pos, row in tm.nonunit_rows():
        texts[pos] = encode(row)
    return texts


def matrix_csv_lines(tm: TransitionMatrix) -> list:
    """matrix_to_csv's lines, each with its newline; the unit row's text is one shared object."""
    tm = _as_transition_matrix(tm)
    header = ",".join(_label_str(lab) for lab in tm.states) + "\n"
    return [header] + _row_texts(tm, lambda row: ",".join(_fmt(v) for v in row) + "\n")


def matrix_to_csv(tm: TransitionMatrix) -> str:
    """CSV text: header of state labels, then one row per state."""
    return "".join(matrix_csv_lines(tm))


def distribution_to_csv(sd: StationaryDistribution) -> str:
    """CSV text: header of state labels, then the probability row."""
    if not isinstance(sd, StationaryDistribution):
        raise InputError(f"distribution must be a StationaryDistribution, got {type(sd).__name__}")
    lines = [",".join(_label_str(lab) for lab in sd.states)]
    lines.append(",".join(_fmt(v) for v in sd.probabilities))
    return "\n".join(lines) + "\n"
