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
entered, and their rows are the unit vector at 0.  A kernel and a law
share one base, which reads the window and derives states from it.

A kernel is its weights: TransitionMatrix takes the window, the weight
lambda*z of each state the chain visits, the loops and the tree order, and
derives its rows and closed-form law from them.  It is stored in its
structural form: the hub row, one stay probability per loop, and a unit
step to 0 for every other state.  The sampler draws from that form, the
command-line export writes the unit row once and each row of nonunit_rows
once, and the stationarity check and irreducibility read it too: they take a
TransitionMatrix and nothing else.  Nothing holds a window-squared matrix.

transition_matrix is the one builder from a solution: it checks the
solution once, computes its weights over the window and builds the kernel
with the loops and tree order of its spec.  The sampler draws from that
kernel as it is, so a command builds and checks one kernel per solution.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .boundary_law import _aggregate_power, reduce
from .errors import InputError, ShapeMismatch, WindowTooSmall
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    _as_int,
    _as_kind,
    _as_nonnegative,
    _as_positive,
    _items,
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
    """Row-stochastic kernel on the windowed state set, fixed by its weights.

    weights maps each state the chain visits besides the hub to its weight
    w = lambda*z (listed labels of the window, and TAIL when the unlisted
    mass is positive), loops are the self-loop labels, and k is the tree
    order by which the samplers size their trees.  All else is derived:
    active flags the hub and each weighted state; hub_row, row 0, is
    (1, weights) over its own sum; stays holds w/(1+w) at each loop, whose
    row returns the rest to 0, and every other row steps to 0; stationary
    is the closed-form law, (1+S)/d at the hub, (w^2+w)/d at a loop and w/d
    elsewhere, with S the weights' sum and d = 1 + sum of loop w^2 + 2S.

    weights is read as a mapping from nonzero ints or TAIL to finite reals
    >= 0 by a type scan and numpy compares, a label off the window being
    WindowTooSmall; loops as an AdmissibilityGraph reads them, each
    weighted; k as an integer >= 1.  An overflowing d, or any other bad
    value, is an InputError: no kernel is malformed, whoever builds it.
    weights and stays are read-only mappings and the arrays read-only, so
    none is changed in place after the kernel is built.
    """

    weights: Mapping
    loops: tuple
    k: int = 2
    active: np.ndarray = field(init=False)
    hub_row: np.ndarray = field(init=False)
    stays: Mapping = field(init=False)
    stationary: StationaryDistribution = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        window, n = self.window, len(self.states)
        listed = dict(_items(self.weights, "weights"))
        tail = listed.pop(TAIL, None)
        if not {*map(type, listed)} <= {int}:
            listed = {_as_int(lab, f"weight label other than {TAIL!r}"): w for lab, w in listed.items()}
        if 0 in listed:
            raise InputError("weight label 0 is the hub, whose weight is 1")
        if listed and not (-window <= min(listed) and max(listed) <= window):
            outside = sorted(lab for lab in listed if abs(lab) > window)
            raise WindowTooSmall(f"listed states {_shown(outside)} lie outside the window {window}")
        # a value of another type than float fails the compares as NaN does
        w = np.array(list(listed.values()) if {*map(type, listed.values())} <= {float} else [math.nan])
        if not (np.all(w >= 0.0) and np.all(w < math.inf)):
            listed = {lab: _as_nonnegative(v, f"weight at {_shown(lab)}") for lab, v in listed.items()}
            w = np.array(list(listed.values()), dtype=float)
        weights = listed if tail is None else {**listed, TAIL: _as_nonnegative(tail, f"weight at {TAIL!r}")}
        loops = AdmissibilityGraph(self.loops).loops
        if not listed.keys() >= set(loops):
            raise InputError(f"loops {_shown(list(loops))} must be weighted labels")
        k = _as_int(self.k, "tree order k", 1)

        # summing in label order keeps the kernel bit-identical across windows
        # (np.sum would regroup the additions as the row length changes)
        w_sum, w_tail = sum(listed.values()), weights.get(TAIL, 0.0)
        S = w_sum + w_tail
        try:
            denom = 1.0 + sum(listed[lab] ** 2 for lab in loops) + 2.0 * S
        except OverflowError:  # a loop weight's square past double range
            denom = math.inf
        if not denom < math.inf:
            raise InputError("weights too large: the stationary law's normaliser overflows")
        pos = np.fromiter(listed, np.int64, len(listed)) + window
        active, hub_row, x = np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n)
        active[window], active[pos], active[-1] = True, True, TAIL in weights
        hub_row[window], hub_row[pos], hub_row[-1] = 1.0, w, w_tail
        hub_row /= 1.0 + w_sum + w_tail
        x[window], x[pos], x[-1] = (1.0 + S) / denom, w / denom, w_tail / denom
        for lab in loops:
            x[lab + window] = (listed[lab] * listed[lab] + listed[lab]) / denom
        stays = {lab: listed[lab] / (1.0 + listed[lab]) for lab in loops}
        for array in (active, hub_row, x):
            array.flags.writeable = False
        for name, value in (("weights", MappingProxyType(weights)), ("loops", loops), ("k", k),
                            ("active", active), ("hub_row", hub_row), ("stays", MappingProxyType(stays)),
                            ("stationary", StationaryDistribution(window, x))):
            object.__setattr__(self, name, value)

    def nonunit_rows(self):
        """(position, row) of the hub row, then of each loop's stay-or-return row."""
        yield self.window, self.hub_row
        for lab, stay in self.stays.items():
            pos = self.index(lab)
            row = np.zeros(len(self.states))
            row[pos], row[self.window] = stay, 1.0 - stay
            yield pos, row


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
) -> tuple[int, dict]:
    """The window as an int (minimal_window(spec) when None) and the weights
    lambda*z of the listed states, then of TAIL when the spec has unlisted
    mass.  Checks, in order: the spec/graph pairing, the window, the labels
    (relabel_solution), a finite total, A and the loop z, the residual, and
    each tail z lambda/(1+A)^k; the kernel checks the window's cover.
    """
    check_spec_graph(spec, graph)
    window = _as_window(minimal_window(spec) if window is None else window)
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
    if spec.tail_mass > 0.0:
        weights[TAIL] = spec.tail_mass * (spec.tail_mass / q)
    return window, weights


def transition_matrix(
    solution: BoundaryLawSolution,
    spec: ActivitySpec,
    graph: AdmissibilityGraph,
    window: int | None = None,
) -> TransitionMatrix:
    """Build the windowed kernel for one boundary-law solution, with its stationary law.

    The solution, in canonical or graph labels, must close the reduced
    system (see _window_weights); window defaults to minimal_window(spec).
    The kernel's rows and closed-form law are derived from the weights
    w = lambda*z (see TransitionMatrix), not as a dense matrix.
    """
    return TransitionMatrix(*_window_weights(solution, spec, graph, window), graph.loops, spec.k)


def minimal_window(spec: ActivitySpec) -> int:
    """Smallest window covering every listed spin."""
    return max(abs(lab) for lab in _as_kind(spec, ActivitySpec, "spec").listed())


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
    return _as_kind(P, TransitionMatrix, "kernel")


def verify_stationary(X, P, tol: float = 1e-10) -> StationaryReport:
    """Check that X is stationary for the kernel P and normalized, within tol.

    X must be a StationaryDistribution on P's window and P a
    TransitionMatrix.  P is multiplied from its structural form, never as
    a dense matrix.
    """
    tol = _as_nonnegative(tol, "tol")
    X = _as_kind(X, StationaryDistribution, "distribution")
    P = _as_transition_matrix(P)
    if X.window != P.window:
        raise ShapeMismatch("distribution and matrix are on different state sets")
    x = X.probabilities
    max_residual = float(np.max(np.abs(_times_kernel(x, P) - x)))
    sum_error = float(abs(x.sum() - 1.0))
    passed = bool(max_residual <= tol and sum_error <= tol)
    return StationaryReport(max_residual, sum_error, passed)


def _times_kernel(x: np.ndarray, tm: TransitionMatrix) -> np.ndarray:
    """x times the dense kernel of tm in O(states), summed in a fixed order.

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
