"""Domain types: activity specifications, admissibility graphs, solutions.

The model lives on the Cayley tree of order k.  Spin values are countable
(integers); the admissibility graph has a hub at 0 adjacent to every value,
a self-loop at 0, and self-loops at one or two nonzero values.  Activities
are positive reals; all but finitely many are unlisted and only enter
through their aggregate mass.

All types are frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import DivergentActivities, InputError, TooLarge

_SCHEMA_KEYS = {"k", "loops", "tail", "tail_mass", "divergent"}

# a spec map key is str(label): ASCII digits, an optional "-", no leading zero
_LABEL_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _as_float(value, name: str) -> float:
    """float(value) of a real number; a non-number, a bool or a number
    beyond double range is an InputError."""
    # int and float ahead of the ABC, whose check costs about 1 us a value
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise InputError(f"{name} must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{name} is beyond double precision range") from None


def _as_positive(value, name: str) -> float:
    """_as_float(value) that must also be finite and > 0."""
    # a float skips the type checks: specs list hundreds of values
    out = value if type(value) is float else _as_float(value, name)
    if not 0.0 < out < math.inf:
        raise InputError(f"{name} must be positive and finite, got {_shown(value)}")
    return out


def _as_nonnegative(value, name: str) -> float:
    """_as_float(value) that must also be finite and >= 0."""
    out = _as_float(value, name)
    if not 0.0 <= out < math.inf:
        raise InputError(f"{name} must be finite and >= 0, got {_shown(value)}")
    return out


def _as_total(value) -> float:
    """A total activity read as a real; +inf, the divergent total, raises
    DivergentActivities, and NaN is bad input."""
    Lambda = _as_float(value, "total activity")
    if Lambda == math.inf:
        raise DivergentActivities("total activity diverges: no translation-invariant Gibbs measure")
    if math.isnan(Lambda):
        raise InputError("total activity is NaN")
    return Lambda


def _positive_values(mapping, name: str) -> dict:
    """The mapping with each value read by _as_positive as name[key]; a
    positive finite float passes without a call or a name."""
    return {key: value if type(value) is float and 0.0 < value < math.inf
            else _as_positive(value, f"{name}[{_shown(key)}]") for key, value in mapping.items()}


def _shown(value) -> str:
    """repr(value) for a refusal; a list item by item, an int too long to print by its size."""
    if type(value) is list:
        return f"[{', '.join(map(_shown, value))}]"
    try:
        return repr(value)
    except ValueError:  # such an int, or a container that holds one
        if isinstance(value, int):
            return f"<{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} too long to print>"


def _label_text(label) -> str:
    """str(label), as every document writes a label; an int past Python's
    limit on int-to-text conversion (4300 digits) is an InputError."""
    try:
        return str(label)
    except ValueError:
        raise InputError(f"label {_shown(label)} has too many digits to write in decimal") from None


def _as_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """int(value) of any integer type but bool, as a Python int, which never wraps as numpy's
    do; one below least is InputError, and one above most, a size cap, TooLarge."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InputError(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
    if least is not None and value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise TooLarge(f"{name} must be at most {most}, got {_shown(value)}")
    return value


def _items(mapping, name: str):
    """mapping.items(); InputError naming the argument if it is not a mapping."""
    if not isinstance(mapping, Mapping):
        raise InputError(f"{name} must be a mapping, got {type(mapping).__name__}")
    return mapping.items()


def _as_list(value, name: str) -> list:
    """list(value); InputError naming the argument if it is not iterable."""
    try:
        return list(value)
    except TypeError:
        raise InputError(f"{name} must be iterable, got {type(value).__name__}") from None


def _as_kind(value, kind: type, name: str):
    """value, if it is an instance of kind; InputError naming the argument if not."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InputError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _check_activity(label, value) -> tuple[int, float]:
    label = _as_int(label, "spin label")
    if label == 0:
        raise InputError("spin label 0 carries the hub; it cannot be listed")
    return label, _as_positive(value, f"activity at {_shown(label)}")


@dataclass(frozen=True)
class ActivitySpec:
    """Activity assignment: loop activities, listed tail states, tail mass.

    loop_activities maps each self-loop vertex to its activity.
    explicit_tail maps individually listed non-loop vertices to activities.
    tail_mass is the aggregate activity of all remaining unlisted vertices.
    divergent=True declares an infinite total activity (the tail sum does
    not converge); finite fields are then ignored by the solvers.
    """

    loop_activities: dict[int, float]
    explicit_tail: dict[int, float] = field(default_factory=dict)
    tail_mass: float = 0.0
    k: int = 2
    divergent: bool = False

    def __post_init__(self) -> None:
        k = _as_int(self.k, "tree order k", 1)
        loops = dict(_check_activity(*item) for item in _items(self.loop_activities, "loop_activities"))
        tail = dict(_check_activity(*item) for item in _items(self.explicit_tail, "explicit_tail"))
        if not loops:
            raise InputError("at least one nonzero loop vertex is required")
        overlap = set(loops) & set(tail)
        if overlap:
            raise InputError(f"labels {_shown(sorted(overlap))} appear as both loop and tail states")
        mass = _as_nonnegative(self.tail_mass, "tail_mass")
        if not isinstance(self.divergent, bool):
            raise InputError("divergent must be a boolean")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "loop_activities", loops)
        object.__setattr__(self, "explicit_tail", tail)
        object.__setattr__(self, "tail_mass", mass)

    def listed(self) -> dict[int, float]:
        """All individually listed activities (loops first, then tail states)."""
        out = dict(self.loop_activities)
        out.update(self.explicit_tail)
        return out

    def total_activity(self) -> float:
        """Total activity over all nonzero spin values; +inf when divergent."""
        if self.divergent:
            return math.inf
        return sum(self.loop_activities.values()) + sum(self.explicit_tail.values()) + self.tail_mass


@dataclass(frozen=True)
class AdmissibilityGraph:
    """Which nonzero vertices carry self-loops.  The hub 0 is always adjacent
    to everything and always carries its own loop."""

    loops: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = _as_list(self.loops, "loops")
        loops = tuple(sorted(_as_int(lab, "loop vertex") for lab in labels))
        if not 1 <= len(loops) <= 2:
            raise InputError(f"need one or two nonzero loop vertices, got {len(loops)}")
        if len(set(loops)) != len(loops):
            raise InputError("loop vertices must be distinct")
        if 0 in loops:
            raise InputError("loop vertex 0 is the hub; it must be a nonzero integer")
        object.__setattr__(self, "loops", loops)

    def adjacency(self, i, j) -> int:
        """0/1 adjacency between spin values or "TAIL", self-loops on the diagonal."""
        if i == 0 or j == 0:
            return 1
        if i == j:
            return 1 if i in self.loops else 0
        return 0


def graph_from_spec(spec: ActivitySpec) -> AdmissibilityGraph:
    return AdmissibilityGraph(tuple(_as_kind(spec, ActivitySpec, "spec").loop_activities))


def check_spec_graph(spec: ActivitySpec, graph: AdmissibilityGraph) -> None:
    """Raise unless spec is an ActivitySpec, graph an AdmissibilityGraph and
    their loop sets agree."""
    _as_kind(spec, ActivitySpec, "spec")
    _as_kind(graph, AdmissibilityGraph, "graph")
    if set(spec.loop_activities) != set(graph.loops):
        raise InputError(
            f"spec loops {_shown(sorted(spec.loop_activities))} do not match graph loops "
            f"{_shown(sorted(graph.loops))}"
        )


@dataclass(frozen=True)
class BoundaryLawSolution:
    """One translation-invariant boundary law in reduced coordinates.

    A is the aggregate sum of the boundary law over nonzero values, loop_z
    holds the per-loop-vertex components, branch names the solution branch,
    and residual is the max absolute defect of the reduced consistency
    system at this point.

    A, each loop_z value and residual are read as reals by _as_float, and
    branch as a str.  Any real passes: a kernel reads A and z as positive
    itself, and an oracle hint may hold any reals.
    """

    A: float
    loop_z: dict[int, float]
    branch: str
    residual: float

    def __post_init__(self) -> None:
        A = _as_float(self.A, "aggregate A")
        z = {lab: _as_float(v, f"loop_z[{_shown(lab)}]") for lab, v in _items(self.loop_z, "loop_z")}
        if not isinstance(self.branch, str):
            raise InputError(f"branch must be a str, got {_shown(self.branch)}")
        for name, value in (("A", A), ("loop_z", z), ("residual", _as_float(self.residual, "residual"))):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {
            "A": self.A,
            "z": {_label_text(lab): val for lab, val in sorted(self.loop_z.items())},
            "branch": self.branch,
            "residual": self.residual,
        }


def relabel_solution(solution: BoundaryLawSolution, graph: AdmissibilityGraph) -> BoundaryLawSolution:
    """Map canonical loop labels (1, or 1 and 2) onto the graph's actual labels.

    Solvers emit canonical labels; when the graph's loops sit elsewhere the
    i-th canonical label maps to the i-th smallest actual label.  A solution
    already carrying the graph's labels passes through unchanged.
    """
    _as_kind(solution, BoundaryLawSolution, "solution")
    _as_kind(graph, AdmissibilityGraph, "graph")
    if set(solution.loop_z) == set(graph.loops):
        return solution
    canonical = tuple(range(1, len(graph.loops) + 1))
    if set(solution.loop_z) != set(canonical):
        raise InputError(
            f"solution labels {_shown(sorted(solution.loop_z))} match neither the graph loops "
            f"{_shown(sorted(graph.loops))} nor the canonical labels {list(canonical)}"
        )
    mapping = dict(zip(canonical, graph.loops))
    z = {mapping[lab]: val for lab, val in solution.loop_z.items()}
    return BoundaryLawSolution(solution.A, z, solution.branch, solution.residual)


@dataclass(frozen=True)
class RegimeReport:
    """Classification of one parameter point: thresholds, solution count, case.

    Lambda1/Lambda2 are None when the regime has no such threshold (single
    nonzero loop, or divergent input).  count is the number of
    translation-invariant Gibbs measures; case_label names the regime.
    """

    lam: float | None
    Lambda: float | None
    Lambda1: float | None
    Lambda2: float | None
    count: int
    case_label: str

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "Lambda": self.Lambda,
            "Lambda1": self.Lambda1,
            "Lambda2": self.Lambda2,
            "count": self.count,
            "case": self.case_label,
        }


def spec_from_json(data: dict) -> ActivitySpec:
    """Build an ActivitySpec from its JSON dict form.

    Schema: {"k": 2, "loops": {"1": 5.0}, "tail": {"3": 0.5}, "tail_mass": 0.5,
    "divergent": false}.  "loops" is required, everything else has defaults.
    A map key is the text str(label) of its label and nothing else, so no
    two keys name one label; ActivitySpec reads the values.
    """
    if not isinstance(data, dict):
        raise InputError("activity spec must be a JSON object")
    unknown = set(data) - _SCHEMA_KEYS
    if unknown:
        raise InputError(f"unknown keys in activity spec: {_shown(sorted(unknown, key=_shown))}")
    if "loops" not in data:
        raise InputError('activity spec needs a "loops" map')

    def parse_map(obj, name: str) -> dict:
        if not isinstance(obj, dict):
            raise InputError(f'"{name}" must be a map of integer strings to numbers')
        return {_key_label(key, name): val for key, val in obj.items()}

    k = data.get("k", 2)
    divergent = data.get("divergent", False)
    return ActivitySpec(
        loop_activities=parse_map(data["loops"], "loops"),
        explicit_tail=parse_map(data.get("tail", {}), "tail"),
        tail_mass=data.get("tail_mass", 0.0),
        k=k,
        divergent=divergent,
    )


def _key_label(key, name: str) -> int:
    """The label a key of the spec's name map is the str() of; InputError naming any other key."""
    if type(key) is str and _LABEL_KEY.fullmatch(key):
        try:
            return int(key)
        except ValueError as exc:  # more digits than int() reads
            raise InputError(f'"{name}" key of {len(key)} characters: {exc}') from None
    raise InputError(f'"{name}" key {_shown(key)} must be an integer label in plain decimal, as "-3"')


def require_finite(spec: ActivitySpec) -> float:
    """Total activity of a spec, read by _as_total."""
    return _as_total(_as_kind(spec, ActivitySpec, "spec").total_activity())
