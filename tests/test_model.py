"""Domain type validation, adjacency structure, and JSON round trips."""

import json
import math
import re

import numpy as np
import pytest

from hcgibbs.errors import DivergentActivities, InputError
from hcgibbs.model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    RegimeReport,
    check_spec_graph,
    graph_from_spec,
    relabel_solution,
    require_finite,
    spec_from_json,
    spec_to_json,
)


def test_spec_basic_fields():
    spec = ActivitySpec(loop_activities={1: 2.0}, explicit_tail={3: 0.5}, tail_mass=1.5)
    assert spec.k == 2
    assert spec.listed() == {1: 2.0, 3: 0.5}
    assert spec.total_activity() == pytest.approx(4.0)


def test_spec_rejects_zero_label():
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={0: 1.0})
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1: 1.0}, explicit_tail={0: 1.0})


def test_spec_rejects_bad_activity():
    for bad in (0.0, -1.0, math.inf, math.nan, 10**400, "abc", "5", None, [1], True):
        with pytest.raises(InputError):
            ActivitySpec(loop_activities={1: bad})
        with pytest.raises(InputError):
            ActivitySpec(loop_activities={1: 1.0}, explicit_tail={2: bad})
    for bad in ("x", None, [1], True):
        with pytest.raises(InputError):
            ActivitySpec(loop_activities={1: 1.0}, tail_mass=bad)
    # numpy scalars are real numbers
    spec = ActivitySpec(loop_activities={1: np.int64(3), 2: np.float32(2.5)}, tail_mass=np.float64(1.0))
    assert spec.loop_activities == {1: 3.0, 2: 2.5} and spec.tail_mass == 1.0
    assert all(type(v) is float for v in [*spec.loop_activities.values(), spec.tail_mass])


def test_spec_rejects_non_integer_label():
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1.5: 1.0})
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={True: 1.0})


def test_spec_requires_a_loop():
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={})


def test_spec_rejects_overlap():
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1: 1.0}, explicit_tail={1: 0.5})


def test_spec_rejects_bad_tail_mass():
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1: 1.0}, tail_mass=-0.5)
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1: 1.0}, tail_mass=math.inf)


def test_spec_rejects_bad_k():
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1: 1.0}, k=0)
    with pytest.raises(InputError):
        ActivitySpec(loop_activities={1: 1.0}, k=True)


def test_divergent_total_activity():
    spec = ActivitySpec(loop_activities={1: 1.0}, divergent=True)
    assert spec.total_activity() == math.inf
    with pytest.raises(DivergentActivities):
        require_finite(spec)


def test_adjacency_hub_and_loops():
    g = AdmissibilityGraph((1, 2))
    # the hub is adjacent to everything including itself
    assert g.adjacency(0, 0) == 1
    assert g.adjacency(0, 7) == 1
    assert g.adjacency(-3, 0) == 1
    # self loops only at the declared vertices
    assert g.adjacency(1, 1) == 1
    assert g.adjacency(2, 2) == 1
    assert g.adjacency(3, 3) == 0
    # distinct nonzero values are never adjacent
    assert g.adjacency(1, 2) == 0
    assert g.adjacency(5, -5) == 0


def test_adjacency_treats_tail_as_non_loop():
    g = AdmissibilityGraph((1,))
    assert g.adjacency(0, "TAIL") == 1
    assert g.adjacency("TAIL", 0) == 1
    assert g.adjacency("TAIL", "TAIL") == 0
    assert g.adjacency("TAIL", 1) == 0


def test_graph_loop_count_limits():
    with pytest.raises(InputError):
        AdmissibilityGraph(())
    with pytest.raises(InputError):
        AdmissibilityGraph((1, 2, 3))
    with pytest.raises(InputError):
        AdmissibilityGraph((1, 1))
    with pytest.raises(InputError):
        AdmissibilityGraph((0,))


def test_graph_sorts_loops():
    assert AdmissibilityGraph((5, -2)).loops == (-2, 5)


def test_graph_from_spec_and_check():
    spec = ActivitySpec(loop_activities={2: 1.0, 1: 1.0})
    g = graph_from_spec(spec)
    assert g.loops == (1, 2)
    check_spec_graph(spec, g)
    with pytest.raises(InputError):
        check_spec_graph(spec, AdmissibilityGraph((1, 3)))


def test_relabel_solution():
    sol = BoundaryLawSolution(A=1.0, loop_z={1: 0.5, 2: 0.7}, branch="b", residual=0.0)
    g = AdmissibilityGraph((4, 9))
    moved = relabel_solution(sol, g)
    assert moved.loop_z == {4: 0.5, 9: 0.7}
    assert moved.A == sol.A and moved.branch == sol.branch
    # already matching labels pass through unchanged
    same = relabel_solution(moved, g)
    assert same.loop_z == moved.loop_z
    with pytest.raises(InputError):
        relabel_solution(BoundaryLawSolution(1.0, {3: 0.5}, "b", 0.0), g)


def test_solution_json_dict():
    sol = BoundaryLawSolution(A=2.0, loop_z={2: 0.25, 1: 0.5}, branch="x", residual=1e-15)
    d = sol.to_json_dict()
    assert d["A"] == 2.0
    assert d["z"] == {"1": 0.5, "2": 0.25}
    assert d["branch"] == "x"


def test_regime_report_json_dict():
    rep = RegimeReport(9.0, 130.0, 126.0, 144.8, 5, "iv")
    d = rep.to_json_dict()
    assert d == {
        "lambda": 9.0,
        "Lambda": 130.0,
        "Lambda1": 126.0,
        "Lambda2": 144.8,
        "count": 5,
        "case": "iv",
    }


def test_spec_json_round_trip():
    spec = ActivitySpec(
        loop_activities={1: 9.0, 2: 9.0}, explicit_tail={-3: 0.25}, tail_mass=0.75
    )
    again = spec_from_json(spec_to_json(spec))
    assert again == spec
    # negative, multi-digit and long labels, through JSON text too
    spec = ActivitySpec(loop_activities={-12: 9.0, 30: 9.0},
                        explicit_tail={-3: 0.25, 7: 1.5, 10**40: 2.0}, tail_mass=0.75)
    assert spec_from_json(spec_to_json(spec)) == spec
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_spec_json_defaults():
    spec = spec_from_json({"loops": {"1": 1.0}})
    assert spec.k == 2
    assert spec.tail_mass == 0.0
    assert spec.explicit_tail == {}
    assert spec.divergent is False


def test_spec_json_rejects_unknown_keys():
    with pytest.raises(InputError):
        spec_from_json({"loops": {"1": 1.0}, "extra": 1})


def test_spec_json_requires_loops():
    with pytest.raises(InputError):
        spec_from_json({"tail_mass": 1.0})


def test_spec_json_rejects_bad_keys_and_values():
    with pytest.raises(InputError):
        spec_from_json({"loops": {"one": 1.0}})
    with pytest.raises(InputError):
        spec_from_json({"loops": {"1": "big"}})
    with pytest.raises(InputError):
        spec_from_json({"loops": [1.0]})
    with pytest.raises(InputError):
        spec_from_json([1, 2])


# keys that are not the str() of a label.  int() reads all but the last
# four, so each of those used to name a label silently, and "01" next to
# "1" dropped one of the two values
NOT_STR_OF_A_LABEL = ["01", "00", "+2", "1_0", " 2 ", "2\n", "-0", "\u0663", "\uff11", 1,
                      "--1", "1.0", "", None]


@pytest.mark.parametrize("key", NOT_STR_OF_A_LABEL)
@pytest.mark.parametrize("name", ["loops", "tail"])
def test_spec_json_map_key_must_be_str_of_its_label(name, key):
    doc = {"loops": {"1": 5.0}, "tail_mass": 10.0}
    doc[name] = {**doc.get(name, {}), key: 7.0}
    with pytest.raises(InputError, match=f'"{name}" key {re.escape(repr(key))} must be'):
        spec_from_json(doc)


def test_spec_json_unknown_keys_of_mixed_types_are_bad_input():
    with pytest.raises(InputError, match=r"unknown keys in activity spec: \['a', 1\]"):
        spec_from_json({1: 2, "a": 3})  # used to raise TypeError from sorted()


@pytest.mark.parametrize("divergent", ["yes", 1, None, 0.0])
def test_divergent_flag_that_is_not_a_bool_is_bad_input(divergent):
    with pytest.raises(InputError, match="divergent must be a boolean"):
        spec_from_json({"loops": {"1": 1.0}, "divergent": divergent})


def test_a_label_past_the_int_text_limit_is_refused_in_a_document():
    huge = 10**5000  # Python writes no int of more than 4300 digits
    for write in (lambda: BoundaryLawSolution(1.0, {huge: 0.5}, "x", 0.0).to_json_dict(),
                  lambda: spec_to_json(ActivitySpec(loop_activities={huge: 1.0})),
                  lambda: spec_to_json(ActivitySpec({1: 1.0}, explicit_tail={-huge: 1.0}))):
        with pytest.raises(InputError, match="integer of 16610 bits>"):
            write()
