"""Command-line interface: output formats, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hcgibbs
from hcgibbs import sampler, two_loop
from hcgibbs.chain import minimal_window, stationary_closed_form, transition_matrix
from hcgibbs.cli import (
    _MAX_CURVE_POINTS,
    _chain_csv_lines,
    _solve_spec,
    _spec_from_json,
    _spins_json,
    main,
)
from hcgibbs.model import ActivitySpec, graph_from_spec, relabel_solution
from hcgibbs.oracle import _MAX_STARTS
from hcgibbs.sampler import TreeSample, sample_forest
from hcgibbs.three_loop import ThreeLoopProblem, enumerate_solutions
from hcgibbs.two_loop import TwoLoopProblem, solve_unique
from reference import dense_matrix
from test_chain import WIDE


def _subprocess_env(**overrides) -> dict:
    """The environment plus overrides, with this checkout's package first on PYTHONPATH."""
    src = str(Path(hcgibbs.__file__).resolve().parent.parent)
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


A_12 = 1.0169168190675275
Z_12 = 0.7710929641358364


# frozen `solve` output; the residual fields come from ReducedSystem.defect,
# so these bytes also pin its arithmetic
SOLVE_TWO_LOOP_OUT = """\
[
  {
    "A": 1.0169168190675275,
    "z": {
      "1": 0.7710929641358364
    },
    "branch": "two-loop-g",
    "residual": 9.43689570931383e-16
  }
]
"""

SOLVE_LAMBDA9_130_OUT = """\
[
  {
    "A": 5.002247360676563,
    "z": {
      "1": 0.9467327685268366,
      "2": 0.9467327685268366
    },
    "branch": "symmetric",
    "residual": 3.552713678800501e-15
  },
  {
    "A": 5.173288205484982,
    "z": {
      "1": 1.6153120425734777,
      "2": 0.6190754316465215
    },
    "branch": "asymmetric-A1",
    "residual": 8.881784197001252e-16
  },
  {
    "A": 5.173288205484982,
    "z": {
      "1": 0.6190754316465215,
      "2": 1.6153120425734777
    },
    "branch": "asymmetric-A1-swapped",
    "residual": 8.881784197001252e-16
  },
  {
    "A": 7.342944893032319,
    "z": {
      "1": 5.553801998843018,
      "2": 0.18005683317632182
    },
    "branch": "asymmetric-A2",
    "residual": 8.881784197001252e-16
  },
  {
    "A": 7.342944893032319,
    "z": {
      "1": 0.18005683317632182,
      "2": 5.553801998843018
    },
    "branch": "asymmetric-A2-swapped",
    "residual": 8.881784197001252e-16
  }
]
"""


@pytest.fixture
def spec2(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"k": 2, "loops": {"1": 1.0}, "tail_mass": 1.0}))
    return str(path)


@pytest.fixture
def spec3(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"k": 2, "loops": {"1": 9.0, "2": 9.0}, "tail_mass": 112.0}))
    return str(path)


@pytest.fixture
def specdiv(tmp_path):
    path = tmp_path / "div.json"
    path.write_text(json.dumps({"k": 2, "loops": {"1": 1.0}, "divergent": True}))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_thresholds(capsys):
    data = run_json(capsys, ["thresholds", "--lambda", "9"])
    assert data["Lambda1"] == 126.0
    assert data["Lambda2"] == pytest.approx(144.81948217705747, rel=1e-12)
    assert data["lambda_star"] == pytest.approx(49.0 / 9.0, rel=1e-15)


def test_thresholds_bad_input(capsys):
    assert main(["thresholds", "--lambda", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["thresholds", "--lambda", "zebra"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--lambda", "1e120"],
        ["classify", "--lambda", "1e120", "--Lambda", "1e300"],
    ],
)
def test_threshold_overflow_is_bad_input(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


HUGE = "9" * 400  # a JSON integer beyond double range


@pytest.mark.parametrize(
    "spec",
    [
        '{"loops":{"1":%s}}' % HUGE,
        '{"loops":{"1":1.0},"tail":{"3":%s}}' % HUGE,
        '{"loops":{"1":1.0},"tail_mass":%s}' % HUGE,
    ],
    ids=["loops", "tail", "tail_mass"],
)
def test_spec_number_beyond_double_range_is_bad_input(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# the boundary scan's scale (1 + A)^3 overflows at these activities
OVERFLOW_SPECS = [
    '{"loops":{"1":1e300},"tail_mass":1e307}',
    '{"loops":{"1":1e300,"2":1e300},"tail_mass":1e307}',
]


@pytest.mark.parametrize("spec", OVERFLOW_SPECS, ids=["one-loop", "two-loop"])
@pytest.mark.parametrize(
    "argv", [["solve"], ["chain"], ["sample", "--depth", "2", "--seed", "0"]],
    ids=lambda argv: argv[0],
)
def test_overflowing_scale_is_numerical_failure(capsys, tmp_path, spec, argv):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main([argv[0], str(path), *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: no aggregate root")


def test_sweep_overflowing_scale_is_numerical_failure(capsys):
    assert main(["sweep", "--lambda-grid", "1e300", "--Lambda-grid", "1e308"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: no aggregate root")


@pytest.mark.parametrize(
    "spec, expected",
    [
        ('{"loops":{"1":1.0},"tail_mass":1.0}', SOLVE_TWO_LOOP_OUT),
        ('{"loops":{"1":9.0,"2":9.0},"tail_mass":112.0}', SOLVE_LAMBDA9_130_OUT),
    ],
)
def test_solve_output_bytes_frozen(capsys, tmp_path, spec, expected):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == expected


CLASSIFY_9_130_OUT = """\
{
  "lambda": 9.0,
  "Lambda": 130.0,
  "Lambda1": 126.0,
  "Lambda2": 144.81948217705747,
  "count": 5,
  "case": "iv"
}
"""

THRESHOLDS_9_OUT = """\
{
  "lambda": 9.0,
  "Lambda1": 126.0,
  "Lambda2": 144.81948217705747,
  "lambda_star": 5.444444444444445
}
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "--lambda", "9", "--Lambda", "130"], CLASSIFY_9_130_OUT),
        (["thresholds", "--lambda", "9"], THRESHOLDS_9_OUT),
    ],
)
def test_output_bytes_frozen(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


NARROW = '{"loops":{"1":1.0},"tail_mass":1.0}'
PAIR = '{"loops":{"-2":9.0,"3":9.0},"tail":{"-4":1.5,"1":0.5},"tail_mass":3.0}'
SAMPLE_ARGS = ["--depth", "5", "--trees", "4", "--seed", "11"]


# SHA-256 of json.dumps(parsed stdout, sort_keys=True), captured before the
# compact JSON writer; only whitespace inside scalar arrays may change.
# The PAIR `chain` digest was re-captured when `max_residual` moved to the
# fixed summation order of the structural product; no other field moved.
# The runs inherit the string hash seed: no output may depend on it.
@pytest.mark.parametrize(
    "spec, argv, digest",
    [
        (NARROW, ["sample", *SAMPLE_ARGS], "08260b9386e98cd02b007084e5c62942bc1ddb0b93104552d434076d0b10378e"),
        (PAIR, ["sample", *SAMPLE_ARGS], "f87bc546a66d82f8170c52a5fc6df724d0d34ec0275d2a745ff714063c435114"),
        (NARROW, ["chain"], "bde187d273b0d99a1723cda1cc3a1ec8fc4ec4f972fb45c756f88605a68684aa"),
        (PAIR, ["chain"], "c13bceb2caf0418e0b9e7dd21b8617a767f2546a612365bc1bf2d4e77e4fcf07"),
    ],
)
def test_parsed_output_frozen(tmp_path, spec, argv, digest):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    proc = subprocess.run(
        [sys.executable, "-m", "hcgibbs", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    canonical = json.dumps(json.loads(proc.stdout), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


FIVE = '{"loops":{"1":9.0,"2":9.0},"tail_mass":112.0}'


# SHA-256 of the exact stdout bytes of `chain`, in JSON and in CSV for each
# branch, captured before the row texts were memoized.  The JSON digests of
# FIVE (default window and 300), PAIR (default window and 44) and WIDE were
# re-captured when `max_residual` moved to the fixed summation order of the
# structural product; no other field moved.  The runs pin one BLAS thread;
# test_chain_bytes_ignore_the_blas_thread_count checks that two write the same.
@pytest.mark.parametrize(
    "spec, argv, digest",
    [
        (NARROW, [], "601f594c874b4450f6dacec39274b19136650484ed802a445c6972771d51aed9"),
        (NARROW, ["--branch", "two-loop-g"], "b2251038f0c34b6a5ccae3ea30a9f8c3613ab2c37e467c6fe5247d1d72f678a7"),
        (FIVE, [], "6a70349aa628543f511ea72ffaac541786c3057439ef7f92886441930898a2ed"),
        (FIVE, ["--branch", "symmetric"], "de5fdeebe679eb0b390315cf42593430a32b8a5588c00e1ec8181a4ed8bb5d46"),
        (FIVE, ["--branch", "asymmetric-A1"], "d8f21c35068de3c11235e2d1a15b62fd73687ec5066b983de2fb2a049ccabe3c"),
        (FIVE, ["--branch", "asymmetric-A1-swapped"], "9b0118a7841a7e73724cece6f0efc95586d752e7ef1d8b55d4dced22588f3724"),
        (FIVE, ["--branch", "asymmetric-A2"], "8db21da06c228a28227f4c4ddd0ec7914d8b86fb9553b19908a291d6e021dd98"),
        (FIVE, ["--branch", "asymmetric-A2-swapped"], "88278ec45b3a4f71b728f6300228b465603e2eeac855a093d4835470b33dee04"),
        (PAIR, [], "955b636b5c5031921e759a98d6de1171b8527f2cc3766191572147cdc2400a1f"),
        (PAIR, ["--branch", "symmetric"], "d699dd3dc0eebd3f6a5385899cdff682f910cecae9e6eb762c5721d15c21f84e"),
        (PAIR, ["--branch", "asymmetric-A1"], "47d9d7a0bdcc6a2072a6b6b1ba880afff97c084ceddddd66fbc43461a768ab2f"),
        (PAIR, ["--branch", "asymmetric-A1-swapped"], "740ab5e9bb5e6b73db3eebeaed2bebcb768c19592b1b07d44553b9a0fecfa27a"),
        (PAIR, ["--window", "44"], "b9ecff12e1718c683df362ad7083956617e8b49237129b0e62cd629dbc6aa6c7"),
        (PAIR, ["--window", "44", "--branch", "symmetric"], "09076a8ea07d95ca32e0f0b4ac828ded1b337309e8a73707c13a14a8a2405398"),
        (PAIR, ["--window", "44", "--branch", "asymmetric-A1"], "4dcef048390e57a66940d095b70e61f578e6654371e614612d6086ae959b9aea"),
        (PAIR, ["--window", "44", "--branch", "asymmetric-A1-swapped"], "05ff725e39d54753a340151ebfde918ab24d17e59a3c1a8c686a83c13629973f"),
        pytest.param(json.dumps(WIDE), [], "0df900dfe7afdb1ef9b1787670c627dcaab8d5bc579fc4cc154e9bd993a21b34", id="wide"),
        pytest.param(json.dumps(WIDE), ["--branch", "asymmetric-A1"], "e965b06474f3d05e3b7163f81bd2ef11a9c9e9544fda90fc4810cdce2215d4d5", id="wide-asymmetric-A1"),
        (FIVE, ["--window", "300"], "e582f6934fac821dfd442b01925bec8cb24ad7a99ebe182baff7d78bac1c2c28"),
        (FIVE, ["--window", "300", "--branch", "asymmetric-A2"], "ebf37a20edea852265629c37bddf2b99aa64ced007ca5f560ffe94381e23186d"),
    ],
)
def test_chain_output_bytes_frozen(tmp_path, spec, argv, digest):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    if "--branch" in argv:
        argv = [*argv, "--format", "csv"]
    proc = subprocess.run(
        [sys.executable, "-m", "hcgibbs", "chain", str(path), *argv],
        capture_output=True,
        env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("spec, argv", [(json.dumps(WIDE), []), (FIVE, ["--window", "300"])],
                         ids=["wide", "five-window-300"])
def test_chain_bytes_ignore_the_blas_thread_count(tmp_path, spec, argv):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    outs = [
        subprocess.run(
            [sys.executable, "-m", "hcgibbs", "chain", str(path), *argv],
            capture_output=True,
            env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]


# SHA-256 of the exact stdout bytes of `sample` for forests that span three
# draw blocks each, captured before the trees were drawn in blocks
@pytest.mark.parametrize(
    "spec, argv, digest",
    [
        pytest.param(NARROW, ["--depth", "12", "--trees", "12", "--seed", "5"],
                     "34fcb61e710fb2f5cd0f548fde34edd32c82de53964bb936de14905182ab7c93", id="narrow"),
        pytest.param(json.dumps(WIDE), ["--depth", "11", "--trees", "30", "--seed", "5"],
                     "a0e5043f2fe94d3d31a9ea61f80ae4db7925e9b6a1fdee8bd6ad561f715fa68f", id="wide"),
    ],
)
def test_sample_output_bytes_frozen(tmp_path, spec, argv, digest):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    proc = subprocess.run(
        [sys.executable, "-m", "hcgibbs", "sample", str(path), *argv],
        capture_output=True,
        env=_subprocess_env(OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_sample_writes_from_index_arrays(capsys, monkeypatch, tmp_path):
    def labels(self):
        raise AssertionError("the sample command read TreeSample.spins")

    monkeypatch.setattr(TreeSample, "spins", property(labels))
    path = tmp_path / "spec.json"
    path.write_text(PAIR)
    assert main(["sample", str(path), *SAMPLE_ARGS]) == 0
    out = capsys.readouterr().out
    spins_lines = [line for line in out.split("\n") if '"spins": [' in line]
    assert len(spins_lines) == 4
    assert all(line.endswith("]") for line in spins_lines)


# the widest integer tokens the state cap allows, beside "TAIL"
EDGES = '{"loops":{"1":1.0},"tail":{"-2047":1.0,"2047":1.0},"tail_mass":1.0}'


def _forest(spec_text, depth, trees, seed=3, window=None):
    """The forest `sample` draws for these flags, on the spec's first solution."""
    spec = _spec_from_json(json.loads(spec_text))
    graph = graph_from_spec(spec)
    sol = _solve_spec(spec, graph, None)[0]
    return sample_forest(transition_matrix(sol, spec, graph, window), depth, trees, seed)


@pytest.mark.parametrize(
    "spec, depth, trees, window",
    [
        pytest.param(NARROW, 6, 5, None, id="narrow"),
        pytest.param(json.dumps(WIDE), 6, 5, 300, id="wide"),
        pytest.param(EDGES, 6, 5, 2047, id="labels-2047"),
        pytest.param(NARROW, 0, 3, None, id="depth-0"),
        pytest.param(NARROW, 15, 1, None, id="over-one-chunk"),
    ],
)
def test_spins_json_matches_json_dumps(spec, depth, trees, window):
    forest = _forest(spec, depth, trees, window=window)
    texts = _spins_json(forest)
    assert len(texts) == trees
    for tree, text in zip(forest, texts):
        assert text == json.dumps(list(tree.spins))
    if window == 2047:
        assert {-2047, 2047, "TAIL"} <= {s for tree in forest for s in tree.spins}
    if depth == 15:
        assert len(forest[0].index) > sampler._BLOCK_VERTICES


def test_sample_spins_parse_to_the_drawn_labels(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(EDGES)
    argv = ["--depth", "6", "--trees", "3", "--seed", "4", "--window", "2047"]
    data = run_json(capsys, ["sample", str(path), *argv])
    forest = _forest(EDGES, 6, 3, seed=4, window=2047)
    assert [s["spins"] for s in data["samples"]] == [list(tree.spins) for tree in forest]


def test_spins_json_memory_is_small_beside_its_text():
    """Encoding a deep tree holds little beyond the text it returns."""
    forest = _forest(NARROW, 20, 1)
    tracemalloc.start()
    try:
        texts = _spins_json(forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(texts[0])  # 10 MiB of text


def test_solve_two_loop(capsys, spec2):
    sols = run_json(capsys, ["solve", spec2])
    assert len(sols) == 1
    assert sols[0]["branch"] == "two-loop-g"
    assert sols[0]["A"] == pytest.approx(A_12, rel=1e-12)
    assert sols[0]["z"]["1"] == pytest.approx(Z_12, rel=1e-12)
    assert sols[0]["residual"] < 1e-10


def test_solve_three_loop(capsys, spec3):
    sols = run_json(capsys, ["solve", spec3])
    assert len(sols) == 5
    branches = {s["branch"] for s in sols}
    assert branches == {
        "symmetric",
        "asymmetric-A1",
        "asymmetric-A1-swapped",
        "asymmetric-A2",
        "asymmetric-A2-swapped",
    }
    assert all(s["residual"] < 1e-10 for s in sols)


def test_solve_divergent_exit_code(capsys, specdiv):
    assert main(["solve", specdiv]) == 3
    assert capsys.readouterr().err.startswith("no TIGM")


def test_solve_graph_mode_mismatch(capsys, spec2):
    assert main(["solve", spec2, "--graph", "three-loop"]) == 2


def test_solve_missing_file(capsys, tmp_path):
    assert main(["solve", str(tmp_path / "absent.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", str(broken)]) == 2


# spec files that json.loads or the read refuse with other than a JSONDecodeError
BAD_SPEC_FILES = {
    "not UTF-8": b"\xff\xfe",
    "nested past the recursion limit": b'{"loops": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    "a 5001-digit integer": b'{"loops": {"1": 1' + b"0" * 5000 + b"}}",
}


@pytest.mark.parametrize("content", BAD_SPEC_FILES.values(), ids=BAD_SPEC_FILES.keys())
def test_unreadable_spec_file_is_bad_input(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read spec file")


def test_solve_graph_two_loop_on_a_two_loop_spec(capsys, spec3):
    assert main(["solve", spec3, "--graph", "two-loop"]) == 2
    assert capsys.readouterr().err.startswith("error: --graph two-loop")


@pytest.mark.parametrize(
    "text",
    [
        '{"loops":{"1":5.0,"01":7.0},"tail_mass":10.0}',  # solved lambda = 7 at exit 0
        '{"loops":{"1":5.0},"tail":{"2":1.0,"+2":3.0}}',  # kept only 3.0
        '{"loops":{"1":5.0},"tail":{"1_0":1.0," 2 ":1.0}}',  # labels 10 and 2
        '{"loops":{"1":5.0,"1":7.0}}',  # the second value kept
        '{"loops":{"1":5.0},"tail":{"2":1.0},"tail":{"3":1.0}}',
    ],
    ids=["leading zero", "plus sign", "underscore and spaces", "repeated label", "repeated map"],
)
@pytest.mark.parametrize("command", [["solve"], ["chain"], ["sample", "--depth=1", "--seed=1"]],
                         ids=["solve", "chain", "sample"])
def test_spec_key_that_collapses_onto_another_is_bad_input(capsys, tmp_path, text, command):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "key" in captured.err


def test_sweep_grid_that_is_not_numbers_is_bad_input(capsys):
    assert main(["sweep", "--lambda-grid", "abc", "--Lambda-grid", "100"]) == 2
    assert capsys.readouterr().err.startswith("error: --lambda-grid")


def test_classify(capsys):
    data = run_json(capsys, ["classify", "--lambda", "9", "--Lambda", "130"])
    assert data["case"] == "iv"
    assert data["count"] == 5
    assert data["Lambda1"] == 126.0


def test_classify_divergent(capsys):
    data = run_json(capsys, ["classify", "--divergent"])
    assert data["count"] == 0
    assert data["case"] == "divergent"


def test_classify_missing_flags(capsys):
    assert main(["classify", "--lambda", "9"]) == 2


def test_chain_json(capsys, spec3):
    data = run_json(capsys, ["chain", spec3])
    assert data["window"] == 2
    assert len(data["solutions"]) == 5
    for entry in data["solutions"]:
        assert entry["report"]["passed"] is True
        assert entry["report"]["max_residual"] < 1e-10
        assert entry["irreducible"] is True
        assert entry["matrix"]["states"] == [-2, -1, 0, 1, 2, "TAIL"]


def test_scalar_arrays_written_on_one_line(capsys, spec3):
    assert main(["chain", spec3]) == 0
    lines = [line.strip() for line in capsys.readouterr().out.split("\n")]
    # a line that opens an array and does not end there holds the whole array
    opened = [line for line in lines if "[" in line and not line.endswith("[")]
    assert any(line.startswith('"probabilities": [') for line in opened)
    assert sum(line.startswith("[") for line in opened) == 5 * 6  # matrix rows
    assert all(line.endswith(("]", "],")) for line in opened)


def test_chain_csv_round_trip(capsys, spec2):
    rc = main(["chain", spec2, "--format", "csv", "--branch", "two-loop-g"])
    out = capsys.readouterr().out
    assert rc == 0
    matrix_text, dist_text = out.split("\n\n")
    lines = matrix_text.strip().split("\n")
    assert lines[0] == "-1,0,1,TAIL"
    parsed = [[float(tok) for tok in line.split(",")] for line in lines[1:]]

    spec = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    graph = graph_from_spec(spec)
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    assert parsed == dense_matrix(transition_matrix(sol, spec, graph, 1)).tolist()

    dlines = dist_text.strip().split("\n")
    sd = stationary_closed_form(sol, spec, graph, 1)
    for j, tok in enumerate(dlines[1].split(",")):
        assert float(tok) == sd.probabilities[j]


def test_chain_unknown_branch(capsys, spec2):
    assert main(["chain", spec2, "--format", "csv", "--branch", "nope"]) == 2


def test_chain_unknown_branch_in_json(capsys, spec2):
    # without --format the document is JSON, which lists every branch; the
    # flag is still checked, as in csv mode and in `sample`
    assert main(["chain", spec2, "--branch", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no solution on branch 'nope'; available: ['two-loop-g']" in captured.err
    assert main(["chain", spec2, "--branch", "two-loop-g"]) == 0
    named = capsys.readouterr().out
    assert main(["chain", spec2]) == 0
    assert capsys.readouterr().out == named


def test_chain_csv_named_branch(capsys, spec3):
    spec = ActivitySpec(loop_activities={1: 9.0, 2: 9.0}, tail_mass=112.0)
    graph = graph_from_spec(spec)
    window = minimal_window(spec)
    for sol in enumerate_solutions(ThreeLoopProblem(9.0, 130.0)):
        sol = relabel_solution(sol, graph)
        assert main(["chain", spec3, "--format", "csv", "--branch", sol.branch]) == 0
        expected = "".join(_chain_csv_lines(transition_matrix(sol, spec, graph, window)))
        assert capsys.readouterr().out == expected


def test_chain_window_too_small(capsys, spec3):
    assert main(["chain", spec3, "--window", "1"]) == 2


def test_sample_deterministic(capsys, spec2):
    argv = ["sample", spec2, "--depth", "4", "--trees", "3", "--seed", "7"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert first == second
    assert len(first["samples"]) == 3
    assert first["admissible_fraction"] == 1.0
    assert abs(sum(first["marginal"].values()) - 1.0) < 1e-12
    assert all(isinstance(key, str) for key in first["marginal"])
    assert first["tv_to_stationary"] < 0.5


def test_sample_unknown_branch(capsys, spec2):
    assert main(["sample", spec2, "--depth", "2", "--seed", "1", "--branch", "nope"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--depth", "3", "--seed", "1", "--window", "100000"],
        ["chain", "--window", "100000"],
        ["sample", "--depth", "200", "--seed", "1"],
    ],
)
def test_oversized_requests_are_bad_input(capsys, spec2, argv):
    assert main([argv[0], spec2, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_sweep_grid(capsys):
    rc = main(["sweep", "--lambda-grid", "9", "--Lambda-grid", "100,130,200"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,Lambda,count_closed_form,count_oracle,agree"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[2], r[3], r[4]) for r in rows] == [
        ("3", "3", "true"),
        ("5", "5", "true"),
        ("1", "1", "true"),
    ]


def test_sweep_skips_inconsistent_cells(capsys):
    rc = main(["sweep", "--lambda-grid", "9", "--Lambda-grid", "10"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "lambda,Lambda,count_closed_form,count_oracle,agree"
    assert "skipping" in captured.err


@pytest.mark.parametrize("lams, Lambdas", [("nan", "60"), ("9", "nan"), ("inf", "60")])
def test_sweep_grid_nan_or_infinite_loop_is_bad_input(capsys, lams, Lambdas):
    rc = main(["sweep", "--lambda-grid", lams, "--Lambda-grid", Lambdas])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_sweep_infinite_total_activity_is_no_tigm(capsys):
    assert main(["sweep", "--lambda-grid", "9", "--Lambda-grid", "inf"]) == 3
    assert capsys.readouterr().err.startswith("no TIGM:")


def test_sweep_empty_grid(capsys):
    rc = main(["sweep", "--lambda-grid", "", "--Lambda-grid", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "lambda,Lambda,count_closed_form,count_oracle,agree"
    assert captured.err == ""


def test_sweep_missing_arguments(capsys):
    assert main(["sweep", "--lambda-grid", "9"]) == 2


def test_sweep_negative_seed_is_bad_input(capsys, monkeypatch):
    def cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("hcgibbs.cli.multistart_count", cell)
    assert main(["sweep", "--lambda-grid", "9", "--Lambda-grid", "100", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seed")


def test_sweep_starts_over_cap_is_bad_input(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("starts were drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    argv = ["sweep", "--lambda-grid", "9", "--Lambda-grid", "130", "--starts", str(_MAX_STARTS + 1)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: n_starts")


def test_sweep_curve_identity(capsys):
    x = 2.5
    rc = main(
        ["sweep", "--emit-curves", "f,g", "--x", str(x), "--Lambda", "6", "--points", "50"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,f,g"
    assert len(lines) == 51
    for line in lines[1:]:
        lam, f, g = (float(tok) for tok in line.split(","))
        gap = 2.0 * x**3 * math.sqrt(x * x - 4.0 * lam)
        assert f - g == pytest.approx(gap, abs=1e-10)
    assert float(lines[-1].split(",")[0]) == pytest.approx(x * x / 4.0, rel=1e-15)


def test_sweep_curve_pair_names(capsys):
    rc = main(
        ["sweep", "--emit-curves", "h,delta", "--x", "2.0", "--Lambda", "10", "--points", "10"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("lambda,h,delta")
    assert main(["sweep", "--emit-curves", "f,h", "--x", "2.0", "--Lambda", "10"]) == 2
    assert main(["sweep", "--emit-curves", "f,g", "--Lambda", "10"]) == 2


# SHA-256 of the exact stdout bytes of `sweep --emit-curves` at 200 points,
# captured before h_curve and delta_curve shared two_loop's radicand; the
# last row of each sits on the radicand's zero
@pytest.mark.parametrize(
    "pair, x, Lambda, digest",
    [
        ("f,g", "2.5", "6", "d77ec6a3b034aa7310e0021c4fd8800f55b8572384db07368a6ed7adf03371cf"),
        ("f,g", "37.25", "1e5", "5abc8ca575d94e0c5ff554aab3852a9163dcf44dbb7ab6b0ec6673e7b765d432"),
        ("h,delta", "2.0", "10", "81f17533a5a46f32c818f3ff321fee2d9290fdf69150dc565939ed228b8cf33c"),
        ("h,delta", "13.5", "500", "69388814b5e4ba8b7400c8b62089a4277e8fa6355188c2f50d7cebd2d8e06804"),
    ],
)
def test_sweep_curve_bytes_frozen(capsys, pair, x, Lambda, digest):
    argv = ["sweep", "--emit-curves", pair, "--x", x, "--Lambda", Lambda, "--points", "200"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("points", [0, -3, _MAX_CURVE_POINTS + 1])
def test_sweep_curve_points_out_of_range(capsys, monkeypatch, points):
    def no_rows(*args):
        raise AssertionError("a curve row was computed")

    monkeypatch.setattr(two_loop, "f_curve", no_rows)
    argv = ["sweep", "--emit-curves", "f,g", "--x", "2.5", "--Lambda", "6", f"--points={points}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --points")


# 1e200 overflows h,delta's bound (1 + x)**2 before any curve runs
@pytest.mark.parametrize("x", ["1e100", "1e200", "inf"])
@pytest.mark.parametrize("pair", ["f,g", "h,delta"])
def test_sweep_curve_overflow_is_bad_input(capsys, pair, x):
    argv = ["sweep", "--emit-curves", pair, "--x", x, "--Lambda", "6", "--points", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("target", ["missing/thr.json", "."])
def test_unwritable_out_is_bad_input(tmp_path, capsys, target):
    rc = main(["thresholds", "--lambda", "4", "--out", str(tmp_path / target)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")


# documents of megabytes, far more than a pipe or a write buffer holds
LARGE_OUTPUTS = [
    ["chain", "--window", "300"],
    ["sample", "--depth", "12", "--trees", "20", "--seed", "1"],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", LARGE_OUTPUTS, ids=lambda argv: argv[0])
def test_failed_write_is_bad_input(capsys, spec3, argv):
    assert main([argv[0], spec3, *argv[1:], "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /dev/full")


@pytest.mark.parametrize("argv", LARGE_OUTPUTS, ids=lambda argv: argv[0])
def test_closed_stdout_ends_quietly(spec3, argv):
    with subprocess.Popen(
        [sys.executable, "-m", "hcgibbs", argv[0], spec3, *argv[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    ) as proc:
        assert proc.stdout.read(5) == b"{\n  \""
        proc.stdout.close()  # as `| head -c 5` does
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    assert err == b""


def test_sample_output_independent_of_hash_seed(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(PAIR)
    outputs = []
    for hash_seed in ("0", "30"):
        argv = ["sample", str(path), "--depth", "6", "--trees", "5", "--seed", "3"]
        proc = subprocess.run([sys.executable, "-m", "hcgibbs", *argv],
                              capture_output=True, env=_subprocess_env(PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "thr.json"
    rc = main(["thresholds", "--lambda", "4", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["Lambda1"] == 24.0


def test_console_script():
    proc = subprocess.run(
        ["hcgibbs", "thresholds", "--lambda", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["Lambda1"] == 24.0
    assert data["Lambda2"] == pytest.approx(25.63659945443753, rel=1e-12)


def test_cli_import_leaves_scipy_out():
    code = "import sys, hcgibbs.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # the bench times this import (setup_s), so the modules it loads are pinned too
    code = "import sys, hcgibbs.cli; print(sorted(m for m in sys.modules if m.startswith('hcgibbs')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    modules = ["boundary_law", "chain", "cli", "errors", "model", "oracle", "rootfind", "sampler",
               "three_loop", "two_loop"]
    assert proc.stdout.strip() == str(["hcgibbs", *(f"hcgibbs.{m}" for m in modules)])


def test_model_import_loads_only_model_and_errors():
    # the package root re-exports nothing, so importing one submodule
    # loads that submodule's own imports only
    code = ("import sys, hcgibbs.model; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('hcgibbs', 'numpy')))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["hcgibbs", "hcgibbs.errors", "hcgibbs.model"])


def test_python_dash_m():
    proc = subprocess.run(
        [sys.executable, "-m", "hcgibbs", "thresholds", "--lambda", "9"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["Lambda1"] == 126.0
