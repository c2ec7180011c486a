"""Tests of the benchmark's own code: span arithmetic, the tail rule,
metric names, and that tracing leaves the package as it found it.

Run with `python3 -m pytest bench/tests`.
"""

import json
import re

import pytest

import metrics
import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_of_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, -1, 10.0),
        S("a", 1.0, 0, 4.0),
        S("a.child", 2.0, 1, 3.0),
        S("b", 5.0, 0, 9.0),
        S("other-root", 20.0, -1, 21.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0 + 1.5)


def test_tracer_records_parents_and_self_times_add_up():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)
    with tracer.span("root"):
        traced_leaf(1)
        with tracer.span("mid"):
            traced_leaf(2)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("root", -1), ("leaf", 0), ("mid", 0), ("leaf", 2)]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


@pytest.mark.parametrize("n, pct, index", [(11, 100.0 / 11, 0), (52, 4200.0 / 52, 41),
                                            (100, 90.0, 89), (1000, 99.0, 989)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, index):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    got_pct, got = metrics.tail_percentile(values)
    assert got_pct == pytest.approx(pct)
    assert got == sorted(values)[index]
    assert sum(v > got for v in values) == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_percentile_needs_more_than_ten(n):
    assert metrics.tail_percentile(range(n)) is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END_UNITS
    assert layer == metrics.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert all(w in metrics.END_TO_END_SOURCE["work_per_s"] for w in metrics.WORKLOADS)
    for name in [*e2e, *layer, *metrics.DETAIL_UNITS, *metrics.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_end_to_end_has_every_metric_on_every_workload():
    ops = [
        {"kind": "cell.m1", "wall": 0.5, "ok": True},
        {"kind": "cell.m2", "wall": 0.1, "ok": True},
        {"kind": "chain", "wall": 2.0, "ok": True},
        {"kind": "sample", "wall": 2.0, "ok": True, "vertices": 1000},
        {"kind": "sample", "wall": 1.0, "ok": False, "vertices": 0},
    ]
    details = {"setup_s": (0.5, 5, ""), "peak_rss_mb": (100.0, 1, ""), **metrics.detail(ops)}
    assert details["op_fail_frac"][0] == pytest.approx(0.2)
    assert details["cells_per_s"][0] == pytest.approx(2 / 0.6)
    assert details["vertices_per_s"][:2] == (500.0, 1)
    assert details["sample_p50_s"][0] == pytest.approx(1.5)
    assert details["grid_cell_p50_s"][0] == pytest.approx(0.1)
    for w in metrics.WORKLOADS:
        got = metrics.end_to_end(w, details)
        assert list(got) == list(metrics.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in got.values())


def test_parse_importtime_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:      1000 |       1000 |       scipy.sparse",
        "import time:        50 |       1350 |     hcgibbs.chain",
        "import time:         7 |          7 | json",
        "import time:        30 |       1380 | hcgibbs",
    ])
    got = metrics.parse_importtime(text)
    assert got == pytest.approx({"import.numpy_s": 3e-4, "import.scipy_s": 1e-3,
                                 "import.hcgibbs_s": 8e-5})


def test_traced_run_restores_every_patched_attribute(tmp_path):
    targets = tracing.patch_targets()
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in originals)
        wl = workloads.Workload("sample-narrow", 3, tmp_path)
        sample = wl._sample(workloads._rng(3, 0), 2, 2, 0.5)
        cell = workloads.SweepCell(2, 9.0, 130.0)
        for op in (sample, cell):
            with tracer.span("op"):
                result = op.execute()
            assert op.check(result).ok
    finally:
        tracer.restore()
    for mod, attr, orig in originals:
        assert getattr(mod, attr) is orig, f"{mod.__name__}.{attr}"

    layer = metrics.layers(tracer.spans, 1)
    assert layer["oracle.calls"] == 1 and layer["oracle.clusters"] == 5
    assert layer["oracle.busy_s.m2"] == layer["oracle.busy_s"] > 0
    assert layer["closed_form.solutions"] == 6  # 1 single-loop + 5 two-loop
    assert layer["sampler.vertices"] == workloads.tree_vertices(2, 2)
    assert layer["chain.states"] == 4 and layer["chain.dense_bytes"] == 128
