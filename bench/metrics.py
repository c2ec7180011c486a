"""Metric definitions and their arithmetic: end-to-end from operation
records, per-layer from trace spans, set-up from `python -X importtime`.

Every workload reports the same end-to-end metrics.  Two of them take the
workload's own operation (END_TO_END_SOURCE):

  metric       oracle-sweep      sample-narrow    wide-window
  work_per_s   cells_per_s       vertices_per_s   vertices_per_s
  op_p50_s     grid_cell_p50_s   sample_p50_s     chain_s

On oracle-sweep the median takes the regime-grid cells only, the cells
`hcgibbs sweep` computes.  Their inputs are the same in every run, while
the median over all cells falls between the grid's cluster near 0.15 s
and the slow cells above 0.27 s, and moves by 25% with the seed.

The detailed view (DETAIL_UNITS) keeps the finer names, with a sample count
each, and marks a name that has no samples on a workload as n/a.
"""

from __future__ import annotations

import statistics

from tracing import Span, self_times

WORKLOADS = ("oracle-sweep", "sample-narrow", "wide-window")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_s": "s",
}

END_TO_END_SOURCE = {
    "work_per_s": {
        "oracle-sweep": "cells_per_s",
        "sample-narrow": "vertices_per_s",
        "wide-window": "vertices_per_s",
    },
    "op_p50_s": {
        "oracle-sweep": "grid_cell_p50_s",
        "sample-narrow": "sample_p50_s",
        "wide-window": "chain_s",
    },
}

DETAIL_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_fail_frac": "ratio",
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "grid_cell_p50_s": "s",
    "vertices_per_s": "1/s",
    "sample_p50_s": "s",
    "chain_s": "s",
}

# Per-layer metrics of a traced run.  Busy and self times, call counts and
# bytes are averages per operation of the workload (a sweep cell, or one
# CLI command; wide-window alternates chain and sample); "chain.dense_bytes"
# is computed as states^2 * 8, not measured.
LAYER_UNITS = {
    "oracle.busy_s": "s/op",
    "oracle.busy_s.m1": "s/op",
    "oracle.busy_s.m2": "s/op",
    "oracle.calls": "1/op",
    "oracle.starts": "1/op",
    "oracle.points_confirmed": "1/op",
    "oracle.clusters": "1/op",
    "oracle.hint_only_frac": "ratio",
    "three_loop.classify.busy_s": "s/op",
    "three_loop.enumerate_solutions.busy_s": "s/op",
    "two_loop.solve_unique.busy_s": "s/op",
    "closed_form.solutions": "1/op",
    "chain.transition_matrix.busy_s": "s/op",
    "chain.transition_matrix.calls": "1/op",
    "chain.states": "count",
    "chain.dense_bytes": "B",
    "chain.stationary_closed_form.busy_s": "s/op",
    "chain.verify_stationary.busy_s": "s/op",
    "chain.irreducible.busy_s": "s/op",
    "sampler.sample_forest.self_s": "s/op",
    "sampler.vertices": "1/op",
    "sampler.draw_vertices_per_s": "1/s",
    "sampler.empirical_marginal.busy_s": "s/op",
    "sampler.edge_admissibility.busy_s": "s/op",
    "sampler.marginal_tv.busy_s": "s/op",
    "sweep.cell.self_s": "s/op",
    "cli.self_s": "s/op",
    "cli.output_bytes": "B/op",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.hcgibbs_s": "s",
    "trace.overhead_s": "s/op",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_s": "s/op",
}

IMPORT_PACKAGES = ("numpy", "scipy", "hcgibbs")


def tail_percentile(values, beyond: int = 10):
    """Highest percentile of values with at least `beyond` samples above it.

    Returns (percentile, value), or None when there are not more than
    `beyond` samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    k = n - beyond  # xs[k:] holds `beyond` samples, xs[k - 1] is the value
    return 100.0 * k / n, xs[k - 1]


def detail(ops: list[dict]) -> dict:
    """Per-workload metrics under their detailed names, from operation records.

    Each value is (value or None, sample count, note).  Set-up time and peak
    memory are measured by the caller and added there.
    """
    out = {}
    failed = sum(not op["ok"] for op in ops)
    out["op_fail_frac"] = (failed / len(ops), len(ops), f"{failed}/{len(ops)} failed")

    cells = [op for op in ops if op["kind"].startswith("cell.")]
    cell_times = [op["wall"] for op in cells]
    good = sum(op["ok"] for op in cells)
    out["cells_per_s"] = (good / sum(cell_times) if cells else None, len(cells), "")
    out["cell_p50_s"] = (statistics.median(cell_times) if cells else None, len(cells), "")
    tail = tail_percentile(cell_times)
    out["cell_tail_s"] = (tail[1] if tail else None, len(cells),
                          f"p{tail[0]:.1f}" if tail else "needs more than 10 cells")
    grid = [op["wall"] for op in cells if op["kind"] == "cell.m2"]
    out["grid_cell_p50_s"] = (statistics.median(grid) if grid else None, len(grid), "")

    samples = [op for op in ops if op["kind"] == "sample"]
    rates = [op["vertices"] / op["wall"] for op in samples if op["ok"]]
    out["vertices_per_s"] = (statistics.median(rates) if rates else None, len(rates), "median")
    out["sample_p50_s"] = (statistics.median(op["wall"] for op in samples) if samples else None,
                           len(samples), "")

    chains = [op["wall"] for op in ops if op["kind"] == "chain"]
    out["chain_s"] = (statistics.median(chains) if chains else None, len(chains), "")
    return out


def end_to_end(workload: str, details: dict) -> dict:
    """The end-to-end metrics of END_TO_END_UNITS for one workload."""
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        source = END_TO_END_SOURCE.get(name, {}).get(workload, name)
        out[name] = {"value": details[source][0], "unit": unit}
    return out


def _busy(spans: list[Span], name: str, **match) -> float:
    return sum(
        s.duration for s in spans
        if s.name == name and all(s.counts.get(k) == v for k, v in match.items())
    )


def _count(spans: list[Span], name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def layers(spans: list[Span], n_ops: int) -> dict:
    """Per-layer metrics from the spans of n_ops traced operations.

    Leaves out import.* and trace.*, which come from other processes.
    """
    selfs = self_times(spans)

    def self_of(name: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    oracle = "oracle.multistart_count"
    clusters = _count(spans, oracle, "clusters")
    states = max((s.counts["states"] for s in spans if s.name == "chain.transition_matrix"),
                 default=0)
    vertices = _count(spans, "sampler.sample_forest", "vertices")
    forest_self = self_of("sampler.sample_forest")
    totals = {
        "oracle.busy_s": _busy(spans, oracle),
        "oracle.busy_s.m1": _busy(spans, oracle, loops=1),
        "oracle.busy_s.m2": _busy(spans, oracle, loops=2),
        "oracle.calls": sum(s.name == oracle for s in spans),
        "oracle.starts": _count(spans, oracle, "starts"),
        "oracle.points_confirmed": _count(spans, oracle, "points_confirmed"),
        "oracle.clusters": clusters,
        "three_loop.classify.busy_s": _busy(spans, "three_loop.classify"),
        "three_loop.enumerate_solutions.busy_s": _busy(spans, "three_loop.enumerate_solutions"),
        "two_loop.solve_unique.busy_s": _busy(spans, "two_loop.solve_unique"),
        "closed_form.solutions": _count(spans, "three_loop.enumerate_solutions", "solutions")
        + _count(spans, "two_loop.solve_unique", "solutions"),
        "chain.transition_matrix.busy_s": _busy(spans, "chain.transition_matrix"),
        "chain.transition_matrix.calls": sum(s.name == "chain.transition_matrix" for s in spans),
        "chain.stationary_closed_form.busy_s": _busy(spans, "chain.stationary_closed_form"),
        "chain.verify_stationary.busy_s": _busy(spans, "chain.verify_stationary"),
        "chain.irreducible.busy_s": _busy(spans, "chain.irreducible"),
        "sampler.sample_forest.self_s": forest_self,
        "sampler.vertices": vertices,
        "sampler.empirical_marginal.busy_s": _busy(spans, "sampler.empirical_marginal"),
        "sampler.edge_admissibility.busy_s": _busy(spans, "sampler.edge_admissibility"),
        "sampler.marginal_tv.busy_s": _busy(spans, "sampler.marginal_tv"),
        "sweep.cell.self_s": self_of("sweep.cell"),
        "cli.self_s": self_of("cli"),
        "cli.output_bytes": sum(s.counts.get("output_bytes", 0) for s in spans if s.name == "cli"),
    }
    out = {name: value / n_ops for name, value in totals.items()}
    out["oracle.hint_only_frac"] = (
        _count(spans, oracle, "hint_only") / clusters if clusters else 0.0
    )
    out["chain.states"] = states
    out["chain.dense_bytes"] = states * states * 8
    out["sampler.draw_vertices_per_s"] = vertices / forest_self if forest_self > 0 else 0.0
    return out


def parse_importtime(stderr: str) -> dict:
    """Self import time per package, in seconds, from `-X importtime` output.

    Summing self times over a package's modules counts every microsecond
    once, whichever package triggered the import.
    """
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(fields[0]) * 1e-6
    return {f"import.{pkg}_s": t for pkg, t in totals.items()}
