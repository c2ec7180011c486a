"""Benchmark of hcgibbs: oracle sweeps, `sample` and `chain` export.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from src/):

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0

--workload all (the default) runs every workload, one after another.  Each
workload runs in its own fresh worker process with no threads:

  oracle-sweep   sweep cells: classify, closed-form solutions, then the
                 multistart oracle with them as hints.  Per round, 20
                 single-loop draws (criterion 1's recipe) and criterion 2's
                 regime grid.
  sample-narrow  `hcgibbs sample` on the 4-state single-loop spec, depth 12,
                 100 trees: JSON and statistics dominate.
  wide-window    `hcgibbs chain` export and `hcgibbs sample` on a 602-state
                 spec with 3 solutions: the dense kernel and the draw dominate.

--trace 0 measures end to end: set-up (median of fresh interpreters
importing hcgibbs.cli), then whole rounds of the workload until --seconds
have passed.  --trace 1 runs rounds untraced for half of --seconds, then
the same rounds again with every public layer function wrapped in spans,
and reports per-layer metrics and the tracing overhead.  Every operation's
output is checked; a failed check, exception or nonzero exit code counts
as a failed operation.  The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable table and a record of the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_PROBES = 5  # after one warm-up probe, which may compile bytecode
IMPORT_PROBES = 3
PROCESS_TIMEOUT = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one thread per process: OpenBLAS would otherwise start a worker thread
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT)


def setup_times() -> list[float]:
    """Fresh interpreter start until `import hcgibbs.cli` returns, per probe.

    time.perf_counter reads the system-wide monotonic clock, so the child's
    reading after the import and the parent's before the start compare.
    """
    code = "import hcgibbs.cli, time; print(repr(time.perf_counter()))"
    out = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = _python(["-c", code])
        if proc.returncode != 0:
            raise SystemExit(f"cannot import hcgibbs.cli from {SRC}:\n{proc.stderr}")
        out.append(float(proc.stdout.strip()) - t0)
    return out[1:]


def import_breakdown() -> dict:
    """Median self import time of numpy, scipy and hcgibbs over fresh probes."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = _python(["-X", "importtime", "-c", "import hcgibbs.cli"])
        if proc.returncode != 0:
            raise SystemExit(f"cannot import hcgibbs.cli from {SRC}:\n{proc.stderr}")
        runs.append(metrics.parse_importtime(proc.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def run_worker(workload: str, seed: int, seconds: float, traced: bool,
               rounds: int | None = None) -> dict:
    """Run one workload in a fresh process and return its report."""
    args = [str(BENCH / "run.py"), "--worker", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(traced))]
    if rounds is not None:
        args += ["--rounds", str(rounds)]
    proc = _python(args)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- worker side

def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def worker(workload: str, seed: int, seconds: float, traced: bool, rounds: int | None) -> dict:
    """Run whole rounds of the workload until `seconds` have passed (at
    least one round), or exactly `rounds` rounds.

    Whole rounds keep the mix of operations the same in every run.
    """
    import resource

    import workloads

    tracer = tracing.Tracer() if traced else None
    TMP.mkdir(exist_ok=True)
    ops: list[dict] = []
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        wl = workloads.Workload(workload, seed, Path(tmp))
        if tracer is not None:
            tracer.install(tracing.patch_targets())
        try:
            deadline = time.perf_counter() + seconds
            r = 0
            while r < rounds if rounds else (r == 0 or time.perf_counter() < deadline):
                ops += [workloads.run_op(op, tracer) for op in wl.round(r)]
                r += 1
        finally:
            if tracer is not None:
                tracer.restore()
    try:
        TMP.rmdir()
    except OSError:
        pass  # left for the next run
    report = {"ops": ops, "rounds": r, "versions": _versions(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        # every span lies inside an operation's root span, so the self
        # times add up to the traced operations' wall time
        report["layers"] = metrics.layers(tracer.spans, len(ops))
        report["unaccounted_s"] = (sum(op["wall"] for op in ops)
                                   - sum(tracing.self_times(tracer.spans))) / len(ops)
    return report


# ---------------------------------------------------------------- parent side

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """All numbers of one workload, plus the checks of every operation."""
    if not traced:
        setup = setup_times()
        report = run_worker(workload, seed, seconds, False)
        details = {"setup_s": (statistics.median(setup), len(setup), "median of fresh imports"),
                   "peak_rss_mb": (report["peak_rss_mb"], 1, "ru_maxrss of the worker"),
                   **metrics.detail(report["ops"])}
        values = metrics.end_to_end(workload, details)
        ops = report["ops"]
    else:
        plain = run_worker(workload, seed, seconds / 2.0, False)
        report = run_worker(workload, seed, seconds / 2.0, True, plain["rounds"])
        n = len(report["ops"])
        plain_wall = sum(op["wall"] for op in plain["ops"])
        traced_wall = sum(op["wall"] for op in report["ops"])
        layer = dict(report["layers"])
        layer.update(import_breakdown())
        layer["trace.overhead_s"] = (traced_wall - plain_wall) / n
        layer["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        layer["trace.unaccounted_s"] = report["unaccounted_s"]
        values = {name: {"value": layer[name], "unit": unit}
                  for name, unit in metrics.LAYER_UNITS.items()}
        details = {}
        ops = plain["ops"] + report["ops"]
    return {"workload": workload, "details": details,
            "metrics": values, "ops": ops, "versions": report["versions"]}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_table(result: dict) -> None:
    workload = result["workload"]
    print(f"== {workload}  ({len(result['ops'])} operations)")
    for name, (value, n, note) in result["details"].items():
        unit = metrics.DETAIL_UNITS[name]
        print(f"  {name:<16} {_fmt(value):>12} {unit:<6} n={n:<5} {note}")
    for name, m in result["metrics"].items():
        source = metrics.END_TO_END_SOURCE.get(name, {}).get(workload)
        label = f"{name} = {source}" if source else name
        print(f"  {label:<38} {_fmt(m['value']):>12} {m['unit']}")
    for op in result["ops"]:
        if not op["ok"]:
            print(f"  FAILED {op['kind']}: {op['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*metrics.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "hcgibbs" / "cli.py").is_file():
        print(f"no hcgibbs sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        sys.path.insert(0, str(SRC))
        report = worker(args.workload, args.seed, args.seconds, bool(args.trace), args.rounds)
        print(json.dumps(report))
        return 0

    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    load_start = _loadavg()
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    record = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "versions": results[0]["versions"],
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "spins_sha256": {r["workload"]: {op["seed"]: op["spins_sha256"] for op in r["ops"]
                                         if op["kind"] == "sample"} for r in results},
    }
    for r in results:
        print_table(r)
    print("record " + json.dumps(record))
    failed = sum(not op["ok"] for r in results for op in r["ops"])
    attempted = sum(len(r["ops"]) for r in results)
    if len(results) == 1:
        values = results[0]["metrics"]
    else:
        values = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
