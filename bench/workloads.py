"""Workload inputs, generated from the benchmark seed, and the checked operations.

A workload is a sequence of rounds; round r is a list of operations whose
inputs depend only on (seed, r).  An operation is one unit a user waits
for: a sweep cell (oracle-sweep) or one CLI command (sample-narrow,
wide-window).  Both kinds have a `kind` label, an execute() that is the
timed part, and a check() that reads its result afterwards and returns an
Outcome.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hcgibbs import cli
from hcgibbs.model import ActivitySpec, graph_from_spec

# sample-narrow: the single-loop spec of the README, about 1.2 M vertices
# and 14 MB of JSON per command
NARROW_SPEC = {"loops": {"1": 1.0}, "tail_mass": 1.0}
NARROW_DEPTH, NARROW_TREES = 12, 100
NARROW_TV_BOUND = 0.01  # 10x the largest TV to the stationary law seen over 8 seeds

# wide-window: two equal loops (lambda = 9) and every other label of the
# window -300..300 listed, so the chain has 602 states and 3 solutions
WIDE_LAM, WIDE_WINDOW = 9.0, 300
WIDE_DEPTH, WIDE_TREES = 11, 50
# 2x the largest TV seen over 40 seeds (0.10; mean 0.035): with 602 states
# and 50 correlated trees the empirical marginal is coarse
WIDE_TV_BOUND = 0.2

# oracle-sweep: criterion 1's single-loop recipe and criterion 2's grid
SINGLE_LOOP_DRAWS = 20
# coprime with 2 * SINGLE_LOOP_DRAWS; spreads the 40 and the 20 points best
LATTICE_GENERATOR = 7
GRID_LAMBDAS = (2.0, 4.0, 49.0 / 9.0, 6.0, 9.0, 12.0)
CLOSED_FORM_RTOL = 1e-8


def _rng(seed: int, purpose: int, r: int = 0) -> np.random.Generator:
    """Independent stream per purpose: 0 command seeds of round r, 1 the
    wide-window spec, 2 the lattice shift of round pair r."""
    return np.random.default_rng([seed, purpose, r])


def _near(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    vertices: int = 0
    output_bytes: int = 0
    spins_sha256: str = ""


class SweepCell:
    """One phase-diagram cell: classify, closed-form solutions, then the
    oracle with those solutions as hints, each looked up where cmd_sweep
    looks it up."""

    seed = None

    def __init__(self, loops: int, lam: float, Lambda: float) -> None:
        self.kind = f"cell.m{loops}"
        self.loops, self.lam, self.Lambda = loops, lam, Lambda

    def execute(self):
        lam, Lambda = self.lam, self.Lambda
        if self.loops == 1:
            problem = cli.two_loop.TwoLoopProblem(lam, Lambda)
            count = cli.two_loop.classify(problem).count
            sols = [cli.two_loop.solve_unique(problem)]
            spec = ActivitySpec(loop_activities={1: lam}, tail_mass=Lambda - lam)
            n_starts, oracle_seed = 50, 7
        else:
            problem = cli.three_loop.ThreeLoopProblem(lam, Lambda)
            sols = cli.three_loop.enumerate_solutions(problem)
            count = cli.three_loop.classify(problem).count
            spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=Lambda - 2.0 * lam)
            n_starts, oracle_seed = 60, 0
        oracle = cli.multistart_count(
            spec, graph_from_spec(spec), n_starts=n_starts, seed=oracle_seed, hints=sols
        )
        return count, sols, oracle

    def check(self, result) -> Outcome:
        count, sols, oracle = result
        where = f"lam={self.lam!r} Lambda={self.Lambda!r}"
        if not count == len(sols) == oracle.count:
            return Outcome(False, f"{where}: classify {count}, closed form {len(sols)}, "
                                  f"oracle {oracle.count}")
        if self.loops == 1:
            rep, sol = oracle.representatives[0], sols[0]
            if not (_near(rep.A, sol.A, CLOSED_FORM_RTOL)
                    and _near(rep.z[1], sol.loop_z[1], CLOSED_FORM_RTOL)):
                return Outcome(False, f"{where}: oracle representative off the closed form")
        return Outcome(True)


class CliCommand:
    """One hcgibbs.cli.main call writing its output file into a temp dir."""

    def __init__(self, kind: str, argv: list[str], out: Path, check, seed=None) -> None:
        self.kind, self.argv, self.out, self._check, self.seed = kind, argv, out, check, seed

    def execute(self):
        return cli.main([*self.argv, "--out", str(self.out)])

    def check(self, rc) -> Outcome:
        if rc != 0:
            return Outcome(False, f"{' '.join(self.argv)}: exit code {rc}")
        size = self.out.stat().st_size
        try:
            data = json.loads(self.out.read_text())
        finally:
            self.out.unlink()
        outcome = self._check(data)
        outcome.output_bytes = size
        return outcome


def _sample_check(tv_bound: float, vertices: int):
    def check(data: dict) -> Outcome:
        spins = [s["spins"] for s in data["samples"]]
        n = sum(map(len, spins))
        sha = hashlib.sha256(json.dumps(spins, separators=(",", ":")).encode()).hexdigest()
        if n != vertices:
            return Outcome(False, f"{n} spins written, want {vertices}")
        if data["admissible_fraction"] != 1.0:
            return Outcome(False, f"admissible fraction {data['admissible_fraction']!r}")
        if not data["tv_to_stationary"] < tv_bound:
            return Outcome(False, f"TV to stationary {data['tv_to_stationary']!r} >= {tv_bound}")
        return Outcome(True, vertices=n, spins_sha256=sha)

    return check


def _chain_check(data: dict) -> Outcome:
    for entry in data["solutions"]:
        if not (entry["report"]["passed"] and entry["irreducible"]):
            return Outcome(False, f"branch {entry['branch']}: report {entry['report']}, "
                                  f"irreducible {entry['irreducible']}")
    return Outcome(True)


def tree_vertices(depth: int, trees: int, k: int = 2) -> int:
    """Vertices of `trees` rooted Cayley trees, computed here rather than
    by hcgibbs.sampler.num_vertices so the check does not trust the code it
    checks."""
    return trees * (1 + (k + 1) * (k**depth - 1) // (k - 1))


def regime_cells(lam: float) -> list[float]:
    """Criterion 2's six total-activity cells for one loop activity.

    Clipped to Lambda >= 2*lam and snapped onto a threshold within 1e-9
    relative, lower threshold first, then deduplicated.
    """
    L1, L2 = cli.three_loop.thresholds(lam)
    cells: list[float] = []
    for Lam in (0.5 * L1, 0.99 * L1, L1, 0.5 * (L1 + L2), L2, 1.5 * L2):
        Lam = max(Lam, 2.0 * lam)
        if _near(Lam, L1, 1e-9):
            Lam = L1
        elif _near(Lam, L2, 1e-9):
            Lam = L2
        if Lam not in cells:
            cells.append(Lam)
    return cells


def single_loop_draws(seed: int, r: int, n: int) -> list[tuple[float, float]]:
    """Round r's draws by criterion 1's recipe, lam1 ~ U(0.1, 20) and
    Lambda ~ U(lam1 + 0.1, 50).

    Rounds 2k and 2k + 1 take the even and the odd points of one randomly
    shifted 2n-point rank-1 lattice.  Each pair of uniforms alone is
    uniform on the unit square; together a round, and better a pair of
    rounds, covers the square evenly.  The oracle's cost is a smooth
    function of (lam1, Lambda) apart from a step near lam1 = 18, so the
    mix of cheap and expensive cells barely changes from seed to seed.
    """
    shift = _rng(seed, 2, r // 2).random(2)
    j = 2 * np.arange(n) + r % 2
    u1 = (j / (2 * n) + shift[0]) % 1.0
    u2 = (j * LATTICE_GENERATOR / (2 * n) + shift[1]) % 1.0
    out = []
    for a, b in zip(u1, u2):
        lam1 = 0.1 + 19.9 * float(a)
        out.append((lam1, lam1 + 0.1 + (49.9 - lam1) * float(b)))
    return out


def wide_spec(rng: np.random.Generator) -> dict:
    """Two loops at lambda = 9 plus every other label of the window listed.

    Listed activities decay like exp(-|i|/100) with a random factor in
    [0.5, 1.5); the total activity is drawn in [60, 120), below the lower
    threshold 126 of lambda = 9, so there are exactly 3 solutions.
    """
    labels = [i for i in range(-WIDE_WINDOW, WIDE_WINDOW + 1) if i not in (0, 1, 2)]
    w = np.exp(-np.abs(labels) / 100.0) * rng.uniform(0.5, 1.5, len(labels))
    tail = float(rng.uniform(60.0, 120.0)) - 2.0 * WIDE_LAM
    w *= 0.9 * tail / w.sum()
    return {
        "loops": {"1": WIDE_LAM, "2": WIDE_LAM},
        "tail": {str(lab): float(v) for lab, v in zip(labels, w)},
        "tail_mass": 0.1 * tail,
    }


def _command_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


class Workload:
    """Rounds of operations for one workload, inputs drawn from seed."""

    def __init__(self, name: str, seed: int, tmp: Path) -> None:
        self.name, self.seed, self.tmp = name, seed, tmp
        self.spec_path = tmp / "spec.json"
        if name == "sample-narrow":
            self.spec_path.write_text(json.dumps(NARROW_SPEC))
        elif name == "wide-window":
            self.spec_path.write_text(json.dumps(wide_spec(_rng(seed, 1))))
        elif name != "oracle-sweep":
            raise ValueError(f"unknown workload {name!r}")

    def _sample(self, rng, depth: int, trees: int, tv_bound: float) -> CliCommand:
        seed = _command_seed(rng)
        argv = ["sample", str(self.spec_path), "--depth", str(depth), "--trees", str(trees),
                "--seed", str(seed)]
        return CliCommand("sample", argv, self.tmp / "sample.json",
                          _sample_check(tv_bound, tree_vertices(depth, trees)), seed)

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 0, r)
        if self.name == "oracle-sweep":
            ops = [SweepCell(1, lam1, Lam)
                   for lam1, Lam in single_loop_draws(self.seed, r, SINGLE_LOOP_DRAWS)]
            ops += [SweepCell(2, lam, Lam) for lam in GRID_LAMBDAS for Lam in regime_cells(lam)]
            return ops
        if self.name == "sample-narrow":
            return [self._sample(rng, NARROW_DEPTH, NARROW_TREES, NARROW_TV_BOUND)]
        chain = CliCommand("chain", ["chain", str(self.spec_path)], self.tmp / "chain.json",
                           _chain_check)
        return [chain, self._sample(rng, WIDE_DEPTH, WIDE_TREES, WIDE_TV_BOUND)]



def run_op(op, tracer=None) -> dict:
    """Time one operation, check its result, and return its record.

    With a tracer the operation runs inside a root span, "sweep.cell" or
    "cli", whose self time is the part no traced layer accounts for.
    """
    gc.collect()
    span = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.execute()
        else:
            with tracer.span("sweep.cell" if op.kind.startswith("cell.") else "cli") as span:
                result = op.execute()
        wall = time.perf_counter() - t0
        outcome = op.check(result)
    except Exception:  # an operation that raises counts as failed; the run goes on
        wall = time.perf_counter() - t0
        outcome = Outcome(False, traceback.format_exc(limit=3))
    if span is not None:
        span.counts["output_bytes"] = outcome.output_bytes
    return {"kind": op.kind, "wall": wall, "ok": outcome.ok,
            "detail": outcome.detail, "vertices": outcome.vertices,
            "output_bytes": outcome.output_bytes, "seed": op.seed,
            "spins_sha256": outcome.spins_sha256}
