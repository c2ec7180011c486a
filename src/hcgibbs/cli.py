"""Command-line front end.

Subcommands expose the solvers, the regime classifier, the chain builder,
the tree sampler, and a phase-diagram sweep.  Every command is
deterministic given its flags and seed.  Output goes to the path given by
--out, with "-" meaning standard output.  Every value of a document is
computed before the output is opened, so a failed computation leaves no
partial file; the text is then streamed into the output in pieces and
never held as one string.  A file named by --out is written through a
64 KiB buffer; standard output keeps Python's own buffering.

Exit codes: 0 success, 2 bad input, 3 divergent activities (no
translation-invariant Gibbs measure exists), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from . import sampler as sampler_mod
from . import three_loop, two_loop
from .errors import DivergentActivities, InputError, NumericalFailure
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    _as_int,
    graph_from_spec,
    relabel_solution,
    spec_from_json,
)
from .oracle import multistart_count

_FLOAT_FMT = "%.17g"

# sweep --emit-curves holds every row before the write (about 0.23 KB each)
_MAX_CURVE_POINTS = 100_000

# write buffer of an --out file: a 5.5 MB chain document goes out in under a
# hundred writes instead of 913 at the default 8 KiB
_OUT_BUFFER = 1 << 16


def _write(chunks, out: str) -> None:
    """Write the text pieces chunks to the file out, or to standard output for "-".

    A reader that closes standard output early (`| head`) ends the write
    quietly, and the command still exits 0.
    """
    if out == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # what is still buffered goes nowhere, so the exit flush cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out, "w", buffering=_OUT_BUFFER) as f:
            f.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}")


class _Encoded(str):
    """Text that is already JSON, written as it is."""


def _json_chunks(obj, indent: str = ""):
    """JSON text of obj with compact leaves, yielded piece by piece.

    Dicts, and lists that hold a container or _Encoded text, get
    json.dumps(indent=2)'s layout of one item a line (_Encoded text stands
    for the value it encodes and is yielded as it is); every other list
    goes on one line through the C encoder, which json.dumps bypasses
    whenever indent is set.  Dict keys are strings, as in every command's
    output.
    """
    if isinstance(obj, _Encoded):
        yield obj
        return
    inner = indent + "  "
    types = set(map(type, obj)) if isinstance(obj, (list, tuple)) else None
    if isinstance(obj, dict) and obj:
        sep = "{\n"
        for key, v in obj.items():
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_chunks(v, inner)
            sep = ",\n"
        yield f"\n{indent}}}"
    elif types and any(issubclass(t, (dict, list, tuple, _Encoded)) for t in types):
        sep = "[\n"
        for v in obj:
            yield sep + inner
            yield from _json_chunks(v, inner)
            sep = ",\n"
        yield f"\n{indent}]"
    else:
        yield json.dumps(obj)


def _json_text(obj) -> str:
    """The text _json_chunks yields for obj, joined."""
    return "".join(_json_chunks(obj))


def _emit_json(obj, out: str) -> None:
    """Stream obj's JSON text, then a newline, into out."""
    _write(itertools.chain(_json_chunks(obj), ("\n",)), out)


def _spins_json(forest) -> list:
    """Each tree's spins as one JSON array, gathered from a table of tokens.

    The trees of a forest share one state table, so each state's token,
    its JSON text and the ", " that follows it, is encoded once into a
    fixed-width bytes array; numpy pads the shorter tokens with NUL bytes.
    A tree's index array picks its tokens in chunks of at most the
    sampler's block size, and each chunk's bytes lose their padding, which
    is exact because JSON text holds no raw NUL byte.  No Python object is
    made per vertex, and a chunk's temporaries stay small whatever the tree.
    """
    # one encoder call for the whole table; no label's text (an integer or
    # "TAIL") holds the ", " it is split on
    texts = json.dumps(forest[0].states)[1:-1].encode().split(b", ")
    tokens = np.char.add(np.array(texts), b", ")
    return [_Encoded(_tree_json(tokens, tree.index)) for tree in forest]


def _tree_json(tokens: np.ndarray, index: np.ndarray) -> str:
    """The JSON array of tokens[index], without the last token's ", ".

    A function of its own, so that its chunks are freed before _Encoded
    copies the text it returns.
    """
    step = sampler_mod._BLOCK_VERTICES
    parts = [
        tokens[index[i : i + step]].tobytes().translate(None, b"\0").decode()
        for i in range(0, len(index), step)
    ]
    parts[-1] = parts[-1][:-2]
    return "".join(["[", *parts, "]"])


def _json_row(row: np.ndarray) -> _Encoded:
    """One kernel row as the one-line JSON array _json_text writes for it."""
    return _Encoded(json.dumps(row.tolist()))


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key that appears twice is a ValueError, not the last value kept."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_spec(path: str) -> ActivitySpec:
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # bad JSON, undecodable bytes and a 4301-digit literal are ValueErrors
        raise InputError(f"cannot read spec file {path} as JSON: {exc}")
    return spec_from_json(data)


def _positive(value: str, name: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise InputError(f"{name} must be a number, got {value!r}")
    if not out > 0.0:
        raise InputError(f"{name} must be positive, got {out}")
    return out


def _solve_spec(spec: ActivitySpec, graph: AdmissibilityGraph, mode: str | None):
    """All boundary-law solutions of a spec, relabeled to the graph's loops."""
    n_loops = len(graph.loops)
    if mode == "two-loop" and n_loops != 1:
        raise InputError(f"--graph two-loop needs exactly one nonzero loop, spec has {n_loops}")
    if mode == "three-loop" and n_loops != 2:
        raise InputError(f"--graph three-loop needs exactly two nonzero loops, spec has {n_loops}")
    if n_loops == 1:
        sols = [two_loop.solve_unique(two_loop.TwoLoopProblem.from_spec(spec))]
    else:
        sols = three_loop.enumerate_solutions(three_loop.ThreeLoopProblem.from_spec(spec))
    return [relabel_solution(s, graph) for s in sols]


def _pick_branch(sols: list[BoundaryLawSolution], branch: str | None) -> BoundaryLawSolution:
    if branch is None:
        return sols[0]
    for s in sols:
        if s.branch == branch:
            return s
    names = [s.branch for s in sols]
    raise InputError(f"no solution on branch {branch!r}; available: {names}")


def cmd_thresholds(args) -> int:
    lam = _positive(args.lam, "--lambda")
    Lambda1, Lambda2 = three_loop.thresholds(lam)
    _emit_json(
        {
            "lambda": lam,
            "Lambda1": Lambda1,
            "Lambda2": Lambda2,
            "lambda_star": three_loop.LAMBDA_STAR,
        },
        args.out,
    )
    return 0


def cmd_solve(args) -> int:
    spec = _load_spec(args.specfile)
    graph = graph_from_spec(spec)
    sols = _solve_spec(spec, graph, args.graph)
    _emit_json([s.to_json_dict() for s in sols], args.out)
    return 0


def cmd_classify(args) -> int:
    if args.divergent:
        report = three_loop.classify(divergent=True)
    else:
        if args.lam is None or args.Lambda is None:
            raise InputError("classify needs --lambda and --Lambda (or --divergent)")
        lam = _positive(args.lam, "--lambda")
        Lambda = _positive(args.Lambda, "--Lambda")
        report = three_loop.classify(three_loop.ThreeLoopProblem(lam, Lambda))
    _emit_json(report.to_json_dict(), args.out)
    return 0


def cmd_chain(args) -> int:
    spec = _load_spec(args.specfile)
    graph = graph_from_spec(spec)
    sols = _solve_spec(spec, graph, None)

    entries = []
    for s in sols:
        tm = chain_mod.transition_matrix(s, spec, graph, args.window)
        report = chain_mod.verify_stationary(tm.stationary, tm)
        if not report.passed:
            raise NumericalFailure(
                f"stationarity check failed on branch {s.branch}: "
                f"residual {report.max_residual:.3e}, sum error {report.sum_error:.3e}"
            )
        entries.append((s, tm, report))

    picked = _pick_branch(sols, args.branch)  # checked in either format
    if args.format == "csv":
        _, tm, _ = entries[sols.index(picked)]
        stationary = chain_mod.distribution_to_csv(tm.stationary)
        _write(itertools.chain(chain_mod.matrix_csv_lines(tm), ("\n", stationary)), args.out)
        return 0

    _emit_json(
        {
            "window": entries[0][1].window,
            "solutions": [
                {
                    "branch": s.branch,
                    "solution": s.to_json_dict(),
                    "matrix": {
                        "window": tm.window,
                        "states": list(tm.states),
                        "matrix": chain_mod._row_texts(tm, _json_row),
                    },
                    "stationary": tm.stationary.to_json_dict(),
                    "report": {
                        "max_residual": report.max_residual,
                        "sum_error": report.sum_error,
                        "passed": report.passed,
                    },
                    "irreducible": chain_mod.irreducible(tm),
                }
                for s, tm, report in entries
            ],
        },
        args.out,
    )
    return 0


def cmd_sample(args) -> int:
    spec = _load_spec(args.specfile)
    graph = graph_from_spec(spec)
    sols = _solve_spec(spec, graph, None)
    sol = _pick_branch(sols, args.branch)

    tm = chain_mod.transition_matrix(sol, spec, graph, args.window)
    forest = sampler_mod.sample_forest(tm, args.depth, args.trees, args.seed)
    marginal = sampler_mod.empirical_marginal(forest)
    good = sum(sampler_mod.edge_admissibility(s, graph) for s in forest)
    _emit_json(
        {
            "branch": sol.branch,
            "depth": args.depth,
            "trees": args.trees,
            "seed": args.seed,
            "window": tm.window,
            "samples": [
                {"depth": s.depth, "seed": s.seed, "spins": spins}
                for s, spins in zip(forest, _spins_json(forest))
            ],
            "marginal": {
                str(lab): freq for lab, freq in sorted(marginal.items(), key=lambda kv: str(kv[0]))
            },
            "tv_to_stationary": sampler_mod.marginal_tv(marginal, tm.stationary),
            "admissible_fraction": good / len(forest),
        },
        args.out,
    )
    return 0


def _parse_grid(text: str, name: str, allow_inf: bool) -> list[float]:
    """Comma-separated grid values; NaN is refused, and so is +-inf unless allowed."""
    if text.strip() == "":
        return []
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{name} must be comma-separated numbers, got {text!r}")
    if any(math.isnan(v) for v in values):
        raise InputError(f"{name} must not hold NaN, got {text!r}")
    if not allow_inf and not all(map(math.isfinite, values)):
        raise InputError(f"{name} must hold finite numbers, got {text!r}")
    return values


def _sweep_curves(args) -> int:
    pair = args.emit_curves
    if pair not in ("f,g", "h,delta"):
        raise InputError(f'--emit-curves takes "f,g" or "h,delta", got {pair!r}')
    if args.x is None or args.Lambda is None:
        raise InputError("--emit-curves needs --x and --Lambda")
    n = _as_int(args.points, "--points", 1, most=_MAX_CURVE_POINTS)
    x = _positive(args.x, "--x")
    Lambda = _positive(args.Lambda, "--Lambda")
    if pair == "f,g":
        bound = x * x / 4.0
        funcs = (two_loop.f_curve, two_loop.g_curve)
        header = "lambda,f,g"
    else:
        try:
            bound = (1.0 + x) ** 2 / 4.0
        except OverflowError:
            bound = math.inf  # the curves then refuse every row
        funcs = (three_loop.h_curve, three_loop.delta_curve)
        header = "lambda,h,delta"
    lines = [header]
    for i in range(1, n + 1):
        lam = bound * i / n
        row = [lam] + [fn(lam, x, Lambda) for fn in funcs]
        lines.append(",".join(_FLOAT_FMT % v for v in row))
    _write(("\n".join(lines), "\n"), args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.emit_curves is not None:
        return _sweep_curves(args)
    if args.lambda_grid is None or args.Lambda_grid is None:
        raise InputError("sweep needs --lambda-grid and --Lambda-grid (or --emit-curves)")
    _as_int(args.seed, "--seed", 0)
    lams = _parse_grid(args.lambda_grid, "--lambda-grid", allow_inf=False)
    # Lambda = +inf is the paper's divergent case: no TIGM, exit 3
    Lambdas = _parse_grid(args.Lambda_grid, "--Lambda-grid", allow_inf=True)
    lines = ["lambda,Lambda,count_closed_form,count_oracle,agree"]
    for lam in lams:
        for Lambda in Lambdas:
            if not Lambda >= 2.0 * lam:
                print(
                    f"skipping lambda={lam:g} Lambda={Lambda:g}: needs Lambda >= 2*lambda",
                    file=sys.stderr,
                )
                continue
            problem = three_loop.ThreeLoopProblem(lam, Lambda)
            sols = three_loop.enumerate_solutions(problem)
            closed = three_loop.classify(problem).count
            spec = ActivitySpec(
                loop_activities={1: lam, 2: lam}, tail_mass=Lambda - 2.0 * lam
            )
            graph = graph_from_spec(spec)
            oracle = multistart_count(
                spec, graph, n_starts=args.starts, seed=args.seed, hints=sols
            ).count
            agree = "true" if closed == oracle else "false"
            lines.append(
                f"{_FLOAT_FMT % lam},{_FLOAT_FMT % Lambda},{closed},{oracle},{agree}"
            )
    _write(("\n".join(lines), "\n"), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcgibbs",
        description="Gibbs measures of the hard-core model on the order-2 Cayley tree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="regime thresholds for a loop activity")
    p.add_argument("--lambda", dest="lam", required=True, help="loop activity")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("solve", help="all boundary-law solutions of a spec file")
    p.add_argument("specfile")
    p.add_argument("--graph", choices=["two-loop", "three-loop"], default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="solution count for two equal loop activities")
    p.add_argument("--lambda", dest="lam", default=None, help="loop activity")
    p.add_argument("--Lambda", default=None, help="total activity")
    p.add_argument("--divergent", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chain", help="transition matrix and stationary distribution")
    p.add_argument("specfile")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--branch", default=None, help="branch to emit in csv mode (checked in json)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("sample", help="sample tree configurations")
    p.add_argument("specfile")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--trees", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--branch", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="phase-diagram sweep or proof-curve dump")
    p.add_argument("--lambda-grid", dest="lambda_grid", default=None)
    p.add_argument("--Lambda-grid", dest="Lambda_grid", default=None)
    p.add_argument("--starts", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-curves", dest="emit_curves", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--Lambda", default=None)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergentActivities as exc:
        print(f"no TIGM: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())
