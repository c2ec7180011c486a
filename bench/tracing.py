"""In-memory span tracing of hcgibbs's public functions, from outside the package.

A Tracer wraps module attributes with timing shims.  Each call records a
Span (name, start, end, parent) plus optional counters computed from the
call's arguments and result.  Spans stay in memory; the benchmark turns
them into per-layer metrics when the run ends.  Nothing under src/
changes: every shim is installed with setattr on the module where the
caller looks the name up, and removed again by Tracer.restore().
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Calls are synchronous, so children of one span never overlap and lie
    inside their parent's interval.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _oracle_counts(args: inspect.BoundArguments, result) -> dict:
    reps = result.representatives
    return {
        "loops": len(args.arguments["graph"].loops),
        "starts": args.arguments["n_starts"] + len(args.arguments["hints"] or ()),
        "points_confirmed": sum(r.members for r in reps),
        "clusters": result.count,
        "hint_only": sum(r.source == "hint" for r in reps),
    }


def _solution_counts(args: inspect.BoundArguments, result) -> dict:
    return {"solutions": len(result) if isinstance(result, list) else 1}


def _matrix_counts(args: inspect.BoundArguments, result) -> dict:
    return {"states": len(result.states)}


def _forest_counts(args: inspect.BoundArguments, result) -> dict:
    return {"vertices": sum(len(s.spins) for s in result)}


def patch_targets():
    """(module, attribute, span name, counter) for every traced function.

    Names imported into a module with `from x import f` are patched in the
    importing module, because that is where the caller looks them up.
    """
    from hcgibbs import chain, cli, sampler, three_loop, two_loop

    return [
        (cli, "multistart_count", "oracle.multistart_count", _oracle_counts),
        (three_loop, "classify", "three_loop.classify", None),
        (three_loop, "enumerate_solutions", "three_loop.enumerate_solutions", _solution_counts),
        (two_loop, "solve_unique", "two_loop.solve_unique", _solution_counts),
        (chain, "transition_matrix", "chain.transition_matrix", _matrix_counts),
        (chain, "stationary_closed_form", "chain.stationary_closed_form", None),
        (chain, "verify_stationary", "chain.verify_stationary", None),
        (chain, "irreducible", "chain.irreducible", None),
        (sampler, "transition_matrix", "chain.transition_matrix", _matrix_counts),
        (sampler, "stationary_closed_form", "chain.stationary_closed_form", None),
        (sampler, "sample_forest", "sampler.sample_forest", _forest_counts),
        (sampler, "empirical_marginal", "sampler.empirical_marginal", None),
        (sampler, "edge_admissibility", "sampler.edge_admissibility", None),
        (sampler, "marginal_tv", "sampler.marginal_tv", None),
    ]


class Tracer:
    """Records nested spans of one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close()

    def wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.counts = counter(bound, result)
            return result

        return traced

    def install(self, targets) -> None:
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
