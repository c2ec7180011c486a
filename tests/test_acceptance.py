"""Acceptance battery: the package's top-level numerical guarantees.

One test per numbered criterion.  Each prints a single
"criterion N PASS/FAIL" line (run pytest with -s to see them) and then
asserts, so the battery is both a human-readable report and a hard gate.
All expected values are regenerated here from first principles or frozen
from the independent fixed-point oracle; nothing is read back from the
implementation under test.
"""

import itertools
import json
import time

import numpy as np

from hcgibbs.boundary_law import reduce
from hcgibbs.chain import (
    TAIL,
    irreducible,
    minimal_window,
    stationary_closed_form,
    transition_matrix,
    verify_stationary,
)
from hcgibbs.cli import main as cli_main
from hcgibbs.errors import DivergentActivities
from hcgibbs.model import ActivitySpec, graph_from_spec
from hcgibbs.oracle import multistart_count
from hcgibbs.sampler import (
    edge_admissibility,
    marginal_tv,
    sample_forest,
)
from hcgibbs.three_loop import (
    ThreeLoopProblem,
    delta_curve,
    enumerate_solutions,
    h_curve,
    thresholds,
)
from hcgibbs.three_loop import classify as classify_three
from hcgibbs.two_loop import TwoLoopProblem, f_curve, g_curve, solve_unique
from hcgibbs.two_loop import classify as classify_two
from reference import (
    dense_matrix,
    expand,
    finite_gibbs_oracle,
    fixed_point_iterate,
    power_iteration,
    residual,
    single_site_conditional,
    spin_counts,
    total_variation,
)

LAM_STAR = 49.0 / 9.0
LAMBDA2_9 = 144.81948217705747


def _report(num, failures, text):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} {status}: {text}")
    assert not failures, "; ".join(str(f) for f in failures[:5])


def _near(a, b, rel):
    return abs(a - b) <= rel * abs(b)


def _regime_cells(lam):
    """Six total-activity cells straddling both thresholds, deduplicated.

    Cells are clipped to the admissible region Lambda >= 2*lam and snapped
    onto a threshold when within 1e-9 relative, lower threshold first, so
    hairline cells cannot straddle a threshold by a rounding error.
    """
    L1, L2 = thresholds(lam)
    raw = [0.5 * L1, 0.99 * L1, L1, 0.5 * (L1 + L2), L2, 1.5 * L2]
    cells = []
    for Lam in raw:
        Lam = max(Lam, 2.0 * lam)
        if _near(Lam, L1, 1e-9):
            Lam = L1
        elif _near(Lam, L2, 1e-9):
            Lam = L2
        if Lam not in cells:
            cells.append(Lam)
    return L1, L2, cells


def _expected_count(lam, Lam, L1, L2):
    """Solution count the regime table prescribes for (lam, Lambda)."""
    if lam <= LAM_STAR:
        return 3 if Lam < L1 else 1
    if Lam <= L1:
        return 3
    if _near(Lam, L2, 1e-9):
        return 3
    if Lam < L2:
        return 5
    return 1


def test_criterion_1_two_loop_uniqueness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    failures = []
    for _ in range(20):
        lam1 = float(rng.uniform(0.1, 20.0))
        Lam = float(rng.uniform(lam1 + 0.1, 50.0))
        spec = ActivitySpec(loop_activities={1: lam1}, tail_mass=Lam - lam1)
        graph = graph_from_spec(spec)
        sol = solve_unique(TwoLoopProblem(lam1, Lam))
        res = multistart_count(spec, graph, n_starts=50, seed=7, hints=[sol])
        if res.count != 1:
            failures.append(f"({lam1:.5g}, {Lam:.5g}) gives {res.count} clusters")
            continue
        rep = res.representatives[0]
        if not (_near(rep.A, sol.A, 1e-8) and _near(rep.z[1], sol.loop_z[1], 1e-8)):
            failures.append(f"({lam1:.5g}, {Lam:.5g}) representative off closed form")
    dt = time.perf_counter() - t0
    if dt >= 5.0:
        failures.append(f"runtime {dt:.2f}s exceeds the 5s budget")
    _report(1, failures,
            f"20 pseudo-random single-loop draws: multistart count 1, representative "
            f"matches the closed form to 1e-8 relative ({dt:.2f}s)")


def test_criterion_2_regime_grid():
    t0 = time.perf_counter()
    failures = []
    L1_9, L2_9 = thresholds(9.0)
    if L1_9 != 126.0:
        failures.append(f"Lambda1(9) = {L1_9!r}, want exactly 126.0")
    formula = ((9.0 * 81.0 + 32.0 * 9.0) ** 1.5
               + 27.0 * 729.0 + 144.0 * 81.0 + 1152.0 * 9.0) / 512.0
    if not (_near(L2_9, formula, 1e-9) and _near(L2_9, LAMBDA2_9, 1e-9)):
        failures.append(f"Lambda2(9) = {L2_9!r}, want {formula!r} within 1e-9 relative")
    cells_run = 0
    for lam in (2.0, 4.0, LAM_STAR, 6.0, 9.0, 12.0):
        L1, L2, cells = _regime_cells(lam)
        for Lam in cells:
            cells_run += 1
            want = _expected_count(lam, Lam, L1, L2)
            prob = ThreeLoopProblem(lam, Lam)
            sols = enumerate_solutions(prob)
            rep = classify_three(prob)
            spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=Lam - 2.0 * lam)
            graph = graph_from_spec(spec)
            orc = multistart_count(spec, graph, n_starts=60, seed=0, hints=sols)
            if want not in (1, 3, 5):
                failures.append(f"lam={lam:.6g} Lam={Lam:.6g}: prescribed count {want}")
            if not (want == len(sols) == rep.count == orc.count):
                failures.append(
                    f"lam={lam:.6g} Lam={Lam:.6g}: want {want}, enumerate {len(sols)}, "
                    f"classify {rep.count}, oracle {orc.count}")
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        failures.append(f"runtime {dt:.1f}s exceeds the 60s budget")
    _report(2, failures,
            f"{cells_run} grid cells: enumerate = classify = oracle = prescribed count, "
            f"lam=9 thresholds exact/1e-9 ({dt:.1f}s)")


def test_criterion_3_threshold_coincidence():
    failures = []
    L1, L2 = thresholds(LAM_STAR)
    target = 1274.0 / 27.0
    for name, val in (("lower", L1), ("upper", L2)):
        if not _near(val, target, 1e-12):
            failures.append(f"{name} threshold at 49/9 is {val!r}, want 1274/27 = {target!r}")
    if not _near(L1, L2, 1e-12):
        failures.append(f"thresholds differ: {L1!r} vs {L2!r}")
    _report(3, failures,
            "both thresholds at the tangency activity 49/9 equal 1274/27 to 1e-12 relative")


def test_criterion_4_residual_closure():
    failures = []
    checked = 0
    rng = np.random.default_rng(4)
    for _ in range(10):
        lam1 = float(rng.uniform(0.1, 20.0))
        Lam = float(rng.uniform(lam1 + 0.1, 50.0))
        spec = ActivitySpec(loop_activities={1: lam1}, tail_mass=Lam - lam1)
        graph = graph_from_spec(spec)
        sol = solve_unique(TwoLoopProblem(lam1, Lam))
        z, _ = expand(sol, spec)
        r = residual(spec, graph, z, sol.A)
        checked += 1
        if r >= 1e-10:
            failures.append(f"single-loop ({lam1:.5g}, {Lam:.5g}): residual {r:.2e}")
    for lam in (2.0, 4.0, LAM_STAR, 6.0, 9.0, 12.0):
        _, _, cells = _regime_cells(lam)
        for Lam in cells:
            spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=Lam - 2.0 * lam)
            graph = graph_from_spec(spec)
            for s in enumerate_solutions(ThreeLoopProblem(lam, Lam)):
                z, _ = expand(s, spec)
                r = residual(spec, graph, z, s.A)
                checked += 1
                if r >= 1e-10:
                    failures.append(
                        f"lam={lam:.6g} Lam={Lam:.6g} {s.branch}: residual {r:.2e}")
    _report(4, failures,
            f"all {checked} emitted solutions close the consistency system below 1e-10")


def _sign_changes(values):
    signs = np.sign(values[values != 0.0])
    return int(np.sum(signs[1:] != signs[:-1]))


def test_criterion_5_curve_geometry():
    failures = []
    for x, Lam in ((2.5, 6.0), (2.0, 10.0)):
        b_fg = x * x / 4.0
        grid_fg = np.linspace(b_fg / 1000.0, b_fg, 1000)
        f = np.array([f_curve(l, x, Lam) for l in grid_fg])
        g = np.array([g_curve(l, x, Lam) for l in grid_fg])
        want = 2.0 * x ** 3 * np.sqrt(np.maximum(x * x - 4.0 * grid_fg, 0.0))
        worst = float(np.max(np.abs((f - g) - want)))
        if worst > 1e-10:
            failures.append(f"f-g identity at x={x}: worst deviation {worst:.2e}")
        b_hd = (1.0 + x) ** 2 / 4.0
        grid_hd = np.linspace(b_hd / 1000.0, b_hd, 1000)
        h = np.array([h_curve(l, x, Lam) for l in grid_hd])
        d = np.array([delta_curve(l, x, Lam) for l in grid_hd])
        want = 2.0 * (1.0 + x) ** 3 * np.sqrt(np.maximum((1.0 + x) ** 2 - 4.0 * grid_hd, 0.0))
        worst = float(np.max(np.abs((h - d) - want)))
        if worst > 1e-10:
            failures.append(f"h-delta identity at x={x}: worst deviation {worst:.2e}")
        limits = (
            ("f", f_curve(1e-12, x, Lam), 2.0 * x ** 4),
            ("g", g_curve(1e-12, x, Lam), 0.0),
            ("h", h_curve(1e-12, x, Lam), 2.0 * (1.0 + x) ** 4),
            ("delta", delta_curve(1e-12, x, Lam), 0.0),
        )
        for name, got, want_v in limits:
            if abs(got - want_v) > 1e-8:
                failures.append(f"{name} small-activity limit at x={x}: {got!r} vs {want_v!r}")
        for pair, (u, v) in (("f/g", (f, g)), ("h/delta", (h, d))):
            changing = sum(1 for arr in (u, v) if _sign_changes(arr) > 0)
            if changing > 1:
                failures.append(f"both members of the {pair} pair change sign at x={x}")
    _report(5, failures,
            "difference identities, small-activity limits and sign-change counts hold "
            "at (x=2.5, Lambda=6) and (x=2, Lambda=10)")


def test_criterion_6_chain_invariants():
    failures = []
    cases = []
    spec12 = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    cases.append((spec12, graph_from_spec(spec12), solve_unique(TwoLoopProblem(1.0, 2.0))))
    for lam in (2.0, 4.0, LAM_STAR, 6.0, 9.0, 12.0):
        _, _, cells = _regime_cells(lam)
        for Lam in cells:
            spec = ActivitySpec(loop_activities={1: lam, 2: lam}, tail_mass=Lam - 2.0 * lam)
            graph = graph_from_spec(spec)
            for s in enumerate_solutions(ThreeLoopProblem(lam, Lam)):
                cases.append((spec, graph, s))
    kernels = 0
    for spec, graph, s in cases:
        for window in (minimal_window(spec), 4):
            tm = transition_matrix(s, spec, graph, window)
            kernels += 1
            where = f"lam set {sorted(spec.loop_activities)} A={s.A:.6g} window={window}"
            row_err = float(np.max(np.abs(dense_matrix(tm).sum(axis=1) - 1.0)))
            if row_err > 1e-12:
                failures.append(f"{where}: row sums off by {row_err:.2e}")
            X = stationary_closed_form(s, spec, graph, window)
            rep = verify_stationary(X, tm)
            if rep.max_residual >= 1e-10:
                failures.append(f"{where}: stationarity residual {rep.max_residual:.2e}")
            if rep.sum_error > 1e-12:
                failures.append(f"{where}: mass error {rep.sum_error:.2e}")
            # near-saturated hub-to-tail kernels alternate with subdominant
            # eigenvalue close to -1, so allow extra sweeps to settle
            pi, _ = power_iteration(tm, max_iter=100_000)
            tv = total_variation(pi, X.probabilities)
            if tv > 1e-8:
                failures.append(f"{where}: power iteration TV {tv:.2e}")
            if not irreducible(tm):
                failures.append(f"{where}: kernel not irreducible on active states")
    _report(6, failures,
            f"{kernels} kernels: stochastic rows (1e-12), closed-form stationarity "
            f"(1e-10), power-iteration agreement (TV 1e-8), irreducibility")


def test_criterion_7_sampler_statistics():
    t0 = time.perf_counter()
    failures = []
    spec = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    graph = graph_from_spec(spec)
    sol = solve_unique(TwoLoopProblem(1.0, 2.0))
    kernel = transition_matrix(sol, spec, graph, 5)
    forest = sample_forest(kernel, depth=10, trees=200, seed=22)
    X = kernel.stationary
    worst_tv = 0.0
    for level in range(11):
        counts = spin_counts(forest, level)
        total = sum(counts.values())
        freq = {lab: c / total for lab, c in counts.items()}
        tv = marginal_tv(freq, X)
        worst_tv = max(worst_tv, tv)
        if tv > 0.02:
            failures.append(f"level {level}: TV {tv:.4f} exceeds 0.02")
    bad = sum(1 for t in forest if edge_admissibility(t, graph) != 1.0)
    if bad:
        failures.append(f"{bad} trees contain an inadmissible edge")
    rerun = sample_forest(kernel, depth=10, trees=200, seed=22)
    if any(a.spins != b.spins for a, b in zip(forest, rerun)):
        failures.append("rerun under the fixed seed is not bit-identical")
    dt = time.perf_counter() - t0
    if dt >= 10.0:
        failures.append(f"runtime {dt:.2f}s exceeds the 10s budget")
    _report(7, failures,
            f"200 trees at depth 10: all 11 level marginals within TV 0.02 of the "
            f"stationary law (worst {worst_tv:.4f}), full admissibility, "
            f"bit-identical rerun ({dt:.2f}s)")


def test_criterion_8_finite_oracle():
    failures = []
    spec5 = ActivitySpec(loop_activities={1: 0.8, 2: 0.3}, explicit_tail={3: 0.4},
                         tail_mass=0.6)
    spec3 = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0)
    patterns_checked = 0
    for spec, alphabet in ((spec5, (0, 1, 2, 3, TAIL)), (spec3, (0, 1, TAIL))):
        graph = graph_from_spec(spec)
        table = finite_gibbs_oracle(spec, graph, depth=1)
        total = sum(table.values())
        if abs(total - 1.0) > 1e-12:
            failures.append(f"free enumeration normalizes to {total!r}")
        for pattern in itertools.product(alphabet, repeat=3):
            patterns_checked += 1
            boundary = {1: pattern[0], 2: pattern[1], 3: pattern[2]}
            pinned = finite_gibbs_oracle(spec, graph, depth=1, boundary=boundary)
            tot = sum(pinned.values())
            if abs(tot - 1.0) > 1e-12:
                failures.append(f"{pattern}: pinned normalization {tot!r}")
                continue
            root_law: dict = {}
            for cfg, p in pinned.items():
                root_law[cfg[0]] = root_law.get(cfg[0], 0.0) + p
            target = single_site_conditional(spec, graph, pattern)
            if set(root_law) != set(target):
                failures.append(f"{pattern}: conditional support mismatch")
                continue
            worst = max(abs(root_law[s] - target[s]) for s in target)
            if worst > 1e-12:
                failures.append(f"{pattern}: conditional deviates by {worst:.2e}")
    _report(8, failures,
            f"depth-1 enumeration normalizes to 1 and reproduces the product-form "
            f"single-site conditional for all {patterns_checked} boundary patterns (1e-12)")


def test_criterion_9_divergence_contract(tmp_path, capsys):
    failures = []
    div2 = ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0, divergent=True)
    div3 = ActivitySpec(loop_activities={1: 1.0, 2: 1.0}, tail_mass=1.0, divergent=True)
    graph = graph_from_spec(ActivitySpec(loop_activities={1: 1.0}, tail_mass=1.0))
    paths = (
        ("single-loop problem construction", lambda: TwoLoopProblem.from_spec(div2)),
        ("equal-loop problem construction", lambda: ThreeLoopProblem.from_spec(div3)),
        ("system reduction", lambda: reduce(div2, graph)),
        ("fixed-point iteration", lambda: fixed_point_iterate(div2, graph, {1: 1.0}, 1.0)),
        ("multistart count", lambda: multistart_count(div2, graph, n_starts=50, seed=0)),
    )
    for name, call in paths:
        try:
            call()
            failures.append(f"{name} returned a numeric answer for a divergent spec")
        except DivergentActivities:
            pass
    for rep in (classify_two(divergent=True), classify_three(divergent=True)):
        if rep.count != 0 or rep.case_label != "divergent":
            failures.append(f"classification reports count {rep.count}, case {rep.case_label!r}")
    specfile = tmp_path / "divergent.json"
    specfile.write_text(json.dumps({"k": 2, "loops": {"1": 1.0}, "divergent": True}))
    rc = cli_main(["solve", str(specfile)])
    err = capsys.readouterr().err
    if rc != 3:
        failures.append(f"CLI solve exit code {rc}, want 3")
    if "no TIGM" not in err:
        failures.append("CLI stderr does not state the no-TIGM outcome")
    _report(9, failures,
            "divergent inputs raise the no-TIGM signal on every solver path, classify "
            "to count 0, and exit the CLI with code 3")
