"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
line is also embedded in the assertion message on failure.
"""

import time

import numpy as np
import pytest
from _helpers import grid_line_search

from ofwkit.cli import main
from ofwkit.core import line_search_quadratic
from ofwkit.harness import (
    ALGO_OFW_LS,
    ALGO_SC_OFW,
    ExperimentSpec,
    run_experiment,
    sweep,
)
from ofwkit.losses import LINEAR, QUADRATIC, LossSpec
from ofwkit.sets import L1Ball, L2Ball, LpBall, Simplex
from ofwkit.verify import _check_contraction, _check_strong_convexity_definition

SEEDS = (1, 2, 3, 4, 5)
HORIZONS = tuple(2**k for k in range(8, 14))  # 256 .. 8192
SLOPE_HORIZONS = tuple(2**k for k in range(8, 15))  # 256 .. 16384
GAP_TOL = 1e-7

# regression anchors frozen from the first verified run of this suite
GOLDEN_OFW_SLOPE = 0.5112121063864822
GOLDEN_SC_SLOPE = 0.12465991885442543


def _report(n: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {n}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _ofw_spec(seed: int, horizon: int, **kw) -> ExperimentSpec:
    return ExperimentSpec(
        domain=L2Ball(10, 1.0),
        loss=LossSpec(kind=LINEAR, dim=10, seed=seed, G=1.0),
        algo=ALGO_OFW_LS,
        horizon=horizon,
        **kw,
    )


def _sc_spec(seed: int, horizon: int, domain=None, **kw) -> ExperimentSpec:
    domain = L2Ball(10, 1.0) if domain is None else domain
    return ExperimentSpec(
        domain=domain,
        loss=LossSpec(kind=QUADRATIC, dim=domain.dim, seed=seed, lam=1.0),
        algo=ALGO_SC_OFW,
        horizon=horizon,
        **kw,
    )


def test_criterion_1_ofw_regret_within_bound():
    start = time.perf_counter()
    worst_ratio, violations = 0.0, []
    for seed in SEEDS:
        for horizon in HORIZONS:
            trace = run_experiment(_ofw_spec(seed, horizon))
            worst_ratio = max(worst_ratio, trace.final_regret / trace.final_bound)
            if trace.final_regret > trace.final_bound:
                violations.append((seed, horizon, trace.final_regret, trace.final_bound))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 10.0
    _report(
        1,
        "line-search learner: R(T) <= 2.75 G sqrt(C) (T+2)^(2/3) on the unit ball, "
        "seeds 1-5, T = 2^8..2^13",
        ok,
        f"worst regret/bound {worst_ratio:.3g}, {elapsed:.1f}s"
        + (f", violations {violations}" if violations else ""),
    )


def test_criterion_2_ofw_gap_schedule():
    start = time.perf_counter()
    bad_first, bad_sched, worst = [], [], 0.0
    for seed in SEEDS:
        for horizon in HORIZONS:
            trace = run_experiment(_ofw_spec(seed, horizon, gap_check=True, gap_cap=512))
            measured = ~np.isnan(trace.gap)
            if abs(trace.gap[0]) > 1e-9:
                bad_first.append((seed, horizon, trace.gap[0]))
            over = trace.gap[measured] > trace.gap_bound[measured] + GAP_TOL
            if over.any():
                t_bad = int(np.nonzero(measured)[0][np.argmax(over)] + 1)
                bad_sched.append((seed, horizon, t_bad))
            if np.nanmin(trace.gap) < -1e-9:
                bad_sched.append((seed, horizon, "negative gap"))
            worst = max(worst, float(np.nanmax(trace.gap / trace.gap_bound)))
    elapsed = time.perf_counter() - start
    ok = not bad_first and not bad_sched and elapsed < 60.0
    _report(
        2,
        "line-search learner: h_1 = 0 and h_t <= C/(t+2)^(2/3) for t <= 512",
        ok,
        f"worst gap/bound {worst:.3g}, {elapsed:.1f}s"
        + (f", h1 failures {bad_first}" if bad_first else "")
        + (f", schedule failures {bad_sched}" if bad_sched else ""),
    )


def test_criterion_3_scofw_regret_within_bound():
    violations, worst = [], 0.0
    for seed in SEEDS:
        for horizon in HORIZONS:
            trace = run_experiment(_sc_spec(seed, horizon))
            worst = max(worst, trace.final_regret / trace.final_bound)
            if trace.final_regret > trace.final_bound:
                violations.append((seed, horizon))
    ok = not violations
    _report(
        3,
        "strongly convex learner: R(T) <= C sqrt(2T) + (C/2) ln T + G D on the unit "
        "ball, quadratic losses, seeds 1-5",
        ok,
        f"worst regret/bound {worst:.3g}" + (f", violations {violations}" if violations else ""),
    )


def test_criterion_4_scofw_constant_gap():
    bad, worst = [], 0.0
    for seed in SEEDS:
        for horizon in HORIZONS:
            trace = run_experiment(_sc_spec(seed, horizon, gap_check=True, gap_cap=512))
            assert np.isnan(trace.gap[0])  # no surrogate before round 1
            measured = ~np.isnan(trace.gap)
            gaps = trace.gap[measured]
            if gaps.size and (gaps > 288.0 + GAP_TOL).any():
                bad.append((seed, horizon))
            if gaps.size and gaps.min() < -1e-9:
                bad.append((seed, horizon, "negative gap"))
            worst = max(worst, float(gaps.max() / 288.0))
    ok = not bad
    _report(
        4,
        "strongly convex learner: h_t <= C = 288 for 2 <= t <= 512 on the unit ball",
        ok,
        f"worst gap/C {worst:.3g}" + (f", failures {bad}" if bad else ""),
    )


def test_criterion_5_scofw_general_set():
    dom = Simplex(10)
    violations, gap_bad, worst_r, worst_g = [], [], 0.0, 0.0
    for seed in SEEDS:
        for horizon in HORIZONS:
            trace = run_experiment(_sc_spec(seed, horizon, domain=dom))
            worst_r = max(worst_r, trace.final_regret / trace.final_bound)
            if trace.final_regret > trace.final_bound:
                violations.append((seed, horizon))
        gap_trace = run_experiment(_sc_spec(seed, 512, domain=dom, gap_check=True, gap_cap=512))
        measured = ~np.isnan(gap_trace.gap)
        over = gap_trace.gap[measured] > gap_trace.gap_bound[measured] + GAP_TOL
        if over.any():
            gap_bad.append(seed)
        if np.nanmin(gap_trace.gap) < -1e-9:
            gap_bad.append((seed, "negative gap"))
        worst_g = max(
            worst_g, float(np.nanmax(gap_trace.gap / gap_trace.gap_bound))
        )
    ok = not violations and not gap_bad
    _report(
        5,
        "strongly convex learner on the simplex: T^(2/3) regret ceiling "
        "and h_t <= C (t-1)^(1/3) for t <= 512, seeds 1-5",
        ok,
        f"worst regret/bound {worst_r:.3g}, worst gap/bound {worst_g:.3g}"
        + (f", regret failures {violations}" if violations else "")
        + (f", gap failures {gap_bad}" if gap_bad else ""),
    )


def test_criterion_6_regret_growth_slopes():
    res_ofw = sweep(_ofw_spec(1, 256), SLOPE_HORIZONS)
    res_sc = sweep(_sc_spec(1, 256), SLOPE_HORIZONS)
    ok = (
        res_ofw.slope is not None
        and res_sc.slope is not None
        and res_ofw.slope <= 0.75
        and res_sc.slope <= 0.60
        and abs(res_ofw.slope - GOLDEN_OFW_SLOPE) < 0.02
        and abs(res_sc.slope - GOLDEN_SC_SLOPE) < 0.02
    )
    _report(
        6,
        "log-log regret slopes over T = 2^8..2^14: line-search <= 0.75, "
        "strongly convex <= 0.60, both near frozen values",
        ok,
        f"slopes {res_ofw.slope:.4f} and {res_sc.slope:.4f}",
    )


def test_criterion_7_per_step_contraction():
    res_ofw = _check_contraction(ALGO_OFW_LS, n_steps=100)
    res_sc = _check_contraction(ALGO_SC_OFW, n_steps=100)
    ok = res_ofw[0] and res_sc[0]
    _report(
        7,
        "100 sampled oracle steps contract the surrogate gap by "
        "max(1/2, 1 - alpha ||grad|| / (8 beta)) for both learners",
        ok,
        "; ".join(detail for passed, detail in (res_ofw, res_sc) if not passed)
        or "all steps contract",
    )


def test_criterion_8_oracle_equivalence():
    problems = []

    # exact line search vs a dense grid
    rng = np.random.default_rng(81)
    worst_sigma = 0.0
    for _ in range(1000):
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        a = rng.uniform(-2.0 * b, 2.0 * b)
        exact = line_search_quadratic(a, b)
        coarse = grid_line_search(a, b, 10_001)
        worst_sigma = max(worst_sigma, abs(exact - coarse))
    if worst_sigma > 1e-4:
        problems.append(f"line search off by {worst_sigma:.2e}")

    # closed-form oracles vs 10^4 random feasible points per gradient
    sets = [
        ("l2_ball", L2Ball(10, 1.0)),
        ("lp_ball", LpBall(10, 1.0, 1.5)),
        ("l1_ball", L1Ball(10, 2.0)),
        ("simplex", Simplex(10)),
    ]
    for name, dom in sets:
        cloud = dom.sample_rows(10_000, np.random.default_rng(82))
        grads = np.random.default_rng(83).standard_normal((20, dom.dim))
        for g in grads:
            out = dom.lmo(g)
            if float(g @ out) > float((cloud @ g).min()) + 1e-9:
                problems.append(f"{name} lmo beaten by a sampled point")
                break

    # strong convexity certificates, zero violations allowed
    for name, dom in (("l2_ball", L2Ball(10, 1.0)), ("lp_ball", LpBall(10, 1.0, 1.5))):
        passed, detail = _check_strong_convexity_definition(dom, n=10_000)
        if not passed:
            problems.append(detail)

    ok = not problems
    _report(
        8,
        "oracle equivalence: line search within 1e-4 of a 10^4-point grid, "
        "LMOs beat 10^4 feasible samples, zero strong-convexity violations",
        ok,
        "; ".join(problems) or f"worst sigma gap {worst_sigma:.2e}",
    )


def test_criterion_9_sweep_performance(tmp_path):
    cfg_lin = tmp_path / "perf_linear.cfg"
    cfg_lin.write_text(
        "set.kind = l2_ball\nset.dim = 100\nset.r = 1\nloss.kind = linear\n"
        "loss.G = 1\nalgo = ofw_ls\nT = 16384\nseed = 1\n"
    )
    cfg_quad = tmp_path / "perf_quadratic.cfg"
    cfg_quad.write_text(
        "set.kind = l2_ball\nset.dim = 100\nset.r = 1\nloss.kind = quadratic\n"
        "loss.lambda = 1\nalgo = sc_ofw\nT = 16384\nseed = 1\n"
    )
    times = {}
    codes = {}
    for tag, cfg in (("ofw_ls", cfg_lin), ("sc_ofw", cfg_quad)):
        out = tmp_path / f"{tag}.csv"
        start = time.perf_counter()
        codes[tag] = main(["sweep", str(cfg), "--horizons", "16384", "--out", str(out)])
        times[tag] = time.perf_counter() - start
    ok = all(c == 0 for c in codes.values()) and all(t < 2.0 for t in times.values())
    _report(
        9,
        "sweep at T = 2^14, dim 100 finishes under 2s per learner",
        ok,
        ", ".join(f"{k}: {v:.2f}s" for k, v in times.items()),
    )
