"""Self-check battery: geometry, learner identities, and bound conformance.

Each check returns a named pass/fail record with a counterexample in the
detail string when it fails, so a corrupted component is pinned to the
check that caught it. Scopes: ``sets``, ``learners``, ``bounds``, ``all``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .harness import (
    ALGO_OFW_LS,
    ALGO_SC_OFW,
    ExperimentSpec,
    gap_bound,
    run_experiment,
    theorem_bound,
)
from .learners import (
    ofw_init,
    ofw_update,
    scofw_init,
    scofw_update,
)
from .losses import (
    LINEAR,
    QUADRATIC,
    LossSpec,
    certify_constants,
    make_round,
)
from .oracle import surrogate_argmin, surrogate_of
from .sets import L1Ball, L2Ball, LpBall, Simplex

__all__ = ["CheckResult", "VerifyReport", "verify_suite", "SCOPES"]

SCOPES = ("sets", "learners", "bounds", "all")

GAP_SLACK = 1e-7
FEAS_SLACK = 1e-9


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "checks": [
                {"name": r.name, "scope": r.scope, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }
        return json.dumps(payload, indent=2)


def _canonical_sets():
    return [
        ("l2_ball", L2Ball(10, 1.0)),
        ("lp_ball", LpBall(10, 1.0, 1.5)),
        ("l1_ball", L1Ball(10, 2.0)),
        ("simplex", Simplex(10)),
    ]


def _sample_feasible_batch(domain, n: int, rng) -> np.ndarray:
    if isinstance(domain, Simplex):
        e = rng.exponential(size=(n, domain.dim))
        return e / e.sum(axis=1, keepdims=True)
    z = rng.standard_normal((n, domain.dim))
    if isinstance(domain, L2Ball):
        norms = np.linalg.norm(z, axis=1)
    elif isinstance(domain, L1Ball):
        norms = np.abs(z).sum(axis=1)
    else:
        norms = (np.abs(z) ** domain.p).sum(axis=1) ** (1.0 / domain.p)
    u = rng.uniform(size=n) ** (1.0 / domain.dim)
    return z * (_radius(domain) * u / norms)[:, None]


def _radius(domain) -> float:
    return getattr(domain, "radius", 1.0)


def _sample_ambient_batch(domain, n: int, rng) -> np.ndarray:
    # Mix of far-out and near-feasible points so projections exercise
    # both branches.
    spread = 2.5 * _radius(domain)
    raw = rng.standard_normal((n, domain.dim)) * spread
    if isinstance(domain, Simplex):
        raw = raw * 0.5 + domain.anchor()[None, :]
    feas = _sample_feasible_batch(domain, n, rng)
    pick = rng.uniform(size=n) < 0.5
    return np.where(pick[:, None], raw, feas)


# -- sets -------------------------------------------------------------------


def _check_lmo_optimality(kind, domain, n=10_000, seed=91) -> CheckResult:
    name = f"sets.lmo_optimality.{kind}"
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((n, domain.dim))
    points = _sample_feasible_batch(domain, n, rng)
    for i in range(n):
        g = grads[i]
        out = domain.lmo(g)
        if not domain.contains(out, FEAS_SLACK):
            return CheckResult(name, "sets", False, f"lmo output infeasible: g={g.tolist()}")
        lhs = float(np.dot(g, out))
        rhs = float(np.dot(g, points[i]))
        if lhs > rhs + FEAS_SLACK:
            return CheckResult(
                name,
                "sets",
                False,
                f"lmo beaten at sample {i}: g={g.tolist()} x={points[i].tolist()} "
                f"lmo_value={lhs!r} sample_value={rhs!r}",
            )
    return CheckResult(name, "sets", True, f"{n} sampled objectives, none beat the oracle")


def _check_strong_convexity_definition(kind, domain, n=10_000, seed=92) -> CheckResult:
    # Midpoint certificates: every gamma-mix of feasible points may be
    # pushed out by gamma(1-gamma)(alpha/2)||x-y||^2 in any unit direction
    # and must stay inside the set.
    name = f"sets.strong_convexity_definition.{kind}"
    alpha = domain.strong_convexity
    rng = np.random.default_rng(seed)
    x = _sample_feasible_batch(domain, n, rng)
    y = _sample_feasible_batch(domain, n, rng)
    gamma = rng.uniform(size=(n, 1))
    z = rng.standard_normal((n, domain.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    dist_sq = ((x - y) ** 2).sum(axis=1, keepdims=True)
    m = gamma * x + (1.0 - gamma) * y + gamma * (1.0 - gamma) * 0.5 * alpha * dist_sq * z
    if isinstance(domain, L2Ball):
        norms = np.linalg.norm(m, axis=1)
    else:
        norms = (np.abs(m) ** domain.p).sum(axis=1) ** (1.0 / domain.p)
    bad = np.nonzero(norms > _radius(domain) + FEAS_SLACK)[0]
    if bad.size:
        i = int(bad[0])
        return CheckResult(
            name,
            "sets",
            False,
            f"{bad.size} of {n} certificates infeasible; first at sample {i}: "
            f"norm={float(norms[i])!r} radius={_radius(domain)!r} "
            f"x={x[i].tolist()} y={y[i].tolist()} gamma={float(gamma[i, 0])!r}",
        )
    return CheckResult(name, "sets", True, f"{n} certificates feasible (modulus {alpha:.6g})")


def _check_projection_idempotent(kind, domain, n, seed=93) -> CheckResult:
    name = f"sets.projection_idempotent.{kind}"
    rng = np.random.default_rng(seed)
    pts = _sample_ambient_batch(domain, n, rng)
    for i in range(n):
        p1 = domain.project(pts[i])
        if not domain.contains(p1, FEAS_SLACK):
            return CheckResult(name, "sets", False, f"projection infeasible: w={pts[i].tolist()}")
        p2 = domain.project(p1)
        drift = float(np.linalg.norm(p1 - p2))
        if drift > FEAS_SLACK:
            return CheckResult(
                name, "sets", False, f"not idempotent: w={pts[i].tolist()} drift={drift!r}"
            )
    return CheckResult(name, "sets", True, f"{n} projections idempotent")


def _check_projection_nonexpansive(kind, domain, n, seed=94) -> CheckResult:
    name = f"sets.projection_nonexpansive.{kind}"
    rng = np.random.default_rng(seed)
    a = _sample_ambient_batch(domain, n, rng)
    b = _sample_ambient_batch(domain, n, rng)
    for i in range(n):
        lhs = float(np.linalg.norm(domain.project(a[i]) - domain.project(b[i])))
        rhs = float(np.linalg.norm(a[i] - b[i]))
        if lhs > rhs + FEAS_SLACK:
            return CheckResult(
                name,
                "sets",
                False,
                f"expansion at pair {i}: |Pa-Pb|={lhs!r} > |a-b|={rhs!r}",
            )
    return CheckResult(name, "sets", True, f"{n} pairs nonexpansive")


def _check_diameter(kind, domain, n=10_000, seed=95) -> CheckResult:
    name = f"sets.diameter.{kind}"
    rng = np.random.default_rng(seed)
    a = _sample_feasible_batch(domain, n, rng)
    b = _sample_feasible_batch(domain, n, rng)
    dists = np.linalg.norm(a - b, axis=1)
    worst = float(dists.max())
    if worst > domain.diameter + FEAS_SLACK:
        i = int(np.argmax(dists))
        return CheckResult(
            name,
            "sets",
            False,
            f"sampled distance {worst!r} exceeds diameter {domain.diameter!r}: "
            f"a={a[i].tolist()} b={b[i].tolist()}",
        )
    # Achievability witness: antipodal boundary points or two vertices.
    if isinstance(domain, Simplex):
        w1 = np.zeros(domain.dim)
        w2 = np.zeros(domain.dim)
        w1[0] = 1.0
        w2[min(1, domain.dim - 1)] = 1.0
    else:
        w1 = np.zeros(domain.dim)
        w1[0] = _radius(domain)
        w2 = -w1
    witness = float(np.linalg.norm(w1 - w2))
    if not domain.contains(w1, FEAS_SLACK) or not domain.contains(w2, FEAS_SLACK):
        return CheckResult(name, "sets", False, "diameter witness pair infeasible")
    if abs(witness - domain.diameter) > FEAS_SLACK:
        return CheckResult(
            name,
            "sets",
            False,
            f"witness distance {witness!r} does not attain diameter {domain.diameter!r}",
        )
    return CheckResult(name, "sets", True, f"max of {n} sampled distances {worst:.6g}, witness attains")


def _set_checks() -> list[CheckResult]:
    out = []
    for kind, domain in _canonical_sets():
        out.append(_check_lmo_optimality(kind, domain))
        if domain.strong_convexity > 0.0:
            out.append(_check_strong_convexity_definition(kind, domain))
        out.append(_check_projection_idempotent(kind, domain, 300))
        out.append(_check_projection_nonexpansive(kind, domain, 300))
        out.append(_check_diameter(kind, domain))
    return out


# -- learners ---------------------------------------------------------------


def _run_with_states(algo: str, domain, loss_spec: LossSpec, horizon: int):
    G, lam = certify_constants(loss_spec, domain)
    if algo == ALGO_OFW_LS:
        state, update = ofw_init(domain, horizon, G), ofw_update
    else:
        state, update = scofw_init(domain, lam), scofw_update
    states = [state]
    rounds = []
    for t in range(1, horizon + 1):
        rnd = make_round(loss_spec, t, domain)
        rounds.append(rnd)
        state = update(state, rnd.grad_at(state.x))
        states.append(state)
    return states, rounds


def _check_surrogate_identity_ofw(seed=31) -> CheckResult:
    name = "learners.surrogate_identity.ofw_ls"
    domain = L2Ball(6, 1.0)
    spec = LossSpec(kind=LINEAR, dim=6, seed=seed, G=1.0)
    states, rounds = _run_with_states(ALGO_OFW_LS, domain, spec, 48)
    rng = np.random.default_rng(seed + 1)
    grads = [r.gradient for r in rounds]
    for t in (1, 7, 23, 48):
        state = states[t]
        surr = surrogate_of(state)
        for _ in range(5):
            y = _sample_feasible_batch(domain, 1, rng)[0]
            naive_grad = 2.0 * (y - state.x1)
            naive_val = float(np.dot(y - state.x1, y - state.x1))
            for g in grads[:t]:
                naive_grad = naive_grad + state.eta * g
                naive_val += state.eta * float(np.dot(g, y))
            if float(np.linalg.norm(surr.gradient(y) - naive_grad)) > 1e-9:
                return CheckResult(name, "learners", False, f"gradient mismatch at t={t} y={y.tolist()}")
            if abs(surr.value(y) - naive_val) > 1e-9:
                return CheckResult(name, "learners", False, f"value mismatch at t={t} y={y.tolist()}")
    return CheckResult(name, "learners", True, "running sums match naive summation")


def _check_surrogate_identity_scofw(seed=32) -> CheckResult:
    name = "learners.surrogate_identity.sc_ofw"
    domain = L2Ball(6, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=6, seed=seed, lam=0.7)
    states, rounds = _run_with_states(ALGO_SC_OFW, domain, spec, 48)
    rng = np.random.default_rng(seed + 1)
    grads = []
    for t, rnd in enumerate(rounds, start=1):
        grads.append(rnd.grad_at(states[t - 1].x))
    for t in (1, 7, 23, 48):
        state = states[t]
        surr = surrogate_of(state)
        for _ in range(5):
            y = _sample_feasible_batch(domain, 1, rng)[0]
            naive_grad = np.zeros(domain.dim)
            naive_val = 0.0
            for tau in range(t):
                x_tau = states[tau].x
                naive_grad = naive_grad + grads[tau] + spec.lam * (y - x_tau)
                naive_val += float(np.dot(grads[tau], y)) + 0.5 * spec.lam * float(
                    np.dot(y - x_tau, y - x_tau)
                )
            if float(np.linalg.norm(surr.gradient(y) - naive_grad)) > 1e-9:
                return CheckResult(name, "learners", False, f"gradient mismatch at t={t} y={y.tolist()}")
            if abs(surr.value(y) - naive_val) > 1e-9:
                return CheckResult(name, "learners", False, f"value mismatch at t={t} y={y.tolist()}")
    return CheckResult(name, "learners", True, "running sums match naive summation")


def _check_contraction(algo: str, n_steps=100, seed=33) -> CheckResult:
    # One oracle step must shrink the surrogate gap by the per-step factor
    # max(1/2, 1 - alpha * ||grad F|| / (8 * curvature)).
    name = f"learners.contraction.{algo}"
    domain = L2Ball(10, 1.0)
    if algo == ALGO_OFW_LS:
        spec = LossSpec(kind=LINEAR, dim=10, seed=seed, G=1.0)
    else:
        spec = LossSpec(kind=QUADRATIC, dim=10, seed=seed, lam=1.0)
    horizon = 256
    states, _ = _run_with_states(algo, domain, spec, horizon)
    rng = np.random.default_rng(seed + 1)
    sampled = rng.choice(np.arange(1, horizon + 1), size=n_steps, replace=False)
    alpha = domain.strong_convexity
    for t in sorted(int(v) for v in sampled):
        pre, post = states[t - 1], states[t]
        surr = surrogate_of(post)
        _, best = surrogate_argmin(surr, tol=1e-12)
        h_in = surr.value(pre.x) - best
        h_out = surr.value(post.x) - best
        gnorm = float(np.linalg.norm(surr.gradient(pre.x)))
        factor = max(0.5, 1.0 - alpha * gnorm / (8.0 * surr.curvature))
        if h_out > h_in * factor + GAP_SLACK:
            return CheckResult(
                name,
                "learners",
                False,
                f"step t={t}: h_in={h_in!r} h_out={h_out!r} factor={factor!r}",
            )
    return CheckResult(name, "learners", True, f"{n_steps} sampled steps contract")


def _check_comparator_drift_ofw(seed=34) -> CheckResult:
    # Consecutive surrogate minimizers move by at most eta * G.
    name = "learners.comparator_drift.ofw_ls"
    domain = L2Ball(8, 1.0)
    spec = LossSpec(kind=LINEAR, dim=8, seed=seed, G=1.0)
    horizon = 128
    states, _ = _run_with_states(ALGO_OFW_LS, domain, spec, horizon)
    eta = states[0].eta
    tol = 1e-12
    slack = 2.0 * (2.0 * tol / 2.0) ** 0.5 + 1e-9
    prev, _ = surrogate_argmin(surrogate_of(states[0]), tol=tol)
    for t in range(1, horizon + 1):
        cur, _ = surrogate_argmin(surrogate_of(states[t]), tol=tol)
        move = float(np.linalg.norm(cur - prev))
        if move > eta * spec.G + slack:
            return CheckResult(
                name, "learners", False, f"minimizer moved {move!r} > eta*G={eta * spec.G!r} at t={t}"
            )
        prev = cur
    return CheckResult(name, "learners", True, f"{horizon} increments within eta*G")


def _check_comparator_drift_scofw(seed=35) -> CheckResult:
    # Minimizers of consecutive surrogates approach at rate 2(G+lam D)/(lam (t-1)).
    name = "learners.comparator_drift.sc_ofw"
    domain = L2Ball(8, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=8, seed=seed, lam=1.0)
    horizon = 128
    states, _ = _run_with_states(ALGO_SC_OFW, domain, spec, horizon)
    G, lam = certify_constants(spec, domain)
    tol = 1e-12
    lip = G + lam * domain.diameter
    prev, _ = surrogate_argmin(surrogate_of(states[1]), tol=tol)
    for t in range(3, horizon + 2):
        cur, _ = surrogate_argmin(surrogate_of(states[t - 1]), tol=tol)
        move = float(np.linalg.norm(cur - prev))
        allowed = 2.0 * lip / (lam * (t - 1.0))
        slack = (2.0 * tol / (lam * (t - 2.0))) ** 0.5 + (2.0 * tol / (lam * (t - 1.0))) ** 0.5
        if move > allowed + slack:
            return CheckResult(
                name, "learners", False, f"minimizer moved {move!r} > {allowed!r} at t={t}"
            )
        prev = cur
    return CheckResult(name, "learners", True, "increments within 2(G+lam D)/(lam (t-1))")


def _check_surrogate_lipschitz(seed=36, n=2000) -> CheckResult:
    # The regularized per-round loss <g_t, x> + (lam/2)||x - x_t||^2 is
    # (G + lam D)-Lipschitz over the set.
    name = "learners.regularized_loss_lipschitz"
    domain = L2Ball(10, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=10, seed=seed, lam=1.0)
    G, lam = certify_constants(spec, domain)
    lip = G + lam * domain.diameter
    rng = np.random.default_rng(seed + 1)
    xs = _sample_feasible_batch(domain, n, rng)
    ys = _sample_feasible_batch(domain, n, rng)
    zs = _sample_feasible_batch(domain, n, rng)
    for i in range(n):
        rnd = make_round(spec, i + 1, domain)
        x_t = xs[i]
        g_t = rnd.grad_at(x_t)

        def reg_loss(u):
            return float(np.dot(g_t, u)) + 0.5 * lam * float(np.dot(u - x_t, u - x_t))

        gap = abs(reg_loss(ys[i]) - reg_loss(zs[i]))
        allowed = lip * float(np.linalg.norm(ys[i] - zs[i])) + FEAS_SLACK
        if gap > allowed:
            return CheckResult(
                name,
                "learners",
                False,
                f"pair {i}: |delta|={gap!r} exceeds {allowed!r}",
            )
    return CheckResult(name, "learners", True, f"{n} pairs within G + lam*D")


def _time_run(horizon: int) -> float:
    domain = L2Ball(10, 1.0)
    spec = ExperimentSpec(
        domain=domain,
        loss=LossSpec(kind=LINEAR, dim=10, seed=7, G=1.0),
        algo=ALGO_OFW_LS,
        horizon=horizon,
    )
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        run_experiment(spec)
        best = min(best, time.perf_counter() - start)
    return best


def _check_step_cost_linear() -> CheckResult:
    # Doubling the horizon should roughly double the runtime; a history
    # scan per round would quadruple it.
    name = "learners.per_round_cost_constant"
    t_small = _time_run(4000)
    t_big = _time_run(8000)
    ratio = t_big / max(t_small, 1e-9)
    if ratio > 3.2:
        return CheckResult(
            name, "learners", False, f"runtime ratio {ratio:.2f} for 2x horizon (expected ~2)"
        )
    return CheckResult(name, "learners", True, f"runtime ratio {ratio:.2f} for 2x horizon")


def _learner_checks() -> list[CheckResult]:
    return [
        _check_surrogate_identity_ofw(),
        _check_surrogate_identity_scofw(),
        _check_contraction(ALGO_OFW_LS),
        _check_contraction(ALGO_SC_OFW),
        _check_comparator_drift_ofw(),
        _check_comparator_drift_scofw(),
        _check_surrogate_lipschitz(),
        _check_step_cost_linear(),
    ]


# -- bounds -----------------------------------------------------------------


def _bound_specs():
    return [
        (
            "ofw_ls_l2",
            ExperimentSpec(
                domain=L2Ball(10, 1.0),
                loss=LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0),
                algo=ALGO_OFW_LS,
                horizon=512,
                gap_check=True,
                gap_cap=512,
            ),
        ),
        (
            "sc_ofw_l2",
            ExperimentSpec(
                domain=L2Ball(10, 1.0),
                loss=LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0),
                algo=ALGO_SC_OFW,
                horizon=512,
                gap_check=True,
                gap_cap=512,
            ),
        ),
        (
            "sc_ofw_simplex",
            ExperimentSpec(
                domain=Simplex(10),
                loss=LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0),
                algo=ALGO_SC_OFW,
                horizon=512,
                gap_check=True,
                gap_cap=512,
            ),
        ),
    ]


def _check_gap_schedule(tag: str, spec: ExperimentSpec) -> CheckResult:
    name = f"bounds.gap_schedule.{tag}"
    trace = run_experiment(spec)
    measured = ~np.isnan(trace.gap)
    if not measured.any():
        return CheckResult(name, "bounds", False, "no gaps were measured")
    if np.nanmin(trace.gap) < -FEAS_SLACK:
        i = int(np.nanargmin(trace.gap))
        return CheckResult(
            name, "bounds", False, f"negative gap {trace.gap[i]!r} at t={i + 1}"
        )
    if spec.algo == ALGO_OFW_LS and trace.gap[0] > FEAS_SLACK:
        return CheckResult(
            name, "bounds", False, f"first-round gap {trace.gap[0]!r} should be 0"
        )
    for i in np.nonzero(measured)[0]:
        t = int(i + 1)
        bound = gap_bound(spec, t)
        if bound is None:
            continue
        if trace.gap[i] > bound + GAP_SLACK:
            return CheckResult(
                name,
                "bounds",
                False,
                f"gap {trace.gap[i]!r} exceeds bound {bound!r} at t={t}",
            )
    worst = float(np.nanmax(trace.gap / np.where(measured, trace.gap_bound, np.nan)))
    return CheckResult(
        name, "bounds", True, f"gaps within schedule; worst gap/bound ratio {worst:.3g}"
    )


def _check_regret_bound(tag: str, spec: ExperimentSpec) -> CheckResult:
    name = f"bounds.regret.{tag}"
    from dataclasses import replace

    run_spec = replace(spec, horizon=1024, gap_check=False)
    trace = run_experiment(run_spec)
    bound = theorem_bound(run_spec, run_spec.horizon)
    if trace.final_regret > bound:
        return CheckResult(
            name,
            "bounds",
            False,
            f"final regret {trace.final_regret!r} exceeds bound {bound!r}",
        )
    over = np.nonzero(trace.regret > trace.theorem_bound)[0]
    if over.size:
        t = int(over[0] + 1)
        return CheckResult(
            name,
            "bounds",
            False,
            f"per-round regret {trace.regret[over[0]]!r} exceeds bound at t={t}",
        )
    return CheckResult(
        name,
        "bounds",
        True,
        f"R(T)={trace.final_regret:.6g} within bound {bound:.6g}",
    )


def _bound_checks() -> list[CheckResult]:
    out = []
    for tag, spec in _bound_specs():
        out.append(_check_gap_schedule(tag, spec))
        out.append(_check_regret_bound(tag, spec))
    return out


# -- driver -------------------------------------------------------------------


def verify_suite(scope: str = "all") -> VerifyReport:
    """Run the named scope's checks; exceptions count as failures."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    makers = []
    if scope in ("sets", "all"):
        makers.append(_set_checks)
    if scope in ("learners", "all"):
        makers.append(_learner_checks)
    if scope in ("bounds", "all"):
        makers.append(_bound_checks)
    results: list[CheckResult] = []
    for make in makers:
        try:
            results.extend(make())
        except Exception as exc:  # a crashed check is a failed check
            results.append(
                CheckResult(f"{make.__name__}.crashed", "internal", False, repr(exc))
            )
    return VerifyReport(results)
