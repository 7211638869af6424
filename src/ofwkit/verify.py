"""Self-check battery: geometry, learner identities, and bound conformance.

Each check is a named zero-argument callable returning ``(passed, detail)``,
with a counterexample in the detail string when it fails, so a corrupted
component is pinned to the check that caught it. ``verify_suite`` runs
each check on its own: a check that raises fails under its own name, with
the exception as its detail, and the checks after it still run. Each
check is timed, and the report's JSON gives the times under
``durations_s``. Scopes:
``sets``, ``learners``, ``bounds``, ``all``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from .core import row_dots
from .harness import (
    ALGO_OFW_LS,
    ALGO_SC_OFW,
    SCOPES,
    ExperimentSpec,
    _init_learner,
    run_experiment,
)
from .losses import (
    LINEAR,
    QUADRATIC,
    LossSpec,
    certify_constants,
    gradient_at,
    round_chunks,
)
from .oracle import surrogate_argmin
from .sets import L1Ball, L2Ball, LpBall, Simplex

__all__ = ["CheckResult", "VerifyReport", "verify_suite", "SCOPES"]

GAP_SLACK = 1e-7
FEAS_SLACK = 1e-9


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    detail: str
    # Wall-clock seconds the check took.
    seconds: float = 0.0


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
            "durations_s": {r.name: r.seconds for r in self.results},
        }
        return json.dumps(payload, indent=2)


def _canonical_sets():
    return [
        ("l2_ball", L2Ball(10, 1.0)),
        ("lp_ball", LpBall(10, 1.0, 1.5)),
        ("l1_ball", L1Ball(10, 2.0)),
        ("simplex", Simplex(10)),
    ]


def _sample_ambient_batch(domain, n: int, rng) -> np.ndarray:
    # Mix of far-out and near-feasible points so projections exercise
    # both branches.
    raw = domain.anchor() + 1.25 * domain.diameter * rng.standard_normal((n, domain.dim))
    feas = domain.sample_rows(n, rng)
    pick = rng.uniform(size=n) < 0.5
    return np.where(pick[:, None], raw, feas)


# -- sets -------------------------------------------------------------------


def _check_lmo_optimality(domain, n=10_000, seed=91) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((n, domain.dim))
    points = domain.sample_rows(n, rng)
    # One lmo call per sample; then feasibility, and the objective values of
    # the samples before the first infeasible output, all at once.
    outs = np.array([domain.lmo(g) for g in grads])
    infeasible = np.flatnonzero(~domain.contains_rows(outs, FEAS_SLACK))
    m = int(infeasible[0]) if infeasible.size else n
    lhs = row_dots(grads[:m], outs[:m])
    rhs = row_dots(grads[:m], points[:m])
    beaten = np.flatnonzero(lhs > rhs + FEAS_SLACK)
    if beaten.size:
        i = int(beaten[0])
        return False, (
            f"lmo beaten at sample {i}: g={grads[i].tolist()} x={points[i].tolist()} "
            f"lmo_value={float(lhs[i])!r} sample_value={float(rhs[i])!r}"
        )
    if infeasible.size:
        return False, f"lmo output infeasible: g={grads[m].tolist()}"
    return True, f"{n} sampled objectives, none beat the oracle"


def _check_strong_convexity_definition(domain, n=10_000, seed=92) -> tuple[bool, str]:
    # Midpoint certificates: every gamma-mix of feasible points may be
    # pushed out by gamma(1-gamma)(alpha/2)||x-y||^2 in any unit direction
    # and must stay inside the set.
    alpha = domain.strong_convexity
    rng = np.random.default_rng(seed)
    x = domain.sample_rows(n, rng)
    y = domain.sample_rows(n, rng)
    gamma = rng.uniform(size=(n, 1))
    z = rng.standard_normal((n, domain.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    dist_sq = ((x - y) ** 2).sum(axis=1, keepdims=True)
    m = gamma * x + (1.0 - gamma) * y + gamma * (1.0 - gamma) * 0.5 * alpha * dist_sq * z
    bad = np.flatnonzero(~domain.contains_rows(m, FEAS_SLACK))
    if bad.size:
        i = int(bad[0])
        return False, (
            f"{bad.size} of {n} certificates infeasible; first at sample {i}: "
            f"norm={float(domain.norm_rows(m[i : i + 1])[0])!r} radius={domain.radius!r} "
            f"x={x[i].tolist()} y={y[i].tolist()} gamma={float(gamma[i, 0])!r}"
        )
    return True, f"{n} certificates feasible (modulus {alpha:.6g})"


def _check_projection_idempotent(domain, n=300, seed=93) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    pts = _sample_ambient_batch(domain, n, rng)
    for i in range(n):
        p1 = domain.project(pts[i])
        if not domain.contains(p1, FEAS_SLACK):
            return False, f"projection infeasible: w={pts[i].tolist()}"
        p2 = domain.project(p1)
        drift = float(np.linalg.norm(p1 - p2))
        if drift > FEAS_SLACK:
            return False, f"not idempotent: w={pts[i].tolist()} drift={drift!r}"
    return True, f"{n} projections idempotent"


def _check_projection_nonexpansive(domain, n=300, seed=94) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    a = _sample_ambient_batch(domain, n, rng)
    b = _sample_ambient_batch(domain, n, rng)
    for i in range(n):
        lhs = float(np.linalg.norm(domain.project(a[i]) - domain.project(b[i])))
        rhs = float(np.linalg.norm(a[i] - b[i]))
        if lhs > rhs + FEAS_SLACK:
            return False, f"expansion at pair {i}: |Pa-Pb|={lhs!r} > |a-b|={rhs!r}"
    return True, f"{n} pairs nonexpansive"


def _check_diameter(domain, n=10_000, seed=95) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    a = domain.sample_rows(n, rng)
    b = domain.sample_rows(n, rng)
    dists = np.linalg.norm(a - b, axis=1)
    worst = float(dists.max())
    if worst > domain.diameter + FEAS_SLACK:
        i = int(np.argmax(dists))
        return False, (
            f"sampled distance {worst!r} exceeds diameter {domain.diameter!r}: "
            f"a={a[i].tolist()} b={b[i].tolist()}"
        )
    # Achievability witness: the oracle's points for -e_1 and e_1, a
    # diameter apart on every set here (antipodal points, or two vertices).
    e1 = np.eye(1, domain.dim)[0]
    w1, w2 = domain.lmo(-e1), domain.lmo(e1)
    witness = float(np.linalg.norm(w1 - w2))
    if not domain.contains(w1, FEAS_SLACK) or not domain.contains(w2, FEAS_SLACK):
        return False, "diameter witness pair infeasible"
    if abs(witness - domain.diameter) > FEAS_SLACK:
        return False, f"witness distance {witness!r} does not attain diameter {domain.diameter!r}"
    return True, f"max of {n} sampled distances {worst:.6g}, witness attains"


def _set_checks():
    for kind, domain in _canonical_sets():
        yield f"sets.lmo_optimality.{kind}", partial(_check_lmo_optimality, domain)
        if domain.strong_convexity > 0.0:
            check = partial(_check_strong_convexity_definition, domain)
            yield f"sets.strong_convexity_definition.{kind}", check
        yield f"sets.projection_idempotent.{kind}", partial(_check_projection_idempotent, domain)
        check = partial(_check_projection_nonexpansive, domain)
        yield f"sets.projection_nonexpansive.{kind}", check
        yield f"sets.diameter.{kind}", partial(_check_diameter, domain)


# -- learners ---------------------------------------------------------------


def _run_with_states(algo: str, domain, loss_spec: LossSpec, horizon: int):
    spec = ExperimentSpec(domain=domain, loss=loss_spec, algo=algo, horizon=horizon)
    state, update = _init_learner(spec, *certify_constants(loss_spec, domain))
    states = [state]
    # Each chunk is copied before the next one reuses its buffer.
    rows = np.concatenate([chunk.copy() for chunk in round_chunks(loss_spec, horizon, domain)])
    for row in rows:
        state = update(state, gradient_at(loss_spec.kind, loss_spec.lam, row, state.x))
        states.append(state)
    return states, rows


# Each learner's surrogate gradient and value at y, summed term by term: the
# learner ``state`` after the rounds ``rows``, played from the states ``played``.
def _naive_ofw_surrogate(state, played, rows, spec, y):
    naive_grad = 2.0 * (y - state.x1)
    naive_val = float(np.dot(y - state.x1, y - state.x1))
    for g in rows:
        naive_grad = naive_grad + state.eta * g
        naive_val += state.eta * float(np.dot(g, y))
    return naive_grad, naive_val


def _naive_scofw_surrogate(state, played, rows, spec, y):
    naive_grad = np.zeros(y.shape[0])
    naive_val = 0.0
    for row, before in zip(rows, played):
        g = gradient_at(QUADRATIC, spec.lam, row, before.x)
        d = y - before.x
        naive_grad = naive_grad + g + spec.lam * d
        naive_val += float(np.dot(g, y)) + 0.5 * spec.lam * float(np.dot(d, d))
    return naive_grad, naive_val


def _check_surrogate_identity(algo: str, spec: LossSpec, naive_surrogate) -> tuple[bool, str]:
    domain = L2Ball(6, 1.0)
    states, rows = _run_with_states(algo, domain, spec, 48)
    rng = np.random.default_rng(spec.seed + 1)
    for t in (1, 7, 23, 48):
        state = states[t]
        for _ in range(5):
            y = domain.sample_rows(1, rng)[0]
            naive_grad, naive_val = naive_surrogate(state, states[:t], rows[:t], spec, y)
            if float(np.linalg.norm(state.gradient(y) - naive_grad)) > 1e-9:
                return False, f"gradient mismatch at t={t} y={y.tolist()}"
            if abs(state.value(y) - naive_val) > 1e-9:
                return False, f"value mismatch at t={t} y={y.tolist()}"
    return True, "running sums match naive summation"


def _check_contraction(algo: str, n_steps=100, seed=33) -> tuple[bool, str]:
    # One oracle step must shrink the surrogate gap by the per-step factor
    # max(1/2, 1 - alpha * ||grad F|| / (8 * curvature)).
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
        _, best = surrogate_argmin(post, tol=1e-12)
        h_in = post.value(pre.x) - best
        h_out = post.value(post.x) - best
        gnorm = float(np.linalg.norm(post.gradient(pre.x)))
        factor = max(0.5, 1.0 - alpha * gnorm / (8.0 * post.curvature))
        if h_out > h_in * factor + GAP_SLACK:
            return False, f"step t={t}: h_in={h_in!r} h_out={h_out!r} factor={factor!r}"
    return True, f"{n_steps} sampled steps contract"


def _check_comparator_drift_ofw(seed=34) -> tuple[bool, str]:
    # Consecutive surrogate minimizers move by at most eta * G.
    domain = L2Ball(8, 1.0)
    spec = LossSpec(kind=LINEAR, dim=8, seed=seed, G=1.0)
    horizon = 128
    states, _ = _run_with_states(ALGO_OFW_LS, domain, spec, horizon)
    eta = states[0].eta
    tol = 1e-12
    slack = 2.0 * (2.0 * tol / 2.0) ** 0.5 + 1e-9
    prev, _ = surrogate_argmin(states[0], tol=tol)
    for t in range(1, horizon + 1):
        cur, _ = surrogate_argmin(states[t], tol=tol)
        move = float(np.linalg.norm(cur - prev))
        if move > eta * spec.G + slack:
            return False, f"minimizer moved {move!r} > eta*G={eta * spec.G!r} at t={t}"
        prev = cur
    return True, f"{horizon} increments within eta*G"


def _check_comparator_drift_scofw(seed=35) -> tuple[bool, str]:
    # Minimizers of consecutive surrogates approach at rate 2(G+lam D)/(lam (t-1)).
    domain = L2Ball(8, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=8, seed=seed, lam=1.0)
    horizon = 128
    states, _ = _run_with_states(ALGO_SC_OFW, domain, spec, horizon)
    G, lam = certify_constants(spec, domain)
    tol = 1e-12
    lip = G + lam * domain.diameter
    prev, _ = surrogate_argmin(states[1], tol=tol)
    for t in range(3, horizon + 2):
        cur, _ = surrogate_argmin(states[t - 1], tol=tol)
        move = float(np.linalg.norm(cur - prev))
        allowed = 2.0 * lip / (lam * (t - 1.0))
        slack = (2.0 * tol / (lam * (t - 2.0))) ** 0.5 + (2.0 * tol / (lam * (t - 1.0))) ** 0.5
        if move > allowed + slack:
            return False, f"minimizer moved {move!r} > {allowed!r} at t={t}"
        prev = cur
    return True, "increments within 2(G+lam D)/(lam (t-1))"


def _check_surrogate_lipschitz(seed=36, n=2000) -> tuple[bool, str]:
    # The regularized per-round loss <g_t, x> + (lam/2)||x - x_t||^2 is
    # (G + lam D)-Lipschitz over the set.
    domain = L2Ball(10, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=10, seed=seed, lam=1.0)
    G, lam = certify_constants(spec, domain)
    lip = G + lam * domain.diameter
    rng = np.random.default_rng(seed + 1)
    xs = domain.sample_rows(n, rng)
    ys = domain.sample_rows(n, rng)
    zs = domain.sample_rows(n, rng)
    for i, row in enumerate(chain.from_iterable(round_chunks(spec, n, domain))):
        x_t = xs[i]
        g_t = gradient_at(QUADRATIC, lam, row, x_t)

        def reg_loss(u):
            return float(np.dot(g_t, u)) + 0.5 * lam * float(np.dot(u - x_t, u - x_t))

        gap = abs(reg_loss(ys[i]) - reg_loss(zs[i]))
        allowed = lip * float(np.linalg.norm(ys[i] - zs[i])) + FEAS_SLACK
        if gap > allowed:
            return False, f"pair {i}: |delta|={gap!r} exceeds {allowed!r}"
    return True, f"{n} pairs within G + lam*D"


def _check_step_cost_linear() -> tuple[bool, str]:
    # Doubling the horizon should roughly double the runtime; a history
    # scan per round would quadruple it. The two horizons are timed in
    # turn, best of 3 each, so a burst of load on the host slows both.
    domain = L2Ball(10, 1.0)
    loss = LossSpec(kind=LINEAR, dim=10, seed=7, G=1.0)
    specs = [
        ExperimentSpec(domain=domain, loss=loss, algo=ALGO_OFW_LS, horizon=h) for h in (4000, 8000)
    ]
    best = [float("inf")] * 2
    for _ in range(3):
        for k, spec in enumerate(specs):
            start = time.perf_counter()
            run_experiment(spec)
            best[k] = min(best[k], time.perf_counter() - start)
    t_small, t_big = best
    ratio = t_big / max(t_small, 1e-9)
    if ratio > 3.2:
        return False, f"runtime ratio {ratio:.2f} for 2x horizon (expected ~2)"
    return True, f"runtime ratio {ratio:.2f} for 2x horizon"


def _learner_checks():
    for algo, spec, naive in (
        (ALGO_OFW_LS, LossSpec(kind=LINEAR, dim=6, seed=31, G=1.0), _naive_ofw_surrogate),
        (ALGO_SC_OFW, LossSpec(kind=QUADRATIC, dim=6, seed=32, lam=0.7), _naive_scofw_surrogate),
    ):
        check = partial(_check_surrogate_identity, algo, spec, naive)
        yield f"learners.surrogate_identity.{algo}", check
    for algo in (ALGO_OFW_LS, ALGO_SC_OFW):
        yield f"learners.contraction.{algo}", partial(_check_contraction, algo)
    yield "learners.comparator_drift.ofw_ls", _check_comparator_drift_ofw
    yield "learners.comparator_drift.sc_ofw", _check_comparator_drift_scofw
    yield "learners.regularized_loss_lipschitz", _check_surrogate_lipschitz
    yield "learners.per_round_cost_constant", _check_step_cost_linear


# -- bounds -----------------------------------------------------------------


# tag, set, loss kind, learner: each at dim 10, seed 1, unit G or lambda,
# T = 512, every round's gap measured.
_BOUND_SPECS = (
    ("ofw_ls_l2", partial(L2Ball, 10, 1.0), LINEAR, ALGO_OFW_LS),
    ("sc_ofw_l2", partial(L2Ball, 10, 1.0), QUADRATIC, ALGO_SC_OFW),
    ("sc_ofw_simplex", partial(Simplex, 10), QUADRATIC, ALGO_SC_OFW),
)


def _bound_spec(make_set, kind: str, algo: str) -> ExperimentSpec:
    unit = {"G": 1.0} if kind == LINEAR else {"lam": 1.0}
    loss = LossSpec(kind=kind, dim=10, seed=1, **unit)
    return ExperimentSpec(
        domain=make_set(), loss=loss, algo=algo, horizon=512, gap_check=True, gap_cap=512
    )


def _check_gap_schedule(spec: ExperimentSpec) -> tuple[bool, str]:
    trace = run_experiment(spec)
    measured = ~np.isnan(trace.gap)
    if not measured.any():
        return False, "no gaps were measured"
    if np.nanmin(trace.gap) < -FEAS_SLACK:
        i = int(np.nanargmin(trace.gap))
        return False, f"negative gap {float(trace.gap[i])!r} at t={i + 1}"
    if spec.algo == ALGO_OFW_LS and trace.gap[0] > FEAS_SLACK:
        return False, f"first-round gap {float(trace.gap[0])!r} should be 0"
    # Comparisons with the NaN of an unmeasured or unbounded round are false.
    over = np.flatnonzero(trace.gap > trace.gap_bound + GAP_SLACK)
    if over.size:
        i = int(over[0])
        gap, bound = float(trace.gap[i]), float(trace.gap_bound[i])
        return False, f"gap {gap!r} exceeds bound {bound!r} at t={i + 1}"
    worst = float(np.nanmax(trace.gap / np.where(measured, trace.gap_bound, np.nan)))
    return True, f"gaps within schedule; worst gap/bound ratio {worst:.3g}"


def _check_regret_bound(spec: ExperimentSpec) -> tuple[bool, str]:
    trace = run_experiment(replace(spec, horizon=1024, gap_check=False))
    if trace.final_regret > trace.final_bound:
        return False, f"final regret {trace.final_regret!r} exceeds bound {trace.final_bound!r}"
    over = np.nonzero(trace.regret > trace.theorem_bound)[0]
    if over.size:
        t = int(over[0] + 1)
        return False, f"per-round regret {float(trace.regret[t - 1])!r} exceeds bound at t={t}"
    return True, f"R(T)={trace.final_regret:.6g} within bound {trace.final_bound:.6g}"


def _bound_checks():
    for tag, *row in _BOUND_SPECS:
        spec = partial(_bound_spec, *row)
        yield f"bounds.gap_schedule.{tag}", lambda spec=spec: _check_gap_schedule(spec())
        yield f"bounds.regret.{tag}", lambda spec=spec: _check_regret_bound(spec())


# -- driver -------------------------------------------------------------------


def verify_suite(scope: str = "all") -> VerifyReport:
    """Run the named scope's checks; a check that raises fails, naming the exception."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    results: list[CheckResult] = []
    parts = (("sets", _set_checks), ("learners", _learner_checks), ("bounds", _bound_checks))
    for part, checks in parts:
        if scope not in (part, "all"):
            continue
        for name, check in checks():
            start = time.perf_counter()
            try:
                passed, detail = check()
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, repr(exc)
            seconds = time.perf_counter() - start
            results.append(CheckResult(name, part, passed, detail, seconds))
    return VerifyReport(results)
