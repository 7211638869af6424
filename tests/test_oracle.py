import numpy as np
import pytest

from ofwkit.learners import ofw_init, ofw_update, scofw_init, scofw_update
from ofwkit.losses import LINEAR, QUADRATIC, LossRound, LossSpec, make_round
from ofwkit.oracle import (
    ConvergenceError,
    OfwSurrogate,
    ScOfwSurrogate,
    grid_line_search,
    offline_comparator,
    surrogate_argmin,
    surrogate_of,
)
from ofwkit.sets import L1Ball, L2Ball, LpBall, Simplex

SETS = {
    "l2": L2Ball(6, 1.0),
    "lp": LpBall(6, 1.0, 1.5),
    "l1": L1Ball(6, 1.0),
    "simplex": Simplex(6),
}


def test_surrogate_of_fresh_ofw_is_anchored_quadratic():
    state = ofw_init(L2Ball(3, 1.0), horizon=4, G=1.0)
    surr = surrogate_of(state)
    assert isinstance(surr, OfwSurrogate)
    # before any gradient the surrogate is ||x - x1||^2
    x = np.array([0.2, -0.1, 0.4])
    assert surr.value(x) == pytest.approx(float(x @ x), rel=1e-12)
    xh, val = surrogate_argmin(surr)
    np.testing.assert_allclose(xh, np.zeros(3), atol=1e-9)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_surrogate_of_scofw_before_first_round_is_none():
    state = scofw_init(L2Ball(3, 1.0), lam=1.0)
    assert surrogate_of(state) is None


def test_scofw_surrogate_argmin_1d_hand_value():
    # after one round on [-1, 1] with g=1, lam=1: minimize x + x^2/2,
    # unconstrained optimum -1 sits on the boundary, value -1/2
    state = scofw_update(scofw_init(L2Ball(1, 1.0), lam=1.0), np.array([1.0]))
    surr = surrogate_of(state)
    xh, val = surrogate_argmin(surr)
    assert xh[0] == pytest.approx(-1.0, abs=1e-9)
    assert val == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("learner", ["ofw", "sc_ofw"])
@pytest.mark.parametrize("set_kind", sorted(SETS))
def test_surrogate_argmin_certifies_requested_tolerance(set_kind, learner):
    dom = SETS[set_kind]
    if learner == "ofw":
        spec = LossSpec(kind=LINEAR, dim=6, seed=3, G=1.0)
        state, update = ofw_init(dom, horizon=40, G=1.0), ofw_update
    else:
        spec = LossSpec(kind=QUADRATIC, dim=6, seed=3, lam=1.0)
        state, update = scofw_init(dom, lam=1.0), scofw_update
    for t in range(1, 41):
        state = update(state, make_round(spec, t, dom).grad_at(state.x))
    surr = surrogate_of(state)
    for tol in (1e-6, 1e-9, 1e-12):
        xh, val = surrogate_argmin(surr, tol=tol)
        grad = surr.gradient(xh)
        gap = float(grad @ (xh - dom.lmo(grad)))
        assert gap <= tol
        assert val == pytest.approx(surr.value(xh), rel=1e-12)
        assert dom.contains(xh, 1e-9)
    for k in range(500):
        assert val <= surr.value(dom.random_feasible(k)) + 1e-9


def test_surrogate_argmin_on_simplex():
    dom = Simplex(5)
    state = scofw_init(dom, lam=1.0)
    spec = LossSpec(kind=QUADRATIC, dim=5, seed=4, lam=1.0)
    for t in range(1, 21):
        state = scofw_update(state, make_round(spec, t, dom).grad_at(state.x))
    surr = surrogate_of(state)
    xh, val = surrogate_argmin(surr, tol=1e-10)
    assert dom.contains(xh, 1e-9)
    # beat a feasible sample cloud
    for k in range(500):
        assert val <= surr.value(dom.random_feasible(k)) + 1e-9


def test_failed_certificate_raises(monkeypatch):
    # The Frank-Wolfe gap stays a check: a wrong projection must not pass.
    dom = L2Ball(4, 1.0)
    state = ofw_update(ofw_init(dom, horizon=4, G=1.0), np.array([1.0, 2.0, 0.0, -1.0]))
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=5, lam=1.0)
    rounds = [make_round(spec, t, dom) for t in range(1, 5)]
    monkeypatch.setattr(L2Ball, "project", lambda self, x: 0.5 * x)
    with pytest.raises(ConvergenceError):
        surrogate_argmin(surrogate_of(state))
    with pytest.raises(ConvergenceError):
        offline_comparator(dom, rounds)


def test_scofw_surrogate_requires_one_round():
    with pytest.raises(ValueError):
        ScOfwSurrogate(
            domain=L2Ball(2, 1.0),
            grad_sum=np.zeros(2),
            iterate_sum=np.zeros(2),
            iterate_sq_sum=0.0,
            t=0,
            lam=1.0,
        )


def test_offline_comparator_linear_example():
    # summed gradient (1, 1): the oracle point is the antipode on the unit
    # ball, total loss -sqrt(2)
    dom = L2Ball(2, 1.0)

    def fixed_round(t, g):
        return LossRound(
            t=t,
            kind=LINEAR,
            value_at=lambda x, g=g: float(g @ x),
            grad_at=lambda x, g=g: g,
            gradient=g,
        )

    rounds = [fixed_round(1, np.array([1.0, 0.0])), fixed_round(2, np.array([0.0, 1.0]))]
    x_star, total = offline_comparator(dom, rounds)
    np.testing.assert_allclose(x_star, [-np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-12)
    assert total == pytest.approx(-np.sqrt(2.0), rel=1e-12)


def test_offline_comparator_single_quadratic_round():
    dom = L2Ball(4, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=5, lam=1.0)
    rnd = make_round(spec, 1, dom)
    x_star, total = offline_comparator(dom, [rnd])
    np.testing.assert_allclose(x_star, rnd.target, atol=1e-9)
    assert total == pytest.approx(0.0, abs=1e-12)


def test_offline_comparator_quadratic_matches_sample_cloud():
    dom = Simplex(6)
    spec = LossSpec(kind=QUADRATIC, dim=6, seed=6, lam=1.3)
    rounds = [make_round(spec, t, dom) for t in range(1, 33)]
    x_star, total = offline_comparator(dom, rounds)
    assert dom.contains(x_star, 1e-9)
    for k in range(2000):
        x = dom.random_feasible(k)
        assert total <= sum(r.value_at(x) for r in rounds) + 1e-6


def test_offline_comparator_linear_matches_sample_cloud():
    dom = LpBall(3, 1.0, 1.5)
    spec = LossSpec(kind=LINEAR, dim=3, seed=7, G=1.0)
    rounds = [make_round(spec, t, dom) for t in range(1, 17)]
    x_star, total = offline_comparator(dom, rounds)
    assert dom.contains(x_star, 1e-9)
    for k in range(5000):
        x = dom.random_feasible(k)
        assert total <= sum(r.value_at(x) for r in rounds) + 1e-9


def test_offline_comparator_validation():
    dom = L2Ball(2, 1.0)
    with pytest.raises(ValueError):
        offline_comparator(dom, [])
    lin = make_round(LossSpec(kind=LINEAR, dim=2, seed=0, G=1.0), 1, dom)
    quad = make_round(LossSpec(kind=QUADRATIC, dim=2, seed=0, lam=1.0), 1, dom)
    with pytest.raises(ValueError):
        offline_comparator(dom, [lin, quad])
    quad2 = make_round(LossSpec(kind=QUADRATIC, dim=2, seed=0, lam=2.0), 2, dom)
    with pytest.raises(ValueError):
        offline_comparator(dom, [quad, quad2])


def test_prefix_minimizers_beat_any_fixed_point():
    # the sequence of per-prefix surrogate minimizers, played one step
    # late, accumulates no more regularized loss than the best fixed point
    dom = L2Ball(4, 1.0)
    lam = 1.0
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=8, lam=lam)
    state = scofw_init(dom, lam=lam)
    rounds, played = [], []
    for t in range(1, 25):
        rnd = make_round(spec, t, dom)
        rounds.append(rnd)
        played.append(state.x.copy())
        state = scofw_update(state, rnd.grad_at(state.x))

    def reg_loss(rnd, x_t, u):
        g = rnd.grad_at(x_t)
        return float(g @ u) + 0.5 * lam * float((u - x_t) @ (u - x_t))

    # rebuild each prefix surrogate and take its certified minimizer
    mins = []
    st = scofw_init(dom, lam=lam)
    for t, rnd in enumerate(rounds, start=1):
        st = scofw_update(st, rnd.grad_at(played[t - 1]))
        xh, _ = surrogate_argmin(surrogate_of(st), tol=1e-12)
        mins.append(xh)
    lhs = sum(
        reg_loss(rounds[t], played[t], mins[t]) for t in range(len(rounds))
    )
    rng = np.random.default_rng(9)
    for k in range(500):
        u = dom.random_feasible(k)
        rhs = sum(reg_loss(rounds[t], played[t], u) for t in range(len(rounds)))
        assert lhs <= rhs + 1e-6


def test_strong_convexity_consequences_of_surrogates():
    # for an alpha-strongly-convex function, distance and gradient norm
    # both control suboptimality
    dom = L2Ball(5, 1.0)
    spec = LossSpec(kind=LINEAR, dim=5, seed=10, G=1.0)
    state = ofw_init(dom, horizon=30, G=1.0)
    for t in range(1, 31):
        state = ofw_update(state, make_round(spec, t, dom).grad_at(state.x))
    surr = surrogate_of(state)
    alpha = surr.curvature
    x_star, best = surrogate_argmin(surr, tol=1e-12)
    rng = np.random.default_rng(11)
    for k in range(300):
        x = dom.random_feasible(k)
        subopt = surr.value(x) - best
        dist_sq = float((x - x_star) @ (x - x_star))
        assert 0.5 * alpha * dist_sq <= subopt + 1e-9
        gnorm = float(np.linalg.norm(surr.gradient(x)))
        assert gnorm + 1e-9 >= np.sqrt(0.5 * alpha) * np.sqrt(max(subopt, 0.0))


def test_grid_line_search_examples():
    assert grid_line_search(-1.0, 2.0, 10_001) == pytest.approx(0.25, abs=1e-4)
    assert grid_line_search(3.0, 5.0, 101) == 0.0
    assert grid_line_search(-4.0, 2.0, 101) == 1.0
    with pytest.raises(ValueError):
        grid_line_search(1.0, 1.0, 1)
