import _comparator_reference as reference
import numpy as np
import pytest
from _helpers import feasible_point, grid_line_search, loss_at, seeded_rounds

from ofwkit.learners import ofw_init, ofw_update, scofw_init, scofw_update
from ofwkit.losses import LINEAR, QUADRATIC, LossSpec, Rounds, as_rounds
from ofwkit.oracle import ConvergenceError, PrefixComparator, offline_comparator, surrogate_argmin
from ofwkit.sets import L1Ball, L2Ball, LpBall, Simplex

SETS = {
    "l2": L2Ball(6, 1.0),
    "lp": LpBall(6, 1.0, 1.5),
    "l1": L1Ball(6, 1.0),
    "simplex": Simplex(6),
}


def _total_loss(rounds, x):
    """The rounds' losses at x, summed one round at a time."""
    return sum(loss_at(rounds.kind, rounds.lam, row, x)[0] for row in rounds.data)


def test_fresh_ofw_state_is_anchored_quadratic():
    state = ofw_init(L2Ball(3, 1.0), horizon=4, G=1.0)
    assert state.curvature == 2.0
    # before any gradient the surrogate is ||x - x1||^2
    x = np.array([0.2, -0.1, 0.4])
    assert state.value(x) == pytest.approx(float(x @ x), rel=1e-12)
    xh, val = surrogate_argmin(state)
    np.testing.assert_allclose(xh, np.zeros(3), atol=1e-9)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_scofw_state_before_first_round_has_no_minimizer():
    # With no round played the surrogate is 0 everywhere: no curvature,
    # so no unique minimizer to certify.
    state = scofw_init(L2Ball(3, 1.0), lam=1.0)
    assert state.curvature == 0.0
    with pytest.raises(ValueError, match="curvature"):
        surrogate_argmin(state)


def test_scofw_surrogate_argmin_1d_hand_value():
    # after one round on [-1, 1] with g=1, lam=1: minimize x + x^2/2,
    # unconstrained optimum -1 sits on the boundary, value -1/2
    state = scofw_update(scofw_init(L2Ball(1, 1.0), lam=1.0), np.array([1.0]))
    xh, val = surrogate_argmin(state)
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
    rounds = seeded_rounds(spec, 40, dom)
    for row in rounds.data:
        state = update(state, loss_at(rounds.kind, rounds.lam, row, state.x)[1])
    for tol in (1e-6, 1e-9, 1e-12):
        xh, val = surrogate_argmin(state, tol=tol)
        grad = state.gradient(xh)
        gap = float(grad @ (xh - dom.lmo(grad)))
        assert gap <= tol
        assert val == pytest.approx(state.value(xh), rel=1e-12)
        assert dom.contains(xh, 1e-9)
    for k in range(500):
        assert val <= state.value(feasible_point(dom, k)) + 1e-9


def test_surrogate_argmin_on_simplex():
    dom = Simplex(5)
    state = scofw_init(dom, lam=1.0)
    spec = LossSpec(kind=QUADRATIC, dim=5, seed=4, lam=1.0)
    for row in seeded_rounds(spec, 20, dom).data:
        state = scofw_update(state, loss_at(QUADRATIC, spec.lam, row, state.x)[1])
    xh, val = surrogate_argmin(state, tol=1e-10)
    assert dom.contains(xh, 1e-9)
    # beat a feasible sample cloud
    for k in range(500):
        assert val <= state.value(feasible_point(dom, k)) + 1e-9


def test_failed_certificate_raises(monkeypatch):
    # The Frank-Wolfe gap stays a check: a wrong projection must not pass.
    dom = L2Ball(4, 1.0)
    state = ofw_update(ofw_init(dom, horizon=4, G=1.0), np.array([1.0, 2.0, 0.0, -1.0]))
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=5, lam=1.0)
    rounds = seeded_rounds(spec, 4, dom)
    monkeypatch.setattr(L2Ball, "project", lambda self, x: 0.5 * x)
    monkeypatch.setattr(L2Ball, "project_rows", lambda self, x: 0.5 * x)
    with pytest.raises(ConvergenceError):
        surrogate_argmin(state)
    with pytest.raises(ConvergenceError):
        offline_comparator(dom, rounds)


def test_scofw_surrogate_requires_one_round():
    state = scofw_init(L2Ball(2, 1.0), lam=2.0)
    with pytest.raises(ValueError, match="curvature"):
        surrogate_argmin(state, tol=1e-12)
    state = scofw_update(state, np.array([1.0, 0.0]))
    assert state.curvature == 2.0
    xh, _ = surrogate_argmin(state, tol=1e-12)
    np.testing.assert_allclose(xh, [-0.5, 0.0], atol=1e-12)


def test_offline_comparator_linear_example():
    # summed gradient (1, 1): the oracle point is the antipode on the unit
    # ball, total loss -sqrt(2)
    dom = L2Ball(2, 1.0)
    rounds = as_rounds(LINEAR, 0.0, [[1.0, 0.0], [0.0, 1.0]])
    x_star, totals = offline_comparator(dom, rounds)
    np.testing.assert_allclose(x_star, [-np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-12)
    assert totals[-1] == pytest.approx(-np.sqrt(2.0), rel=1e-12)


def test_offline_comparator_single_quadratic_round():
    dom = L2Ball(4, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=5, lam=1.0)
    rounds = seeded_rounds(spec, 1, dom)
    x_star, totals = offline_comparator(dom, rounds)
    np.testing.assert_allclose(x_star, rounds.data[0], atol=1e-9)
    assert totals[-1] == pytest.approx(0.0, abs=1e-12)


def test_offline_comparator_quadratic_matches_sample_cloud():
    dom = Simplex(6)
    spec = LossSpec(kind=QUADRATIC, dim=6, seed=6, lam=1.3)
    rounds = seeded_rounds(spec, 32, dom)
    x_star, totals = offline_comparator(dom, rounds)
    total = totals[-1]
    assert dom.contains(x_star, 1e-9)
    assert total == pytest.approx(_total_loss(rounds, x_star), rel=1e-12, abs=1e-12)
    for k in range(2000):
        x = feasible_point(dom, k)
        assert total <= _total_loss(rounds, x) + 1e-6


def test_offline_comparator_linear_matches_sample_cloud():
    dom = LpBall(3, 1.0, 1.5)
    spec = LossSpec(kind=LINEAR, dim=3, seed=7, G=1.0)
    rounds = seeded_rounds(spec, 16, dom)
    x_star, totals = offline_comparator(dom, rounds)
    total = totals[-1]
    assert dom.contains(x_star, 1e-9)
    for k in range(5000):
        x = feasible_point(dom, k)
        assert total <= _total_loss(rounds, x) + 1e-9


def test_offline_comparator_validation():
    # Rounds from outside reach the comparator through as_rounds, which
    # refuses an empty sequence and a quadratic round without a modulus.
    dom = L2Ball(2, 1.0)
    with pytest.raises(ValueError):
        offline_comparator(dom, as_rounds(LINEAR, 0.0, np.empty((0, 2))))
    with pytest.raises(ValueError):
        offline_comparator(dom, as_rounds(QUADRATIC, 0.0, np.zeros((3, 2))))


def test_offline_comparator_names_both_dims_of_a_mismatch():
    rounds = as_rounds(LINEAR, 0.0, np.ones((4, 5)))
    with pytest.raises(ValueError, match=r"^expected rounds of dim 3, got shape \(4, 5\)$"):
        offline_comparator(L2Ball(3, 1.0), rounds)
    # A Rounds built directly is trusted, but one with no rounds has no comparator.
    with pytest.raises(ValueError, match=r"got shape \(0, 3\)$"):
        offline_comparator(L2Ball(3, 1.0), Rounds(LINEAR, 0.0, np.empty((0, 3))))


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_prefix_comparator_has_no_point_before_its_first_round(kind):
    comparator = PrefixComparator(L2Ball(3, 1.0), kind, 0.5)
    for _ in range(2):  # an empty chunk feeds no round either
        with pytest.raises(ValueError, match="^no rounds were fed"):
            comparator.point()
        comparator.add(np.empty((0, 3)), np.empty(0))
    comparator.add(np.array([[0.6, 0.0, 0.0]]), np.empty(1))
    assert comparator.point().shape == (3,)


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_offline_comparator_on_rounds_equals_it_on_their_objects(kind, name):
    # The same rounds made by seeded_rounds, injected as nested lists, and
    # summed one round at a time give the same point and totals bit for bit.
    dom = SETS[name]
    spec = LossSpec(kind=kind, dim=6, seed=4, G=1.0, lam=0.9)
    rounds = seeded_rounds(spec, 200, dom)
    x_star, totals = offline_comparator(dom, rounds)
    x_list, totals_list = offline_comparator(dom, as_rounds(kind, rounds.lam, rounds.data.tolist()))
    assert x_star.tobytes() == x_list.tobytes() and totals.tobytes() == totals_list.tobytes()
    assert totals.tobytes() == reference.prefix_comparators(dom, rounds).tobytes()
    x_ref, total_ref = reference.offline_comparator(dom, rounds)
    assert x_star.tobytes() == x_ref.tobytes() and totals[-1] == total_ref


def test_prefix_minimizers_beat_any_fixed_point():
    # the sequence of per-prefix surrogate minimizers, played one step
    # late, accumulates no more regularized loss than the best fixed point
    dom = L2Ball(4, 1.0)
    lam = 1.0
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=8, lam=lam)
    state = scofw_init(dom, lam=lam)
    rounds, played = seeded_rounds(spec, 24, dom).data, []
    for row in rounds:
        played.append(state.x.copy())
        state = scofw_update(state, loss_at(QUADRATIC, lam, row, state.x)[1])

    def reg_loss(row, x_t, u):
        g = loss_at(QUADRATIC, lam, row, x_t)[1]
        return float(g @ u) + 0.5 * lam * float((u - x_t) @ (u - x_t))

    # rebuild each prefix surrogate and take its certified minimizer
    mins = []
    st = scofw_init(dom, lam=lam)
    for t, row in enumerate(rounds, start=1):
        st = scofw_update(st, loss_at(QUADRATIC, lam, row, played[t - 1])[1])
        xh, _ = surrogate_argmin(st, tol=1e-12)
        mins.append(xh)
    lhs = sum(
        reg_loss(rounds[t], played[t], mins[t]) for t in range(len(rounds))
    )
    rng = np.random.default_rng(9)
    for k in range(500):
        u = feasible_point(dom, k)
        rhs = sum(reg_loss(rounds[t], played[t], u) for t in range(len(rounds)))
        assert lhs <= rhs + 1e-6


def test_strong_convexity_consequences_of_surrogates():
    # for an alpha-strongly-convex function, distance and gradient norm
    # both control suboptimality
    dom = L2Ball(5, 1.0)
    spec = LossSpec(kind=LINEAR, dim=5, seed=10, G=1.0)
    state = ofw_init(dom, horizon=30, G=1.0)
    for row in seeded_rounds(spec, 30, dom).data:
        state = ofw_update(state, loss_at(LINEAR, 0.0, row, state.x)[1])
    alpha = state.curvature
    x_star, best = surrogate_argmin(state, tol=1e-12)
    rng = np.random.default_rng(11)
    for k in range(300):
        x = feasible_point(dom, k)
        subopt = state.value(x) - best
        dist_sq = float((x - x_star) @ (x - x_star))
        assert 0.5 * alpha * dist_sq <= subopt + 1e-9
        gnorm = float(np.linalg.norm(state.gradient(x)))
        assert gnorm + 1e-9 >= np.sqrt(0.5 * alpha) * np.sqrt(max(subopt, 0.0))


def test_grid_line_search_examples():
    assert grid_line_search(-1.0, 2.0, 10_001) == pytest.approx(0.25, abs=1e-4)
    assert grid_line_search(3.0, 5.0, 101) == 0.0
    assert grid_line_search(-4.0, 2.0, 101) == 1.0
    with pytest.raises(ValueError):
        grid_line_search(1.0, 1.0, 1)
