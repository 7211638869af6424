from dataclasses import dataclass, field

import numpy as np
import pytest

from ofwkit.learners import (
    BaselineState,
    baseline_update,
    ofw_decay_init,
    ofw_init,
    ofw_gradient,
    ofw_step_size_parameter,
    ofw_update,
    ogd_init,
    scofw_gradient,
    scofw_init,
    scofw_update,
)
from ofwkit.losses import LINEAR, QUADRATIC, LossSpec, make_round
from ofwkit.sets import L2Ball, LpBall, Simplex


def test_ofw_init_step_parameter():
    # D=2, G=1, T=6: eta = 2 / (2 * 8^(2/3)) = 1/4
    state = ofw_init(L2Ball(1, 1.0), horizon=6, G=1.0)
    assert state.eta == pytest.approx(0.25, rel=1e-12)
    assert state.t == 0
    np.testing.assert_array_equal(state.x, np.zeros(1))
    np.testing.assert_array_equal(state.x1, np.zeros(1))
    assert ofw_step_size_parameter(2.0, 1.0, 6) == pytest.approx(0.25, rel=1e-12)


def test_ofw_init_validation():
    with pytest.raises(ValueError):
        ofw_init(L2Ball(2, 1.0), horizon=0, G=1.0)
    with pytest.raises(ValueError):
        ofw_init(L2Ball(2, 1.0), horizon=4, G=0.0)


def test_ofw_first_update_hand_trace():
    # interval [-1, 1], g=1: surrogate gradient at 0 is eta, oracle vertex
    # is -1, slope a = -eta, curvature b = 1, so sigma = eta/2 = 0.125
    state = ofw_init(L2Ball(1, 1.0), horizon=6, G=1.0)
    nxt = ofw_update(state, np.array([1.0]))
    assert nxt.t == 1
    assert nxt.x[0] == pytest.approx(-0.125, rel=1e-12)
    np.testing.assert_array_equal(nxt.grad_sum, np.array([1.0]))


def test_ofw_zero_gradients_keep_anchor():
    state = ofw_init(L2Ball(3, 1.0), horizon=5, G=1.0)
    for _ in range(5):
        state = ofw_update(state, np.zeros(3))
    np.testing.assert_array_equal(state.x, np.zeros(3))


def test_ofw_update_validation():
    state = ofw_init(L2Ball(2, 1.0), horizon=1, G=1.0)
    with pytest.raises(ValueError):
        ofw_update(state, np.zeros(3))
    state = ofw_update(state, np.ones(2))
    with pytest.raises(ValueError):
        ofw_update(state, np.ones(2))  # horizon exhausted


@pytest.mark.parametrize(
    "dom", [L2Ball(8, 1.0), LpBall(8, 1.0, 1.5), Simplex(8)], ids=["l2", "lp", "simplex"]
)
def test_ofw_iterates_stay_feasible(dom):
    spec = LossSpec(kind=LINEAR, dim=8, seed=2, G=1.0)
    state = ofw_init(dom, horizon=60, G=1.0)
    for t in range(1, 61):
        rnd = make_round(spec, t, dom)
        state = ofw_update(state, rnd.grad_at(state.x))
        assert dom.contains(state.x, 1e-9)


def test_ofw_grad_sum_matches_plain_accumulation():
    rng = np.random.default_rng(3)
    gs = rng.standard_normal((20, 4))
    state = ofw_init(L2Ball(4, 1.0), horizon=20, G=3.0)
    acc = np.zeros(4)
    for g in gs:
        state = ofw_update(state, g)
        acc = acc + g
    np.testing.assert_array_equal(state.grad_sum, acc)


def test_ofw_surrogate_gradient_formula():
    state = ofw_init(L2Ball(4, 1.0), horizon=10, G=1.0)
    rng = np.random.default_rng(4)
    for _ in range(6):
        state = ofw_update(state, rng.standard_normal(4))
    y = rng.standard_normal(4)
    expected = state.eta * state.grad_sum + 2.0 * (y - state.x1)
    got = ofw_gradient(state.eta, state.grad_sum, state.x1, y)
    np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_scofw_init_and_validation():
    state = scofw_init(Simplex(4), lam=1.0)
    np.testing.assert_allclose(state.x, np.full(4, 0.25))
    assert state.t == 0 and state.iterate_sq_sum == 0.0
    with pytest.raises(ValueError):
        scofw_init(Simplex(4), lam=0.0)


def test_scofw_first_update_hand_trace():
    # interval [-1, 1], lam=1, g=1: surrogate gradient at 0 is 1, vertex
    # -1, slope a = -1, curvature b = lam*t/2 = 1/2, so sigma clamps to 1
    state = scofw_init(L2Ball(1, 1.0), lam=1.0)
    nxt = scofw_update(state, np.array([1.0]))
    assert nxt.t == 1
    assert nxt.x[0] == -1.0
    assert nxt.iterate_sq_sum == 0.0  # only x_1 = 0 absorbed so far


def test_scofw_zero_gradients_keep_anchor():
    dom = Simplex(5)
    state = scofw_init(dom, lam=2.0)
    for _ in range(8):
        state = scofw_update(state, np.zeros(5))
    np.testing.assert_array_equal(state.x, dom.anchor())


def test_scofw_running_sums_match_history():
    dom = L2Ball(5, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=5, seed=6, lam=1.0)
    state = scofw_init(dom, lam=1.0)
    xs, gs = [], []
    for t in range(1, 31):
        rnd = make_round(spec, t, dom)
        g = rnd.grad_at(state.x)
        xs.append(state.x.copy())
        gs.append(g)
        state = scofw_update(state, g)
        assert dom.contains(state.x, 1e-9)
    np.testing.assert_allclose(state.iterate_sum, np.sum(xs, axis=0), rtol=1e-12, atol=1e-14)
    assert state.iterate_sq_sum == pytest.approx(
        sum(float(x @ x) for x in xs), rel=1e-12
    )
    np.testing.assert_allclose(state.grad_sum, np.sum(gs, axis=0), rtol=1e-12, atol=1e-14)


def test_scofw_surrogate_gradient_matches_naive():
    dom = L2Ball(5, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=5, seed=6, lam=0.9)
    state = scofw_init(dom, lam=0.9)
    xs, gs = [], []
    rng = np.random.default_rng(7)
    for t in range(1, 21):
        rnd = make_round(spec, t, dom)
        g = rnd.grad_at(state.x)
        xs.append(state.x.copy())
        gs.append(g)
        state = scofw_update(state, g)
    y = rng.standard_normal(5)
    naive = np.sum(gs, axis=0) + 0.9 * sum(y - x for x in xs)
    got = scofw_gradient(state.lam, state.t, state.grad_sum, state.iterate_sum, y)
    np.testing.assert_allclose(got, naive, atol=1e-12)


def test_baseline_decay_step_schedule():
    # sigma_t = min(1, t^(-1/2)): 1 at t=1, 1/2 at t=4
    dom = L2Ball(2, 1.0)
    state = ofw_decay_init(dom, horizon=16, G=1.0)
    assert state.eta == pytest.approx(2.0 / (2.0 * 16.0**0.75), rel=1e-12)
    # drive with a fixed gradient; after the first update the iterate sits
    # exactly on the oracle vertex because sigma_1 = 1
    g = np.array([1.0, 0.0])
    state = baseline_update(state, g)
    np.testing.assert_allclose(state.x, [-1.0, 0.0], rtol=1e-12)
    for _ in range(3):
        state = baseline_update(state, g)
    assert state.t == 4


def test_baseline_decay_sigma_half_at_t4():
    dom = L2Ball(1, 1.0)
    state = BaselineState(
        variant="ofw_decay",
        domain=dom,
        x=np.array([0.5]),
        t=3,
        grad_sum=np.array([0.0]),
        x1=np.zeros(1),
        eta=1.0,
    )
    # gradient 0 and x1=0 make the surrogate gradient 2x, vertex -1;
    # sigma_4 = 1/2 moves halfway there
    nxt = baseline_update(state, np.array([0.0]))
    assert nxt.x[0] == pytest.approx(0.5 + 0.5 * (-1.0 - 0.5), rel=1e-12)


def test_ogd_step_and_projection():
    # D=2, G=1: step_1 = 2; from the origin with g=(1,0) the raw point
    # (-2,0) projects back to the boundary (-1,0)
    dom = L2Ball(2, 1.0)
    state = ogd_init(dom, G=1.0)
    nxt = baseline_update(state, np.array([1.0, 0.0]))
    np.testing.assert_allclose(nxt.x, [-1.0, 0.0], rtol=1e-12)


def test_ogd_strongly_convex_step():
    # lam > 0 switches to step 1/(lam t)
    dom = L2Ball(2, 10.0)
    state = ogd_init(dom, G=1.0, lam=2.0)
    nxt = baseline_update(state, np.array([1.0, 0.0]))
    np.testing.assert_allclose(nxt.x, [-0.5, 0.0], rtol=1e-12)
    nxt2 = baseline_update(nxt, np.array([0.0, 4.0]))
    np.testing.assert_allclose(nxt2.x, [-0.5, -1.0], rtol=1e-12)


def test_ogd_init_validation():
    with pytest.raises(ValueError):
        ogd_init(L2Ball(2, 1.0), G=0.0)
    with pytest.raises(ValueError):
        ogd_init(L2Ball(2, 1.0), G=1.0, lam=-0.1)


def test_baselines_stay_feasible():
    dom = Simplex(6)
    spec = LossSpec(kind=LINEAR, dim=6, seed=8, G=1.0)
    decay = ofw_decay_init(dom, horizon=50, G=1.0)
    ogd = ogd_init(dom, G=1.0)
    for t in range(1, 51):
        rnd = make_round(spec, t, dom)
        decay = baseline_update(decay, rnd.grad_at(decay.x))
        ogd = baseline_update(ogd, rnd.grad_at(ogd.x))
        assert dom.contains(decay.x, 1e-9)
        assert dom.contains(ogd.x, 1e-9)


def test_updates_do_not_mutate_inputs():
    state = ofw_init(L2Ball(3, 1.0), horizon=4, G=1.0)
    g = np.array([0.3, -0.2, 0.1])
    g_copy = g.copy()
    nxt = ofw_update(state, g)
    np.testing.assert_array_equal(g, g_copy)
    np.testing.assert_array_equal(state.x, np.zeros(3))  # old state untouched
    assert nxt is not state


@dataclass(frozen=True)
class CountingL2Ball(L2Ball):
    """An L2 ball that counts its oracle calls."""

    calls: dict = field(default_factory=lambda: {"lmo": 0, "project": 0}, compare=False)

    def lmo(self, g):
        self.calls["lmo"] += 1
        return super().lmo(g)

    def project(self, x):
        self.calls["project"] += 1
        return super().project(x)


@pytest.mark.parametrize(
    "init, update",
    [
        (lambda dom: ofw_init(dom, horizon=64, G=1.0), ofw_update),
        (lambda dom: scofw_init(dom, lam=1.0), scofw_update),
        (lambda dom: ofw_decay_init(dom, horizon=64, G=1.0), baseline_update),
    ],
    ids=["ofw_ls", "sc_ofw", "ofw_decay"],
)
def test_projection_free_learners_use_one_lmo_and_no_projection_per_round(init, update):
    # The paper's claim as a count: one linear-oracle call per round and no
    # projections, whatever the gradients.
    dom = CountingL2Ball(5, 1.0)
    state = init(dom)
    rng = np.random.default_rng(44)
    for t in range(1, 65):
        state = update(state, rng.standard_normal(5))
        assert dom.calls == {"lmo": t, "project": 0}
