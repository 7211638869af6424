import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest

import _learner_reference as reference
from _helpers import loss_at, seeded_rounds

import ofwkit.learners
from ofwkit.core import as_vector
from ofwkit.learners import (
    OfwState,
    baseline_update,
    ofw_decay_init,
    ofw_decay_update,
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
from ofwkit.sets import L1Ball, L2Ball, LpBall, Simplex


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


@pytest.mark.parametrize("init", [ofw_init, ofw_decay_init])
def test_ofw_inits_refuse_an_eta_that_is_not_finite_and_positive(init):
    # eta = D / (2 G ...) underflows to 0.0 at D = 2e-300, G = 1e300: such a
    # learner never moves, and a gradient [inf, 0, 0] met 0 * inf before
    # lmo could name it. D = 2e300, G = 1e-300 overflows it to inf.
    with pytest.raises(ValueError, match=r"^eta = 0\.0 is not finite and positive$"):
        init(L2Ball(3, 1e-300), 10, 1e300)
    with pytest.raises(ValueError, match=r"^eta = inf is not finite and positive$"):
        init(L2Ball(3, 1e300), 10, 1e-300)


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
        # A linear round's gradient is the same at every point.
        state = ofw_update(state, make_round(spec, t, dom))
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
        g = loss_at(QUADRATIC, spec.lam, make_round(spec, t, dom), state.x)[1]
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
        g = loss_at(QUADRATIC, spec.lam, make_round(spec, t, dom), state.x)[1]
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
    state = ofw_decay_update(state, g)
    np.testing.assert_allclose(state.x, [-1.0, 0.0], rtol=1e-12)
    for _ in range(3):
        state = ofw_decay_update(state, g)
    assert state.t == 4


def test_baseline_decay_sigma_half_at_t4():
    dom = L2Ball(1, 1.0)
    state = OfwState(
        domain=dom,
        x=np.array([0.5]),
        x1=np.zeros(1),
        grad_sum=np.array([0.0]),
        t=3,
        eta=1.0,
        horizon=4,
    )
    # gradient 0 and x1=0 make the surrogate gradient 2x, vertex -1;
    # sigma_4 = 1/2 moves halfway there
    nxt = ofw_decay_update(state, np.array([0.0]))
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


def test_ogd_zero_step_names_non_finite_gradient():
    # lam * t passes the largest float in round 2, so the step is exactly 0.0:
    # a finite gradient leaves the point as it is, and an infinite one is
    # named rather than turned into NaN by 0.0 * inf.
    state = baseline_update(ogd_init(L2Ball(3, 1.0), 1.0, 1e308), np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(baseline_update(state, np.array([1.0, -2.0, 3.0])).x, state.x)
        with pytest.raises(ValueError, match="vector has non-finite entries"):
            baseline_update(state, np.array([np.inf, 0.0, 0.0]))


def test_baselines_stay_feasible():
    dom = Simplex(6)
    spec = LossSpec(kind=LINEAR, dim=6, seed=8, G=1.0)
    decay = ofw_decay_init(dom, horizon=50, G=1.0)
    ogd = ogd_init(dom, G=1.0)
    for t in range(1, 51):
        g = make_round(spec, t, dom)
        decay = ofw_decay_update(decay, g)
        ogd = baseline_update(ogd, g)
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
        (lambda dom: ofw_decay_init(dom, horizon=64, G=1.0), ofw_decay_update),
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


# Each learner with its reference update, and the loss kinds it accepts.
LEARNERS = {
    "ofw_ls": (lambda dom: ofw_init(dom, 200, G=2.0), ofw_update, reference.ofw_update),
    "ofw_decay": (
        lambda dom: ofw_decay_init(dom, 200, G=2.0), ofw_decay_update, reference.ofw_decay_update
    ),
    "sc_ofw": (lambda dom: scofw_init(dom, lam=0.5), scofw_update, reference.scofw_update),
    "ogd": (lambda dom: ogd_init(dom, G=2.0), baseline_update, reference.baseline_update),
}
KINDS = {
    "ofw_ls": (LINEAR, QUADRATIC),
    "ofw_decay": (LINEAR, QUADRATIC),
    "sc_ofw": (QUADRATIC,),
    "ogd": (LINEAR, QUADRATIC),
}
SETS = {
    "l2_ball": L2Ball(6, 1.0),
    "lp_ball": LpBall(6, 1.0, 1.5),
    "l1_ball": L1Ball(6, 1.0),
    "simplex": Simplex(6),
}


def _same_state(a, b):
    assert type(a) is type(b)
    for name in a._fields:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), name
        else:
            assert x == y, name


@pytest.mark.parametrize("set_kind", SETS)
@pytest.mark.parametrize(
    "algo, kind", [(a, k) for a in LEARNERS for k in KINDS[a]], ids=lambda v: str(v)
)
def test_updates_equal_the_reference_bit_for_bit(algo, kind, set_kind):
    # Round 1's gradient is zero: its surrogate gradient is zero at the
    # anchor, so the lmo ties and the Frank-Wolfe step is skipped.
    dom = SETS[set_kind]
    init, update, ref_update = LEARNERS[algo]
    spec = LossSpec(kind=kind, dim=dom.dim, seed=17, G=2.0, lam=0.5)
    rounds = seeded_rounds(spec, 120, dom)
    state = ref = init(dom)
    skipped = 0
    for t, row in enumerate(rounds.data, start=1):
        g = np.zeros(dom.dim) if t == 1 else loss_at(rounds.kind, rounds.lam, row, state.x)[1]
        x_before = state.x
        state, ref = update(state, g), ref_update(ref, g)
        _same_state(state, ref)
        skipped += state.x is x_before
    if algo in ("ofw_ls", "sc_ofw"):
        assert skipped >= 1


def _array_copies(state):
    return {name: a.copy() for name, a in state._asdict().items() if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("algo", LEARNERS)
def test_states_are_snapshots_that_later_updates_leave_alone(algo):
    init, update, _ = LEARNERS[algo]
    dom = L2Ball(6, 1.0)
    kind = QUADRATIC if algo == "sc_ofw" else LINEAR
    rounds = seeded_rounds(LossSpec(kind=kind, dim=6, seed=23, G=2.0, lam=0.5), 200, dom)
    state = init(dom)
    kept = [(state, _array_copies(state))]
    for row in rounds.data:
        state = update(state, loss_at(rounds.kind, rounds.lam, row, state.x)[1])
        kept.append((state, _array_copies(state)))
    for state, copies in kept:
        for name, value in copies.items():
            assert getattr(state, name).tobytes() == value.tobytes(), (state.t, name)
        with pytest.raises(AttributeError):
            state.x = np.zeros(6)
        with pytest.raises(AttributeError):
            state.t = 0


# The fields each learner's update leaves as they are.
UNCHANGED = {
    "ofw_ls": ("domain", "x1", "eta", "horizon"),
    "ofw_decay": ("domain", "x1", "eta", "horizon"),
    "sc_ofw": ("domain", "lam"),
    "ogd": ("domain", "G", "lam"),
}


@pytest.mark.parametrize("set_kind", SETS)
@pytest.mark.parametrize("algo", LEARNERS)
def test_updates_pass_unchanged_fields_on_by_identity(algo, set_kind):
    dom = SETS[set_kind]
    init, update, _ = LEARNERS[algo]
    for kind in KINDS[algo]:
        rounds = seeded_rounds(LossSpec(kind=kind, dim=dom.dim, seed=31, G=2.0, lam=0.5), 50, dom)
        state = init(dom)
        for row in rounds.data:
            nxt = update(state, loss_at(rounds.kind, rounds.lam, row, state.x)[1])
            for name in UNCHANGED[algo]:
                assert getattr(nxt, name) is getattr(state, name), (kind, nxt.t, name)
            state = nxt
        assert state.t == 50


def _played(algo, dom, rounds, horizon):
    # A learner state after ``rounds`` updates; a horizon-bound one may
    # take ``horizon`` in all.
    init, update, _ = LEARNERS[algo]
    state = init(dom)
    if algo in ("ofw_ls", "ofw_decay"):
        state = state._replace(horizon=horizon)
    rng = np.random.default_rng(29)
    for _ in range(rounds):
        state = update(state, rng.standard_normal(dom.dim))
    return state


def _snapshot(state):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in state._asdict().items()}


@pytest.mark.parametrize("set_kind", SETS)
@pytest.mark.parametrize("algo", LEARNERS)
def test_updates_refuse_bad_gradients_and_leave_the_state_alone(algo, set_kind):
    # Each update checks its gradient before it moves; a non-finite entry
    # is named before a wrong length.
    dom, dim = SETS[set_kind], SETS[set_kind].dim
    _, update, _ = LEARNERS[algo]
    state = _played(algo, dom, 3, 4)
    before = _snapshot(state)
    g = np.linspace(-1.0, 1.0, dim)
    nan, inf = g.copy(), g.copy()
    nan[1], inf[-1] = np.nan, -np.inf
    for bad, message in [
        (nan, "vector has non-finite entries"),
        (inf, "vector has non-finite entries"),
        (g[:-1], f"expected dimension {dim}, got {dim - 1}"),
        (np.append(nan, 0.0), "vector has non-finite entries"),
        (g[None], f"expected a 1-D vector, got shape (1, {dim})"),
    ]:
        with pytest.raises(ValueError) as info:
            update(state, bad)
        assert str(info.value) == message
        assert _snapshot(state) == before


@pytest.mark.parametrize("algo", ["ofw_ls", "ofw_decay"])
def test_an_exhausted_horizon_is_refused_after_the_gradient_check(algo):
    dom = L2Ball(5, 1.0)
    _, update, _ = LEARNERS[algo]
    state = _played(algo, dom, 3, 3)
    before = _snapshot(state)
    for g, message in [
        (np.ones(5), "horizon 3 exhausted"),
        (np.full(5, np.nan), "vector has non-finite entries"),
        (np.ones(4), "expected dimension 5, got 4"),
    ]:
        with pytest.raises(ValueError) as info:
            update(state, g)
        assert str(info.value) == message
        assert _snapshot(state) == before


def _gradient_forms(g):
    # ``g`` as input that ``as_vector`` converts or copies, and as a read-only
    # float64 vector, which it takes as is.
    strided = np.zeros(2 * len(g), dtype=g.dtype)
    strided[::2] = g
    read_only = g.copy()
    read_only.flags.writeable = False
    forms = {
        "list": g.tolist(),
        "float32": g.astype(np.float32),
        "strided": strided[::2],
        "read_only": read_only,
    }
    if np.isfinite(g).all():
        forms["int"] = np.rint(4.0 * g).astype(np.int64)
    return forms


@pytest.mark.parametrize("set_kind", SETS)
@pytest.mark.parametrize("algo", LEARNERS)
def test_updates_take_every_gradient_form_as_as_vector_gives_it(algo, set_kind):
    dom, dim = SETS[set_kind], SETS[set_kind].dim
    _, update, _ = LEARNERS[algo]
    state = _played(algo, dom, 3, 200)
    before = _snapshot(state)
    g = np.linspace(-1.0, 0.75, dim)
    for name, form in _gradient_forms(g).items():
        _same_state(update(state, form), update(state, as_vector(form, dim)))
        assert _snapshot(state) == before, name
    for bad in (np.nan, np.inf, -np.inf):
        nonfinite = g.copy()
        nonfinite[2] = bad
        for vector in (nonfinite, np.append(nonfinite, np.nan)):
            for name, form in _gradient_forms(vector).items():
                with pytest.raises(ValueError) as expected:
                    as_vector(form, dim)
                with pytest.raises(ValueError) as info:
                    update(state, form)
                assert str(info.value) == str(expected.value) == "vector has non-finite entries"
                assert _snapshot(state) == before, (name, bad, len(vector))


@pytest.mark.parametrize("algo", ["ofw_ls", "ofw_decay"])
def test_an_exhausted_horizon_names_a_strided_bad_gradient_first(algo):
    dom = L2Ball(5, 1.0)
    _, update, _ = LEARNERS[algo]
    state = _played(algo, dom, 3, 3)
    before = _snapshot(state)
    h = np.ones(10)
    for g, message in [
        (h[::2], "horizon 3 exhausted"),
        (np.full(10, np.nan)[::2], "vector has non-finite entries"),
        (h[:8:2], "expected dimension 5, got 4"),
    ]:
        with pytest.raises(ValueError) as info:
            update(state, g)
        assert str(info.value) == message
        assert _snapshot(state) == before


@pytest.mark.parametrize("set_kind", SETS)
@pytest.mark.parametrize("algo", LEARNERS)
def test_a_float64_gradient_is_checked_by_the_round_oracle_alone(algo, set_kind, monkeypatch):
    # A C-contiguous float64 vector of length dim skips ``as_vector``: the
    # round's one ``lmo`` (or, for OGD, ``project``) call checks it. Input
    # that needs converting goes through ``as_vector`` once.
    dom, dim = SETS[set_kind], SETS[set_kind].dim
    _, update, _ = LEARNERS[algo]
    state = _played(algo, dom, 3, 200)
    calls = []
    monkeypatch.setattr(
        ofwkit.learners, "as_vector", lambda g, d=None: calls.append(1) or as_vector(g, d)
    )
    oracle = "project" if algo == "ogd" else "lmo"
    owner = next(c for c in type(dom).__mro__ if oracle in vars(c))
    checked = vars(owner)[oracle]
    oracle_calls = []
    monkeypatch.setattr(owner, oracle, lambda self, v: oracle_calls.append(1) or checked(self, v))
    g = np.linspace(-1.0, 0.75, dim)
    update(state, g)
    assert (len(calls), len(oracle_calls)) == (0, 1)
    update(state, g.tolist())
    update(state, np.repeat(g, 2)[::2])
    assert (len(calls), len(oracle_calls)) == (2, 3)
    g[2] = np.nan
    with pytest.raises(ValueError, match="vector has non-finite entries"):
        update(state, g)
    assert (len(calls), len(oracle_calls)) == (2, 4)
