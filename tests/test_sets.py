import numpy as np
import pytest

from ofwkit.core import lp_norm
from ofwkit.sets import L1Ball, L2Ball, LpBall, Simplex

ALL_SETS = [
    L2Ball(10, 1.0),
    LpBall(10, 1.0, 1.5),
    L1Ball(10, 2.0),
    Simplex(10),
]


def _ids(sets):
    return [type(s).__name__ for s in sets]


def test_constructor_validation():
    with pytest.raises(ValueError):
        L2Ball(0, 1.0)
    with pytest.raises(ValueError):
        L2Ball(3, -1.0)
    with pytest.raises(ValueError):
        LpBall(3, 1.0, 1.0)  # p must exceed 1
    with pytest.raises(ValueError):
        LpBall(3, 1.0, 2.5)  # p must not exceed 2
    with pytest.raises(ValueError):
        Simplex(0)


def test_contains_examples():
    assert L2Ball(2, 1.0).contains(np.array([0.6, 0.8]), tol=0.0)
    assert not Simplex(3).contains(np.array([0.5, 0.5, 0.1]))
    assert LpBall(2, 1.0, 1.5).contains(np.array([1.0, 0.0]))
    assert not L2Ball(2, 1.0).contains(np.array([1.1, 0.0]))
    assert L1Ball(2, 2.0).contains(np.array([1.0, -1.0]))
    assert not L1Ball(2, 2.0).contains(np.array([1.5, -1.0]))


def test_lmo_l2_example():
    out = L2Ball(2, 1.0).lmo(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [-0.6, -0.8], rtol=1e-12)


def test_lmo_simplex_example():
    out = Simplex(3).lmo(np.array([0.5, -1.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])


def test_lmo_l1_example():
    out = L1Ball(3, 2.0).lmo(np.array([0.5, -3.0, 1.0]))
    np.testing.assert_array_equal(out, [0.0, 2.0, 0.0])


def test_lmo_lp_equal_weights():
    # for p = 3/2 the dual exponent is 3, so equal gradient entries spread
    # the output evenly: each entry is -2^(-2/3)
    out = LpBall(2, 1.0, 1.5).lmo(np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [-(2.0 ** (-2.0 / 3.0))] * 2, rtol=1e-12)


def test_lmo_lp_beats_boundary_grid():
    # brute-force oracle: parametrize the boundary of the 2-D ball and
    # compare objectives
    ball = LpBall(2, 1.3, 1.5)
    angles = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
    circle = np.c_[np.cos(angles), np.sin(angles)]
    scale = (np.abs(circle[:, 0]) ** 1.5 + np.abs(circle[:, 1]) ** 1.5) ** (1.0 / 1.5)
    boundary = 1.3 * circle / scale[:, None]
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = rng.standard_normal(2)
        out = ball.lmo(g)
        assert float(g @ out) <= float(np.min(boundary @ g)) + 1e-5


def test_lmo_zero_gradient_returns_anchor():
    for dom in ALL_SETS:
        g = np.zeros(dom.dim)
        np.testing.assert_array_equal(dom.lmo(g), dom.anchor())
        # just under the tie threshold counts as zero too
        g_tiny = np.full(dom.dim, 1e-14)
        np.testing.assert_array_equal(dom.lmo(g_tiny), dom.anchor())


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_lmo_feasible_and_optimal_sampled(dom):
    rng = np.random.default_rng(22)
    for _ in range(500):
        g = rng.standard_normal(dom.dim)
        out = dom.lmo(g)
        assert dom.contains(out, 1e-9)
        x = dom.random_feasible(int(rng.integers(1 << 30)))
        assert float(g @ out) <= float(g @ x) + 1e-9


def test_project_l2_example():
    out = L2Ball(2, 1.0).project(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-12)


def test_project_simplex_examples():
    out = Simplex(3).project(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-12)
    fixed = Simplex(2).project(np.array([0.7, 0.3]))
    np.testing.assert_array_equal(fixed, [0.7, 0.3])


def test_project_inside_is_identity():
    for dom in ALL_SETS:
        x = dom.random_feasible(5)
        np.testing.assert_allclose(dom.project(x), x, atol=1e-12)


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_project_idempotent_and_feasible(dom):
    rng = np.random.default_rng(23)
    for _ in range(150):
        w = rng.standard_normal(dom.dim) * 3.0
        p1 = dom.project(w)
        assert dom.contains(p1, 1e-9)
        p2 = dom.project(p1)
        assert float(np.linalg.norm(p1 - p2)) <= 1e-9


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_project_nonexpansive(dom):
    rng = np.random.default_rng(24)
    for _ in range(150):
        a = rng.standard_normal(dom.dim) * 2.0
        b = rng.standard_normal(dom.dim) * 2.0
        lhs = float(np.linalg.norm(dom.project(a) - dom.project(b)))
        assert lhs <= float(np.linalg.norm(a - b)) + 1e-9


def test_project_lp_lands_on_boundary_with_correct_norm():
    ball = LpBall(6, 1.0, 1.5)
    rng = np.random.default_rng(25)
    for _ in range(25):
        w = rng.standard_normal(6) * 4.0
        p = ball.project(w)
        assert lp_norm(p, 1.5) == pytest.approx(1.0, abs=1e-12)


def test_project_lp_minimizes_distance():
    # the projection must beat every sampled feasible point in distance
    ball = LpBall(4, 1.0, 1.5)
    rng = np.random.default_rng(26)
    w = rng.standard_normal(4) * 3.0
    p = ball.project(w)
    d_star = float(np.linalg.norm(w - p))
    for k in range(2000):
        x = ball.random_feasible(k)
        assert d_star <= float(np.linalg.norm(w - x)) + 1e-9


def test_diameter_values():
    assert L2Ball(4, 2.0).diameter == 4.0
    assert LpBall(4, 1.5, 1.5).diameter == 3.0
    assert L1Ball(4, 2.0).diameter == 4.0
    assert Simplex(4).diameter == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_strong_convexity_values():
    assert L2Ball(3, 2.0).strong_convexity == 0.5
    # (p-1) * d^(1/2 - 1/p) / r at p=1.5, d=4, r=1: 0.5 * 4^(-1/6)
    assert LpBall(4, 1.0, 1.5).strong_convexity == pytest.approx(
        0.5 * 4.0 ** (-1.0 / 6.0), rel=1e-12
    )
    assert LpBall(4, 1.0, 1.5).strong_convexity == pytest.approx(0.39685, abs=1e-5)
    assert L1Ball(3, 1.0).strong_convexity == 0.0
    assert Simplex(3).strong_convexity == 0.0


def test_anchor_values():
    np.testing.assert_array_equal(L2Ball(3, 1.0).anchor(), np.zeros(3))
    np.testing.assert_allclose(Simplex(4).anchor(), np.full(4, 0.25))
    for dom in ALL_SETS:
        assert dom.contains(dom.anchor(), 1e-12)


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_random_feasible_deterministic_and_feasible(dom):
    for seed in range(30):
        x1 = dom.random_feasible(seed)
        x2 = dom.random_feasible(seed)
        np.testing.assert_array_equal(x1, x2)
        assert dom.contains(x1, 1e-12)
    assert not np.array_equal(dom.random_feasible(1), dom.random_feasible(2))


def test_random_feasible_simplex_sums_to_one():
    dom = Simplex(7)
    for seed in range(20):
        assert float(dom.random_feasible(seed).sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_dimension_mismatch_raises(dom):
    wrong = np.zeros(dom.dim + 1)
    with pytest.raises(ValueError):
        dom.lmo(wrong)
    with pytest.raises(ValueError):
        dom.project(wrong)
    with pytest.raises(ValueError):
        dom.contains(wrong)


def test_strong_convexity_certificates_sampled():
    # gamma-mixes pushed out by gamma(1-gamma)(alpha/2)|x-y|^2 in any unit
    # direction stay feasible when alpha is the set's modulus
    for dom in (L2Ball(10, 1.0), LpBall(10, 1.0, 1.5), LpBall(5, 2.0, 1.2)):
        alpha = dom.strong_convexity
        rng = np.random.default_rng(27)
        for _ in range(500):
            x = dom.random_feasible(int(rng.integers(1 << 30)))
            y = dom.random_feasible(int(rng.integers(1 << 30)))
            gamma = rng.uniform()
            z = rng.standard_normal(dom.dim)
            z /= np.linalg.norm(z)
            dist_sq = float(np.dot(x - y, x - y))
            m = gamma * x + (1 - gamma) * y + gamma * (1 - gamma) * 0.5 * alpha * dist_sq * z
            assert dom.contains(m, 1e-9)


def test_huge_vectors_under_raise_errstate():
    # ||g|| ~ 1.4e200 overflows a plain sum of squares; the oracles must
    # still return the boundary points, with no floating-point error.
    g = np.array([1e200, -1e200, 0.0])
    h = np.sqrt(0.5)
    with np.errstate(all="raise"):
        ball = L2Ball(3, 2.0)
        np.testing.assert_allclose(ball.lmo(g), [-2.0 * h, 2.0 * h, 0.0], rtol=1e-15)
        np.testing.assert_allclose(ball.project(g), [2.0 * h, -2.0 * h, 0.0], rtol=1e-15)
        assert not ball.contains(g)
    with np.errstate(all="raise"):
        lp = LpBall(3, 1.0, 1.5)
        side = 2.0 ** (-1.0 / 1.5)
        np.testing.assert_allclose(lp.lmo(g), [-side, side, 0.0], rtol=1e-14)
        # Beyond 1e60 times the radius the Lp projection refuses the point.
        with pytest.raises(ValueError):
            lp.project(g)
    # At 1e50 times the radius it works; products of its terms underflow
    # harmlessly there.
    with np.errstate(all="raise", under="ignore"):
        far = LpBall(3, 1e150, 1.5)
        np.testing.assert_allclose(far.project(g), [1e150 * side, -1e150 * side, 0.0], rtol=1e-14)
