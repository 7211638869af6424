import re

import _lmo_reference
import _sampler_reference as reference
import numpy as np
import pytest
from _helpers import feasible_point
from hypothesis import given, settings
from hypothesis import strategies as st

from ofwkit.core import as_vector, l2_norm, lp_norm, row_l2_norms
from ofwkit.sets import MIN_P_GAP, ZERO_GRADIENT_TOL, L1Ball, L2Ball, LpBall, Simplex, is_tie

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


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_contains_rows_matches_contains_row_by_row(dom):
    # Sampled points, oracle outputs on the boundary, and both scaled by
    # factors within and beyond the slack, so that rows fall on each side.
    rng = np.random.default_rng(17)
    base = np.vstack([dom.sample_rows(200, rng), dom.lmo_rows(rng.standard_normal((200, dom.dim)))])
    scales = 1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-8, -1e-8, 0.3], size=(len(base), 1))
    rows = np.vstack([base, base * scales])
    for tol in (0.0, 1e-9):
        got = dom.contains_rows(rows, tol)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert got.tolist() == [_contains_reference(dom, row, tol) for row in rows]
        assert got.tolist() == [dom.contains(row, tol) for row in rows]
        assert 0 < got.sum() < len(rows)


def _contains_reference(dom, row, tol):
    """Membership of one row, from the set's definition."""
    if isinstance(dom, Simplex):
        return bool((row >= -tol).all()) and abs(float(row.sum()) - 1.0) <= tol
    if isinstance(dom, L1Ball):
        return float(np.abs(row).sum()) <= dom.radius + tol
    norm = l2_norm(row) if isinstance(dom, L2Ball) else lp_norm(row, dom.p)
    return norm <= dom.radius + tol


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
        x = feasible_point(dom, int(rng.integers(1 << 30)))
        assert float(g @ out) <= float(g @ x) + 1e-9


def test_project_l2_example():
    out = L2Ball(2, 1.0).project(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-12)


def test_project_simplex_examples():
    out = Simplex(3).project(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-12)
    fixed = Simplex(2).project(np.array([0.7, 0.3]))
    np.testing.assert_array_equal(fixed, [0.7, 0.3])
    # An entry that swamps the sum projects to its vertex.
    np.testing.assert_array_equal(Simplex(3).project(np.array([1e17, 0.0, 0.0])), [1, 0, 0])
    np.testing.assert_array_equal(L1Ball(3, 1.0).project(np.array([1e17, 0.0, 0.0])), [1, 0, 0])
    # Entries whose sums overflow, projected without an overflow warning.
    huge = np.array([1e308, -1e308, 0.0])
    np.testing.assert_array_equal(Simplex(3).project(huge), [1, 0, 0])
    np.testing.assert_array_equal(L1Ball(3, 1.0).project(huge), [0.5, -0.5, 0])
    np.testing.assert_array_equal(Simplex(3).project(np.array([1.0, -1e308, -1e308])), [1, 0, 0])


def test_l2_ball_projects_points_whose_squares_underflow():
    # sqrt(x . x) reads 0 here: a norm taken that way would return x
    # unprojected, 2e8 radii outside the ball, and pass it as contained.
    ball, x = L2Ball(4, 1e-170), np.full(4, 1e-162)
    assert not ball.contains(x, tol=0.0)
    p = ball.project(x)
    assert l2_norm(p) == pytest.approx(1e-170, rel=1e-15)
    assert ball.project_rows(x[None]).tobytes() == p.tobytes()


def test_project_inside_is_identity():
    for dom in ALL_SETS:
        x = feasible_point(dom, 5)
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
        x = feasible_point(ball, k)
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
        x1 = feasible_point(dom, seed)
        x2 = feasible_point(dom, seed)
        np.testing.assert_array_equal(x1, x2)
        assert dom.contains(x1, 1e-12)
    assert not np.array_equal(feasible_point(dom, 1), feasible_point(dom, 2))


def test_random_feasible_simplex_sums_to_one():
    dom = Simplex(7)
    for seed in range(20):
        assert float(feasible_point(dom, seed).sum()) == pytest.approx(1.0, abs=1e-12)


def _sampler_sets(dim):
    return [
        L2Ball(dim, 1.3),
        LpBall(dim, 0.7, 1.5),
        LpBall(dim, 2.0, 1.01),
        L1Ball(dim, 0.5),
        Simplex(dim),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 17, 100])
def test_sample_rows_one_row_equals_reference_sampler(dim):
    for dom in _sampler_sets(dim):
        for k in range(100):
            got = dom.sample_rows(1, np.random.default_rng(k))
            want = reference.feasible_point(dom, np.random.default_rng(k))
            assert got.shape == (1, dim)
            assert got[0].tobytes() == want.tobytes(), (dom, k)


@pytest.mark.parametrize("dim", [1, 3])
def test_sample_rows_redraws_short_directions_as_reference_sampler(monkeypatch, dim):
    # At a minimum norm of 2, many draws in these dims are redrawn, some
    # several times, before the uniforms are drawn.
    monkeypatch.setattr("ofwkit.sets._MIN_DIRECTION_NORM", 2.0)
    for dom in _sampler_sets(dim):
        for k in range(100):
            got = dom.sample_rows(1, np.random.default_rng(k))[0]
            want = reference.feasible_point(dom, np.random.default_rng(k))
            assert got.tobytes() == want.tobytes(), (dom, k)
        for x in dom.sample_rows(200, np.random.default_rng(dim)):
            assert dom.contains(x), dom


def test_simplex_sample_rows_equal_reference_batches():
    for dim in (1, 4, 33):
        dom = Simplex(dim)
        got = dom.sample_rows(300, np.random.default_rng(dim))
        want = reference.simplex_batch(dom, 300, np.random.default_rng(dim))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_lmo_raises_the_message_of_as_vector(dom):
    d = dom.dim
    nan, minus_inf, nan_long = np.zeros(d), np.zeros(d), np.zeros(d + 1)
    nan[1] = nan_long[1] = np.nan
    minus_inf[0] = -np.inf
    for bad in (nan, minus_inf, np.zeros((1, d)), np.zeros(d - 1), nan_long):
        with pytest.raises(ValueError) as want:
            as_vector(bad, d)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            dom.lmo(bad)
    # A wrong length with a non-finite entry is named for the entry.
    assert str(want.value) == "vector has non-finite entries"


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
            x = feasible_point(dom, int(rng.integers(1 << 30)))
            y = feasible_point(dom, int(rng.integers(1 << 30)))
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


def test_tie_rule_is_an_absolute_euclidean_threshold():
    assert is_tie(ZERO_GRADIENT_TOL)
    assert not is_tie(np.nextafter(ZERO_GRADIENT_TOL, 1.0))
    np.testing.assert_array_equal(
        is_tie(np.array([0.0, 1e-13, 1e-12, 2e-12])), [True, True, True, False]
    )
    # Euclidean norm 9.5e-13 (a tie) although the l1 norm is 3e-12.
    spread = np.full(10, 3e-13)
    # A valid gradient of norm 1e-13 is a tie whatever the losses' scale;
    # the same direction at norm 2e-12 is not.
    small, large = np.eye(10)[0] * 1e-13, -np.eye(10)[0] * 2e-12
    for dom in ALL_SETS:
        for g in (spread, small):
            np.testing.assert_array_equal(dom.lmo(g), dom.anchor())
        rows = dom.lmo_rows(np.array([small, large, spread]))
        np.testing.assert_array_equal(rows[0], dom.anchor())
        np.testing.assert_array_equal(rows[2], dom.anchor())
        assert not np.array_equal(rows[1], dom.anchor())
        np.testing.assert_array_equal(rows[1], dom.lmo(large))


ROW_SETS = [
    L2Ball(7, 1.5),
    LpBall(7, 1.2, 1.5),
    LpBall(7, 0.8, 1.1),
    LpBall(7, 1.0, 2.0),
    L1Ball(7, 2.0),
    Simplex(7),
]


def _row_cases(dim, huge=True, tiny=True):
    """Rows at scales 1e-6 to 1e6, zero rows, tie rows, repeated extremes and,
    if asked, rows near 1e200 and rows with underflowing squares."""
    rng = np.random.default_rng(31)
    scales = 10.0 ** rng.uniform(-6.0, 6.0, size=(300, 1))
    rows = [rng.standard_normal((300, dim)) * scales]
    rows.append(np.zeros((2, dim)))
    tie = rng.standard_normal((3, dim))
    rows.append(1e-13 * tie / np.linalg.norm(tie, axis=1, keepdims=True))
    rows.append(np.array([[1.0, -1.0] + [0.5] * (dim - 2), [-2.0] * dim]))
    if tiny:
        # Squares that underflow make numpy raise under errstate(all="raise"),
        # which sends l2_norm to its rescaled sum.
        small = rng.standard_normal((20, dim))
        small[:, 0] = 1e-170
        rows.append(small)
    if huge:
        big = np.zeros((2, dim))
        big[0, :2] = [1e200, -1e200]
        big[1] = 3e199 * rng.standard_normal(dim)
        rows.append(big)
    return np.concatenate(rows)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("dom", ROW_SETS, ids=_ids(ROW_SETS))
def test_lmo_rows_equal_lmo_bit_for_bit(dom):
    # Powers of tiny entries in the Lp oracles underflow, which numpy
    # raises under errstate(all="raise").
    g = _row_cases(dom.dim, tiny=not isinstance(dom, LpBall))
    with np.errstate(all="raise"):
        out = dom.lmo_rows(g)
        expected = np.array([dom.lmo(row) for row in g])
        assert _bits(out) == _bits(expected)
        assert _bits(dom.lmo_rows(g[-1:])) == _bits(expected[-1:])
    assert dom.lmo_rows(np.empty((0, dom.dim))).shape == (0, dom.dim)


LMO_REFERENCES = {
    LpBall: (_lmo_reference.lp_lmo, _lmo_reference.lp_lmo_rows),
    L1Ball: (_lmo_reference.l1_lmo, _lmo_reference.l1_lmo_rows),
    Simplex: (_lmo_reference.simplex_lmo, _lmo_reference.simplex_lmo_rows),
}
RADII = (0.3, 1.0, 7.0)
REFERENCE_LMO_SETS = (
    [LpBall(9, r, p) for p in (1.0 + MIN_P_GAP, 1.1, 1.5, 1.9, 2.0) for r in RADII]
    + [L1Ball(9, r) for r in RADII]
    + [Simplex(9)]
)


def _lmo_reference_cases(dim):
    """Rows at scales 1e-30 to 1e30, rows with +0.0 and -0.0 entries, and
    rows whose extreme entries tie."""
    rng = np.random.default_rng(47)
    rows = rng.standard_normal((200, dim)) * 10.0 ** rng.uniform(-30.0, 30.0, size=(200, 1))
    rows[:2] *= 1e30 / np.abs(rows[:2]).max(axis=1, keepdims=True)
    rows[2:4] *= 1e-30 / np.abs(rows[2:4]).max(axis=1, keepdims=True)
    rows[::3, 0] = 0.0
    rows[::3, 1] = -0.0
    ones = [1.0] * (dim - 2)
    ties = [
        [-2.0, -2.0] + ones,
        [3.0, -3.0] + ones,
        [-3.0, 3.0] + [-0.0] * (dim - 2),
        [0.0, -0.0] + [-1.0] * (dim - 2),
        [0.5] * dim,
        [-0.5] * dim,
    ]
    return np.concatenate([rows, np.array(ties)])


@pytest.mark.parametrize(
    "dom", REFERENCE_LMO_SETS, ids=[f"{d!r}".replace(" ", "") for d in REFERENCE_LMO_SETS]
)
def test_lmo_steps_equal_reference_bit_for_bit(dom):
    # The hooks read no tie threshold, so rows far below it test their
    # steps at that scale too.
    lmo, lmo_rows = LMO_REFERENCES[type(dom)]
    g = _lmo_reference_cases(dom.dim)
    norms = row_l2_norms(g)
    # At p = 1 + 1e-9 the entries below the largest are raised to the power
    # 1e9, which underflows to 0, and numpy raises that under all="raise".
    under = "ignore" if getattr(dom, "p", 2.0) < 1.01 else "raise"
    with np.errstate(all="raise", under=under):
        assert _bits(dom._lmo_rows(g, norms)) == _bits(lmo_rows(dom, g))
        for row, norm in zip(g, norms.tolist()):
            assert _bits(dom._lmo(row, norm)) == _bits(lmo(dom, row))


@pytest.mark.parametrize("dom", ROW_SETS, ids=_ids(ROW_SETS))
def test_project_rows_equal_project_bit_for_bit(dom):
    # Only the L2 ball projects rows near 1e200 here; the simplex and l1
    # ones are checked on them below, and the Lp projection refuses points
    # beyond 1e60 times the radius.
    lp = isinstance(dom, LpBall)
    x = _row_cases(dom.dim, huge=isinstance(dom, L2Ball), tiny=not lp)
    with np.errstate(all="raise"):
        out = dom.project_rows(x)
        expected = np.array([dom.project(row) for row in x])
        assert _bits(out) == _bits(expected)
        assert _bits(dom.project_rows(x[:1])) == _bits(expected[:1])
    assert dom.project_rows(np.empty((0, dom.dim))).shape == (0, dom.dim)
    overflowing = np.zeros((2, dom.dim))
    overflowing[0, :2] = [1e308, -1e308]
    overflowing[1, 1:] = -1e308
    overflowing[1, 0] = 1.0
    huge = np.concatenate([x[:3], _row_cases(dom.dim)[-2:], overflowing])
    if lp:
        for row in huge[3:]:
            with pytest.raises(ValueError):
                dom.project(row)
        with pytest.raises(ValueError):
            dom.project_rows(huge)
    elif not isinstance(dom, L2Ball):
        # Entries that swamp the sum they project to.
        with np.errstate(all="raise"):
            expected = np.array([dom.project(row) for row in huge])
            assert _bits(dom.project_rows(huge)) == _bits(expected)


@pytest.mark.parametrize("dom", [L2Ball(100, 1.3), LpBall(100, 0.9, 1.5)], ids=["l2", "lp"])
def test_oracles_ignore_memory_layout(dom):
    # numpy rounds dot products over strided rows differently, so Fortran-
    # ordered and column-strided inputs must give the C-ordered results,
    # row-wise and per vector.
    rng = np.random.default_rng(12)
    # Norms of about 0 to 1.7 times the radius: both sides of the boundary.
    x = rng.standard_normal((500, 100)) * rng.uniform(0.0, 0.1, size=(500, 1))
    strided = np.repeat(x, 2, axis=1)[:, ::2]
    for oracle, per_vector in ((dom.lmo_rows, dom.lmo), (dom.project_rows, dom.project)):
        expected = oracle(x)
        assert _bits(expected) == _bits(np.array([per_vector(row.copy()) for row in x]))
        for layout in (np.asfortranarray(x), strided):
            assert _bits(oracle(layout)) == _bits(expected)
            assert _bits(np.array([per_vector(row) for row in layout])) == _bits(expected)


@pytest.mark.parametrize("dom", ALL_SETS, ids=_ids(ALL_SETS))
def test_row_oracles_reject_bad_rows(dom):
    bad = np.zeros((3, dom.dim))
    bad[1, 0] = np.nan
    for oracle in (dom.lmo_rows, dom.project_rows):
        with pytest.raises(ValueError):
            oracle(np.zeros((3, dom.dim + 1)))
        with pytest.raises(ValueError):
            oracle(np.zeros(dom.dim))
        with pytest.raises(ValueError):
            oracle(bad)


WITNESS_SETS = ROW_SETS + [Simplex(1), L2Ball(1, 3.0)]


@pytest.mark.parametrize("dom", WITNESS_SETS, ids=_ids(WITNESS_SETS))
def test_lmo_of_minus_and_plus_e1_is_a_diameter_apart(dom):
    # verify's diameter witness; dim 1 leaves the simplex a single point.
    e1 = np.eye(1, dom.dim)[0]
    assert float(np.linalg.norm(dom.lmo(-e1) - dom.lmo(e1))) == dom.diameter


@st.composite
def sets(draw, balls_only=False):
    """Any of the four set types at dims 1 to 50."""
    dim = draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["l2", "lp", "l1"] + ([] if balls_only else ["simplex"])))
    if kind == "simplex":
        return Simplex(dim)
    radius = draw(st.sampled_from([0.5, 1.0, 3.0]))
    if kind == "lp":
        return LpBall(dim, radius, draw(st.one_of(st.just(2.0), st.floats(1.0 + MIN_P_GAP, 2.0))))
    return (L2Ball if kind == "l2" else L1Ball)(dim, radius)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sets(), SEEDS)
def test_sample_rows_are_feasible(dom, seed):
    rows = dom.sample_rows(200, np.random.default_rng(seed))
    assert rows.shape == (200, dom.dim)
    for x in rows:
        assert dom.contains(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sets(), SEEDS, st.floats(-300.0, 300.0))
def test_lmo_is_feasible_and_beats_sampled_points_at_every_scale(dom, seed, log_scale):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(dom.dim) * 10.0**log_scale
    v = dom.lmo(g)
    assert dom.contains(v)
    # Ties return the anchor, which a sample may beat by up to
    # ZERO_GRADIENT_TOL * diameter.
    slack = (1e-9 * l2_norm(g) + ZERO_GRADIENT_TOL) * dom.diameter
    assert float(g @ v) <= float((dom.sample_rows(300, rng) @ g).min()) + slack


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sets(balls_only=True), SEEDS)
def test_norm_rows_equal_norm_bit_for_bit(dom, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, dom.dim)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(40, 1))
    x[0] = 0.0
    x[1] = 1e200 * rng.standard_normal(dom.dim)
    x[2] = -1e200
    out = dom.norm_rows(x)
    # Per-vector norms that do not pass through core.row_lp_norms.
    if isinstance(dom, L2Ball):
        expected = [l2_norm(row) for row in x]
    elif isinstance(dom, L1Ball):
        expected = [float(np.abs(row).sum()) for row in x]
    else:
        expected = [_lmo_reference._lp_norm(row, dom.p) for row in x]
    assert _bits(out) == _bits(np.array(expected))
