"""Property tests of LpBall.project against the reference brentq routine, and
bit-for-bit tests of the Lp oracles against their frozen Newton solve."""

import _lp_newton_reference as newton_reference
import numpy as np
import pytest
from _lp_reference import reference_project
from hypothesis import given, settings
from hypothesis import strategies as st

from ofwkit.sets import MIN_P_GAP, L2Ball, LpBall

EPS = float(np.finfo(float).eps)


def _point(draw, dim):
    """A seeded Gaussian point at a drawn scale, with optional exact zeros
    and ties in magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(dim) * 10.0 ** draw(st.floats(-6.0, 6.0))
    if draw(st.booleans()):
        x[rng.random(dim) < 0.3] = 0.0
    if draw(st.booleans()):
        tied = rng.random(dim) < 0.4
        x[tied] = abs(x[0]) * rng.choice([-1.0, 1.0], size=int(tied.sum()))
    return x


@st.composite
def balls(draw, min_p=1.01, max_p=2.0):
    p = draw(st.one_of(st.just(max_p), st.floats(min_p, max_p)))
    dim = draw(st.integers(1, 200))
    return LpBall(dim, draw(st.sampled_from([0.5, 1.0, 3.0])), p)


@st.composite
def cases(draw, min_p=1.01, max_p=2.0):
    ball = draw(balls(min_p, max_p))
    return ball, _point(draw, ball.dim)


def _assert_close(new, ref, rtol):
    np.testing.assert_allclose(new, ref, rtol=rtol, atol=rtol * float(np.abs(ref).max()))


def _rtol(ball):
    # The entry equations are k = 1/(p-1) times worse conditioned than the
    # input, so two correct solutions agree only to about k * eps.
    return max(1e-12, 16.0 / (ball.p - 1.0) * EPS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_project_matches_reference(case):
    ball, x = case
    _assert_close(ball.project(x), reference_project(ball, x), 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases(min_p=1.0 + MIN_P_GAP, max_p=1.01))
def test_project_matches_reference_near_l1(case):
    ball, x = case
    _assert_close(ball.project(x), reference_project(ball, x), _rtol(ball))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases(min_p=1.0 + MIN_P_GAP))
def test_project_idempotent_and_feasible(case):
    ball, x = case
    p1 = ball.project(x)
    assert ball.contains(p1, 1e-12 * ball.radius)
    _assert_close(ball.project(p1), p1, _rtol(ball))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_project_nonexpansive(data):
    ball = data.draw(balls(min_p=1.0 + MIN_P_GAP))
    x, z = _point(data.draw, ball.dim), _point(data.draw, ball.dim)
    lhs = float(np.linalg.norm(ball.project(x) - ball.project(z)))
    gap = float(np.linalg.norm(x - z))
    # Each projection is exact only to _rtol relative to its largest entry.
    assert lhs <= gap * (1.0 + 1e-12) + 2.0 * _rtol(ball) * ball.radius * ball.dim**0.5


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cases(min_p=2.0))
def test_project_p2_is_euclidean(case):
    ball, x = case
    _assert_close(ball.project(x), L2Ball(ball.dim, ball.radius).project(x), 1e-13)


def test_p_too_close_to_one_is_rejected():
    with pytest.raises(ValueError):
        LpBall(3, 1.0, 1.0 + MIN_P_GAP / 2)
    LpBall(3, 1.0, 1.0 + MIN_P_GAP)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _newton_cases(dim, seed):
    """300 seeded rows at scales 1e-3 to 1e8, a third with exact zeros and a
    third with entries tied in magnitude; most lie outside a unit ball."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-3.0, 8.0, size=(300, 1))
    x[::3][rng.random((100, dim)) < 0.3] = 0.0
    tied = x[1::3]
    mask = rng.random(tied.shape) < 0.4
    tied[mask] = (np.abs(tied[:, :1]) * rng.choice([-1.0, 1.0], size=tied.shape))[mask]
    return x


@pytest.mark.parametrize("dim", [1, 5, 100])
@pytest.mark.parametrize("p", [1.5, 1.01, 1.25, 1.9, 2.0, 1.0 + 1e-6])
def test_newton_oracles_equal_frozen_reference_bit_for_bit(p, dim):
    # p = 1.5 takes the solve's k - 1 = 1 shortcuts; the other values of p
    # take the general powers and products.
    ball = LpBall(dim, 1.0, p)
    x = _newton_cases(dim, seed=int(1000 * p) + dim)
    expected = np.array([newton_reference.project(ball, row) for row in x])
    assert _bits(np.array([ball.project(row) for row in x])) == _bits(expected)
    assert _bits(ball.project_rows(x)) == _bits(expected)
    g = x[np.abs(x).max(axis=1) > 0.0]
    expected = np.array([newton_reference.lp_lmo(ball, row) for row in g])
    assert _bits(np.array([ball.lmo(row) for row in g])) == _bits(expected)
    assert _bits(ball.lmo_rows(g)) == _bits(expected)
