import numpy as np
import pytest

from ofwkit.core import (
    as_vector,
    dot,
    l2_norm,
    line_search_quadratic,
    lp_norm,
)
from ofwkit.oracle import grid_line_search


def test_dot_examples():
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert dot(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 25.0
    assert dot(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(np.zeros(3), np.zeros(4))


def test_dot_symmetric_and_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u, v, w = rng.standard_normal((3, 7))
        a, b = rng.standard_normal(2)
        assert dot(u, v) == pytest.approx(dot(v, u), rel=1e-12, abs=1e-12)
        assert dot(a * u + b * w, v) == pytest.approx(
            a * dot(u, v) + b * dot(w, v), rel=1e-12, abs=1e-12
        )


def test_lp_norm_examples():
    assert lp_norm(np.array([3.0, 4.0]), 2) == 5.0
    assert lp_norm(np.array([1.0, -1.0, 1.0]), 1) == 3.0
    assert lp_norm(np.array([1.0, 1.0]), 1.5) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(np.ones(3), 0.5)


def test_lp_norm_squared_matches_dot():
    rng = np.random.default_rng(12)
    for _ in range(300):
        v = rng.standard_normal(9) * rng.uniform(0.01, 100.0)
        assert lp_norm(v, 2) ** 2 == pytest.approx(dot(v, v), rel=1e-12)


def test_lp_norm_zero_vector():
    assert lp_norm(np.zeros(4), 1.5) == 0.0


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        as_vector(np.zeros(3), dim=4)


def test_line_search_interior_minimum():
    # -a/(2b) = 1/4 sits inside the interval
    assert line_search_quadratic(-1.0, 2.0) == 0.25


def test_line_search_clamps_to_zero():
    assert line_search_quadratic(3.0, 5.0) == 0.0


def test_line_search_clamps_to_one():
    assert line_search_quadratic(-4.0, 2.0) == 1.0


def test_line_search_boundary_ties():
    assert line_search_quadratic(0.0, 1.0) == 0.0
    assert line_search_quadratic(-2.0, 1.0) == 1.0


def test_line_search_rejects_nonpositive_curvature():
    with pytest.raises(ValueError):
        line_search_quadratic(1.0, 0.0)
    with pytest.raises(ValueError):
        line_search_quadratic(1.0, -2.0)


def test_line_search_never_beaten_by_grid():
    # closed form against a dense brute-force grid over many scales
    rng = np.random.default_rng(13)
    sigmas = np.linspace(0.0, 1.0, 10_000)
    for _ in range(1000):
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        a = rng.uniform(-50.0, 50.0)
        best = line_search_quadratic(a, b)
        obj_best = a * best + b * best * best
        obj_grid = float(np.min(a * sigmas + b * sigmas * sigmas))
        assert obj_best <= obj_grid + 1e-12


def test_line_search_agrees_with_grid_oracle():
    rng = np.random.default_rng(14)
    for _ in range(300):
        b = 10.0 ** rng.uniform(-2.0, 2.0)
        a = rng.uniform(-10.0, 10.0)
        exact = line_search_quadratic(a, b)
        coarse = grid_line_search(a, b, 10_001)
        assert abs(exact - coarse) <= 1e-4


def test_l2_norm_survives_overflow_of_squares():
    g = np.array([1e200, -1e200, 0.0])
    with np.errstate(all="raise"):
        assert l2_norm(g) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert lp_norm(g, 2) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert l2_norm(np.array([3.0, 4.0])) == 5.0
