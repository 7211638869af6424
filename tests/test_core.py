import math
import re
from functools import partial

import numpy as np
import pytest
from _helpers import grid_line_search

from ofwkit.core import (
    BLOCK_ROWS,
    as_vector,
    as_vector_and_norm,
    dot,
    l2_norm,
    line_search_quadratic,
    lp_norm,
    prefix_sums,
    row_dots,
    row_l2_norms,
)


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


def test_as_vector_and_norm_equal_as_vector_then_l2_norm():
    rng = np.random.default_rng(8)
    cases = [rng.standard_normal(d) * s for d in (1, 7, 100) for s in (1e-170, 1.0, 1e160)]
    cases += [[3.0, 4.0], np.zeros(5), np.array([1e200, -1e200, 0.0]), np.arange(6.0)[::2]]
    for x in cases:
        for errstate in ("warn", "raise"):
            with np.errstate(all=errstate):
                v, n = as_vector_and_norm(x)
                assert v.tobytes() == as_vector(x).tobytes() and v.flags.c_contiguous
                assert n == l2_norm(as_vector(x))
    for bad, dim in ((np.zeros((2, 2)), None), ([1.0, np.inf], None), (np.zeros(3), 4)):
        with pytest.raises(ValueError) as want:
            as_vector(bad, dim)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            as_vector_and_norm(bad, dim)


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


def test_l2_norms_rescale_sums_of_squares_below_the_normal_range():
    # Every square of 1e-162 underflows, so v . v alone reads 0.
    v = np.full(4, 1e-162)
    assert l2_norm(v) == as_vector_and_norm(v)[1] == 2e-162
    assert row_l2_norms(v[None]).tolist() == [2e-162]
    rng = np.random.default_rng(32)
    tiny = rng.standard_normal((40, 7)) * 10.0 ** rng.uniform(-323.0, -150.0, (40, 1))
    special = [np.zeros(7), np.eye(7)[0] * 5e-324, np.full(7, 1e-154), np.full(7, 1e-200)]
    rows = np.vstack([tiny, special, rng.standard_normal((8, 7))])
    for errstate in ("warn", "raise"):
        with np.errstate(all=errstate):
            norms = row_l2_norms(rows)
            assert norms.tobytes() == np.array([l2_norm(r) for r in rows]).tobytes()
    assert norms.tolist() == pytest.approx([math.hypot(*r) for r in rows.tolist()], rel=1e-14)


def test_norms_refuse_complex_input_and_keep_the_bits_of_real_input():
    z = np.array([1 + 5j, 0.0])
    for bad in (z, z.tolist(), z.reshape(2, 1), z.astype(np.complex64)):
        for norm in [l2_norm] + [partial(lp_norm, p=p) for p in (1.0, 1.5, 2, 3.0)]:
            with pytest.raises(ValueError, match="^vector has complex entries$"):
                norm(bad)

    def l2_reference(v):
        v = np.asarray(v, dtype=np.float64)
        v = v if v.ndim == 1 else v.ravel()
        return float(np.sqrt(v.dot(v)))

    def lp_reference(v, p):
        # lp_norm's steps on float64; other real input is converted first.
        v = np.asarray(v)
        a = np.abs(v if v.dtype == np.float64 else v.astype(np.float64))
        if p == 1:
            return float(a.sum())
        m = float(a.max())
        return m * float(np.add.reduce((a / m) ** p)) ** (1.0 / p)

    rng = np.random.default_rng(12)
    h = rng.standard_normal(203) * 10.0 ** rng.uniform(-3, 3, 203)
    forms = [h, h[::3], h[1::2], h.tolist(), h.astype(np.float32), np.rint(h).astype(np.int64),
             h[:200].reshape(20, 10), np.asfortranarray(h[:200].reshape(20, 10))]
    for v in forms:
        assert l2_norm(v) == l2_reference(v)
        assert lp_norm(v, 2) == l2_reference(v)
        # Input that is not 1-D is raveled, in C order, for every p.
        raveled = v if np.ndim(v) == 1 else np.ravel(v)
        for p in (1.0, 1.5, 3.0):
            assert lp_norm(v, p) == lp_reference(raveled, p)


def test_blocked_prefix_sums_equal_a_running_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    n = 2 * BLOCK_ROWS + 3
    vectors = rng.standard_normal((n, 5)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
    vectors[0] = np.array([-0.0, 0.0, -0.0, 1.0, -1.0])
    total, expected = np.zeros(5), []
    for v in vectors:
        total = total + v
        expected.append(total)
    carry, got, starts = np.zeros(5), [], []
    for start in range(0, n, BLOCK_ROWS):
        starts.append(start)
        prefix = prefix_sums(vectors[start : start + BLOCK_ROWS], carry)
        carry = prefix[-1]
        got.extend(prefix)
    assert starts == [0, BLOCK_ROWS, 2 * BLOCK_ROWS]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    # A scalar running sum from a Python 0.0, which turns a leading -0.0 into 0.0.
    values = np.array([-0.0, -0.0, 1e-300, 3.5, -3.5])
    running, loop = 0.0, []
    for v in values.tolist():
        running += v
        loop.append(running)
    assert prefix_sums(values, 0.0).tobytes() == np.array(loop).tobytes()


def test_row_dots_equal_dot_bit_for_bit():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 500, 37))
    expected = np.array([u.dot(v) for u, v in zip(a, b)])
    assert row_dots(a, b).tobytes() == expected.tobytes()


def test_row_dots_ignore_memory_layout():
    # Dots over strided rows round differently; such rows are copied first.
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 500, 100))
    expected = row_dots(a, b)
    for layout in (np.asfortranarray, lambda m: np.repeat(m, 2, axis=1)[:, ::2]):
        assert row_dots(layout(a), layout(b)).tobytes() == expected.tobytes()
