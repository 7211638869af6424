"""Vector arithmetic and the exact step-size search shared by the learners.

Everything here is deliberately small: inner products, lp norms, and the
closed-form minimizer of the one-dimensional model ``sigma*a + sigma**2*b``
on [0, 1] that the Frank-Wolfe updates use to pick a step size.

The row-wise helpers (``as_rows``, ``row_dots``, ``row_l2_norms``,
``row_lp_norms``, ``prefix_sums``, ``running_sums``) batch the same
arithmetic over (n, dim) arrays. Row i of each result equals the
per-vector computation on row i bit for bit, so batched bookkeeping
reproduces the sequential one exactly; ``lp_norm`` at p != 2 is
``row_lp_norms`` of one row. Vectors and rows are made C-contiguous on the
way in: numpy rounds dot products over strided memory differently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "as_int",
    "as_vector",
    "as_vector_and_norm",
    "as_rows",
    "dot",
    "row_dots",
    "l2_norm",
    "row_l2_norms",
    "row_lp_norms",
    "lp_norm",
    "unit_max_lp_norm",
    "row_unit_max_lp_norms",
    "prefix_sums",
    "running_sums",
    "line_search_quadratic",
]

# Rows per block of the batched bookkeeping. It works one block at a time,
# so its temporary (block, dim) arrays stay small however long the
# sequence is. The comparator holds up to about nine of them at
# once (a simplex projection of quadratic rounds); at dim 100, blocks of
# 128 rows raised a T = 4096 run's peak heap by 0.75 MB over its rounds'
# generation, and blocks of 64 by 0.33 MB, for 0.4 us more per round.
BLOCK_ROWS = 64

_FLOAT64 = np.dtype(np.float64)
_TINY = float(np.finfo(np.float64).tiny)  # the least normal double


def as_int(n, name: str, low: int | None = None) -> int:
    """``n`` as an int; ``ValueError`` naming ``name`` unless ``n`` is an
    integral number, not a bool, and at least ``low`` (None, 0 or 1) if given."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = None
    if isinstance(n, (bool, np.bool_)) or k is None or k != n or (low is not None and k < low):
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[low]
        raise ValueError(f"{name} must be {kind}, got {n!r}")
    return k


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite, C-contiguous 1-D float64 array, optionally
    checking length."""
    return _checked_vector(x, dim)[0]


def as_vector_and_norm(x, dim: int | None = None) -> tuple[np.ndarray, float]:
    """``as_vector(x, dim)`` and its ``l2_norm``, from the one dot product
    that the check computes."""
    v, sq = _checked_vector(x, dim)
    return v, (math.sqrt(sq) if _TINY <= sq < math.inf else _rescaled_l2_norm(v))


def _checked_vector(x, dim):
    """``as_vector(x, dim)`` and ``x . x``, inf where the squares overflow.

    ``FeasibleSet.lmo`` and the learner updates check here: complex entries
    first, then a shape not 1-D, non-finite entries and a length not ``dim``.
    """
    v = _as_float64(x, "vector has complex entries")
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    # Finite squares imply finite entries; only when they are not is the
    # entrywise test needed, so a finite vector costs one dot product.
    sq = _sum_of_squares(v)
    if not math.isfinite(sq) and not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    return v, sq


def as_rows(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a finite, C-contiguous (n, dim) float64 array, n >= 0."""
    rows = _as_float64(x, "rows have complex entries")
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("rows have non-finite entries")
    return rows


def _as_float64(x, complex_message: str) -> np.ndarray:
    """``np.asarray(x, np.float64, order="C")``, but complex input, whose real
    parts numpy would keep with only a warning, raises ``ValueError``."""
    v = np.asarray(x, order="C")
    if v.dtype is not _FLOAT64:  # only input to convert is tested
        if v.dtype.kind == "c":
            raise ValueError(complex_message)
        v = np.asarray(x, dtype=np.float64, order="C")
    return v


def _as_real(v) -> np.ndarray:
    """``v`` as float64, complex input refused; a float64 array keeps its strides."""
    v = np.asarray(v)
    return v if v.dtype is _FLOAT64 else _as_float64(v, "vector has complex entries")


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean inner product. Shapes must match exactly."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] . b[i]`` for each row of two (n, dim) arrays.

    A stacked matmul of (1, dim) by (dim, 1) products, which rounds each
    row exactly as ``a[i].dot(b[i])`` does; ``einsum`` and ``(a * b).sum(1)``
    round differently, and so do rows that are not C-contiguous, which
    are copied first.
    """
    a, b = np.asarray(a, order="C"), np.asarray(b, order="C")
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _sum_of_squares(v: np.ndarray) -> float:
    """``v . v`` for a 1-D float64 array; inf where the squares overflow."""
    try:
        return float(v.dot(v))
    except (FloatingPointError, RuntimeWarning):
        # numpy reports the overflow this way under errstate(all="raise")
        # or when warnings are errors.
        return math.inf


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm, finite for every finite vector.

    Equal to ``np.linalg.norm(v)``, which is ``sqrt(v . v)`` too, without
    its dispatch. The squares overflow once ``||v||`` passes about 1e154,
    and fall below the normal range under about 1e-154; only then is the
    norm recomputed on ``v / max|v|``, so the common case pays two extra
    comparisons.
    """
    v = _as_real(v)
    if v.ndim != 1:
        v = v.ravel()
    sq = _sum_of_squares(v)
    return math.sqrt(sq) if _TINY <= sq < math.inf else _rescaled_l2_norm(v)


def _rescaled_l2_norm(v: np.ndarray) -> float:
    """``l2_norm`` of a finite vector whose sum of squares overflows or is
    not a normal double, from ``v / max|v|``."""
    m = float(np.abs(v).max())
    return m * math.sqrt(_sum_of_squares(v / m)) if m else 0.0


def row_l2_norms(rows: np.ndarray) -> np.ndarray:
    """``l2_norm`` of each row of an (n, dim) array, equal to it bit for bit.

    The squares are summed for all rows at once. Where numpy reports their
    overflow as an error (``errstate(all="raise")``, or warnings as errors)
    each row is summed on its own, as ``l2_norm`` would, and rows whose
    sum of squares overflows or is not normal are recomputed by ``l2_norm``.
    """
    try:
        sq = row_dots(rows, rows)
    except (FloatingPointError, RuntimeWarning):
        sq = np.array([_sum_of_squares(v) for v in rows])
    norms = np.sqrt(sq)
    redo = np.flatnonzero((sq < _TINY) | (norms == math.inf))
    if redo.size:  # a zero row's norm is its sqrt(0.0) already
        for i in redo[rows[redo].any(axis=1)]:
            norms[i] = l2_norm(rows[i])
    return norms


def row_lp_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """lp norm, p >= 1, of each row of an (n, dim) array. At p = 1 a sum past
    the largest float is inf; at p other than 1 and 2 each row is scaled by
    its largest entry first, so that no power overflows."""
    if p == 2:
        return row_l2_norms(rows)
    a = np.abs(rows)
    if p == 1:
        with np.errstate(over="ignore"):
            return a.sum(axis=1)
    m = np.maximum.reduce(a, axis=1, initial=0.0)
    a /= np.where(m > 0.0, m, 1.0)[:, None]
    return m * row_unit_max_lp_norms(a, p, out=a)


def lp_norm(v: np.ndarray, p: float) -> float:
    """lp norm of a real vector for p >= 1; input that is not 1-D is raveled.

    p=2 routes through the Euclidean norm so that ``lp_norm(v, 2)**2``
    agrees with ``dot(v, v)`` to rounding; a float64 array keeps its strides.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        return l2_norm(v)
    return float(row_lp_norms(_as_real(v).reshape(1, -1), p)[0])


def unit_max_lp_norm(a: np.ndarray, p: float) -> float:
    """lp norm of a nonnegative vector whose largest entry is 1, unscaled.
    At p = 2 it rounds differently from ``l2_norm``, which ``lp_norm`` takes.
    """
    return float(np.add.reduce(a**p)) ** (1.0 / p)


def row_unit_max_lp_norms(a: np.ndarray, p: float, out=None) -> np.ndarray:
    """``unit_max_lp_norm`` of each row of an (n, dim) array, bit for bit;
    zero rows give 0. ``out``, which may be ``a``, takes ``a**p``.

    The root is taken per row on floats: numpy's vectorised power rounds
    some values differently.
    """
    sums = np.add.reduce(np.power(a, p, out=out), axis=1)
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def prefix_sums(rows: np.ndarray, carry) -> np.ndarray:
    """Running sums ``carry + rows[0] + ... + rows[i]`` down axis 0.

    Each entry is added in sequence, as a loop of ``total = total + row``
    from ``total = carry`` would, so prefix sums carried from block to
    block equal that loop bit for bit. ``rows`` is (n,) with a scalar
    ``carry`` or (n, dim) with a (dim,) one.
    """
    return running_sums(rows, carry)[1:]


def running_sums(rows, carry) -> np.ndarray:
    """``carry`` followed by ``prefix_sums(rows, carry)``: n + 1 sums down axis 0."""
    out = np.empty((rows.shape[0] + 1,) + rows.shape[1:])
    out[0] = carry
    out[1:] = rows
    np.cumsum(out, axis=0, out=out)
    return out


def line_search_quadratic(a: float, b: float) -> float:
    """Exact minimizer of ``sigma*a + sigma**2*b`` over sigma in [0, 1].

    ``a`` is the directional slope at the current point, ``b`` the curvature
    term, which must be positive. The unconstrained minimizer -a/(2b) is
    clamped to the closed interval, so ties at the endpoints return the
    endpoint itself.
    """
    if not (b > 0.0):
        raise ValueError(f"curvature coefficient must be positive, got {b}")
    s = -a / (2.0 * b)
    # min(1.0, max(0.0, s)) as comparisons: a NaN slope gives 0.0 too.
    return 1.0 if s > 1.0 else (s if s > 0.0 else 0.0)
