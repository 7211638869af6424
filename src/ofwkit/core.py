"""Vector arithmetic and the exact step-size search shared by the learners.

Everything here is deliberately small: inner products, lp norms, and the
closed-form minimizer of the one-dimensional model ``sigma*a + sigma**2*b``
on [0, 1] that the Frank-Wolfe updates use to pick a step size.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_vector",
    "dot",
    "l2_norm",
    "lp_norm",
    "line_search_quadratic",
]


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally checking length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    # Finite squares imply finite entries; only when they are not is the
    # entrywise test needed, so a finite vector costs one dot product.
    if not math.isfinite(_sum_of_squares(v)) and not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean inner product. Shapes must match exactly."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


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
    its dispatch. The squares overflow once ``||v||`` passes about 1e154;
    only then is the norm recomputed on ``v / max|v|``, so the common case
    pays one extra comparison.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        v = v.ravel()
    n = math.sqrt(_sum_of_squares(v))
    if n == math.inf:
        m = float(np.abs(v).max())
        n = m * math.sqrt(_sum_of_squares(v / m))
    return n


def lp_norm(v: np.ndarray, p: float) -> float:
    """lp norm of a vector for p >= 1.

    p=2 routes through the Euclidean norm so that ``lp_norm(v, 2)**2``
    agrees with ``dot(v, v)`` to rounding. Other exponents rescale by the
    max entry first so moderate vectors cannot overflow under large p.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        return l2_norm(v)
    a = np.abs(v)
    if p == 1:
        return float(a.sum())
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


def line_search_quadratic(a: float, b: float) -> float:
    """Exact minimizer of ``sigma*a + sigma**2*b`` over sigma in [0, 1].

    ``a`` is the directional slope at the current point, ``b`` the curvature
    term, which must be positive. The unconstrained minimizer -a/(2b) is
    clamped to the closed interval, so ties at the endpoints return the
    endpoint itself.
    """
    if not (b > 0.0):
        raise ValueError(f"curvature coefficient must be positive, got {b}")
    return min(1.0, max(0.0, -a / (2.0 * b)))
