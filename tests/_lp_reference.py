"""Reference lp-ball projection for tests: brentq around a bisection.

This is the routine ``LpBall.project`` used before its Newton solve, kept
unchanged as an independent oracle. It costs milliseconds per call, so only
tests use it, and only they need scipy.
"""

import numpy as np
from scipy.optimize import brentq

from ofwkit.core import as_vector, lp_norm


def reference_project(ball, x):
    """Euclidean projection of ``x`` onto the ``LpBall`` ``ball``."""
    x = as_vector(x, ball.dim)
    if lp_norm(x, ball.p) <= ball.radius:
        return x.copy()
    a = np.abs(x)
    scale = float(a.max())
    a = a / scale
    target = ball.radius / scale

    def residual(c):
        return lp_norm(_shrink_lp(a, c, ball.p), ball.p) - target

    # residual(0) > 0 since x is outside; grow the bracket until the
    # shrunk point is inside, then root-find the dual scale.
    hi = 1.0
    for _ in range(200):
        if residual(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("projection bracket failed to close")
    c = brentq(residual, 0.0, hi, xtol=1e-18, rtol=8.9e-16, maxiter=200)
    b = _shrink_lp(a, c, ball.p)
    # Snap to the boundary so downstream feasibility checks at tight
    # tolerances see the projected point as inside.
    b *= target / lp_norm(b, ball.p)
    return np.sign(x) * (scale * b)


def _shrink_lp(a: np.ndarray, c: float, p: float) -> np.ndarray:
    """Solve b + c*b**(p-1) = a elementwise for b in [0, a].

    The map is increasing in b, so a fixed-depth bisection converges
    geometrically; 80 halvings put the bracket far below float spacing
    relative to each entry's scale.
    """
    if c <= 0.0:
        return a.copy()
    lo = np.zeros_like(a)
    hi = a.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        over = mid + c * mid ** (p - 1.0) > a
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return 0.5 * (lo + hi)
