"""Reference Lp-ball oracles for tests: the Newton projection and the linear
oracle as they stood before their numpy calls were trimmed.

Every 1-D maximum here is ``np.maximum.reduce``, and the powers
``y ** (k - 1)`` and products ``(k - 1) * b`` run even where k - 1 is 1.0
(p = 1.5). The solve's constants are frozen with it. ``LpBall.project``,
``project_rows``, ``lmo`` and ``lmo_rows`` must equal these functions bit
for bit.
"""

import math

import numpy as np

from ofwkit.core import as_vector, l2_norm, unit_max_lp_norm

_NEWTON_RTOL = 1e-8
_NEWTON_MAX_ITER = 100
_JOINT_ITERS = 20
_TARGET = 1e-14
_EPS = float(np.finfo(float).eps)
_CLAMP_STEP = 0.1
_MIN_RADIUS_RATIO = 1e-60


def lp_lmo(ball, g):
    """``LpBall._lmo`` of a finite gradient with no tie."""
    q = ball.p / (ball.p - 1.0)
    w = np.abs(g)
    w /= np.maximum.reduce(w)
    w **= q - 1.0
    w /= l2_norm(w) if ball.p == 2 else unit_max_lp_norm(w, ball.p)
    out = np.sign(g)
    out *= -ball.radius
    out *= w
    return out


def project(ball, x):
    """Euclidean projection of ``x`` onto the ``LpBall`` ``ball``."""
    x = as_vector(x, ball.dim)
    a = np.abs(x)
    scale = float(np.maximum.reduce(a))
    if scale == 0.0:
        return x.copy()
    a /= scale
    y = a ** (ball.p - 1.0)
    mass = float(a.dot(y))
    t = ball.radius / scale
    if t < _MIN_RADIUS_RATIO:
        raise ValueError("lp projection: max|x| exceeds the radius by too much")
    if math.log(mass) / ball.p <= math.log(t):
        return x.copy()
    b, mass = _shrink_to_lp_sphere(a, y, mass, t, ball.p)
    return np.copysign(b * (ball.radius / mass ** (1.0 / ball.p)), x)


def _shrink_to_lp_sphere(a, y, mass, t, p):
    k = 1.0 / (p - 1.0)
    q = k + 1.0
    top = y
    log_t = math.log(t)
    log_tol = 16.0 * _EPS * (k + abs(log_t))
    rtol, target = _NEWTON_RTOL / k, _TARGET / k
    y_tol = max(math.sqrt(2.0 * target / max(k - 1.0, 1.0)), 16.0 * _EPS)
    hi = float(np.add.reduce(a**q)) ** (1.0 / q) / t ** (p - 1.0)
    c = 0.0
    yk1 = y ** (k - 1.0)
    numer = (k - 1.0) * (yk1 * y) + a
    dpsi = k * yk1
    weight, excess = float(y.dot(y)) / k, 0.0
    last = 0.0
    lo, exact = 0.0, True
    for it in range(_NEWTON_MAX_ITER):
        log_ratio = math.log(mass) / p - log_t
        if log_ratio <= 0.0:
            hi = c
        elif exact:
            lo = c
        step = (mass * math.expm1((p - 1.0) * log_ratio) - excess) / weight
        c_next = c + step
        rel = abs(step) / c_next if c_next > 0.0 else math.inf
        converged = rel <= rtol or rel**3 <= target * last**2 or hi - lo <= rtol * hi
        done = (converged or abs(log_ratio) <= log_tol) and (
            c == 0.0
            or float(np.maximum.reduce(y - numer / dpsi)) <= y_tol * float(np.maximum.reduce(y))
        )
        bisect = not done and not (lo < c_next < hi and (last == 0.0 or rel <= 0.5 * last))
        exact = bisect or it >= _JOINT_ITERS
        last = rel
        if bisect:
            c_next = hi if c == 0.0 else 0.5 * (lo + hi)
            last = 0.0
        dc = c_next - c
        y = numer / (dpsi + dc)
        if exact or k * abs(dc) > _CLAMP_STEP * c_next:
            cap = np.minimum(top, a / c_next)
            y = np.minimum(y, cap)
            if exact:
                y = _solve_entries(a, c_next, y, cap, k, y_tol)
        c = c_next
        yk1 = y ** (k - 1.0)
        b = yk1 * y
        mass = float(b.dot(y))
        if done:
            return b, mass
        dpsi = k * yk1 + c
        numer = (k - 1.0) * b + a
        u = b / dpsi
        weight = float(u.dot(y))
        excess = mass - float(u.dot(numer))
    raise RuntimeError("lp projection: Newton did not converge")


def _solve_entries(a, c, y, cap, k, tol):
    for _ in range(_NEWTON_MAX_ITER):
        yk1 = y ** (k - 1.0)
        y_next = np.minimum(((k - 1.0) * (yk1 * y) + a) / (k * yk1 + c), cap)
        step = float(np.maximum.reduce(np.abs(y - y_next)))
        if step <= tol * float(np.maximum.reduce(y_next)):
            return y_next
        y = y_next
    raise RuntimeError("lp projection: entry Newton did not converge")
