"""Feasible regions: membership, linear minimization, projection, geometry.

Each set exposes a linear minimization oracle (``lmo``), which is the only
piece the projection-free learners touch, plus a Euclidean projection used
by reference oracles and the projected-gradient baseline. ``lmo_rows`` and
``project_rows`` apply them to each row of an (n, dim) array, row i equal
bit for bit to the per-vector call. ``sample_rows`` draws n feasible points
from one generator; ``feasible_rows`` fills row i from the i-th of n
generators, as ``sample_rows(1, ...)`` would, and both scale by one law.
Each ball's ``norm_rows`` is ``core.row_lp_norms`` at its exponent ``p``.
Balls are centered at the origin; the simplex is the probability simplex.

``strong_convexity`` is the modulus with which the set body is strongly
convex with respect to the Euclidean norm (0 for polytopes). ``diameter``
is the Euclidean diameter.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    as_int,
    as_rows,
    as_vector,
    as_vector_and_norm,
    l2_norm,
    row_dots,
    row_l2_norms,
    row_lp_norms,
    row_unit_max_lp_norms,
    unit_max_lp_norm,
)

__all__ = [
    "DEFAULT_FEASIBILITY_TOL",
    "MIN_P_GAP",
    "ZERO_GRADIENT_TOL",
    "is_tie",
    "FeasibleSet",
    "L2Ball",
    "LpBall",
    "L1Ball",
    "Simplex",
]

DEFAULT_FEASIBILITY_TOL = 1e-9
ZERO_GRADIENT_TOL = 1e-12
# Smallest p - 1 an LpBall accepts.
MIN_P_GAP = 1e-9
# A random direction shorter than this is drawn again before it is scaled:
# a ball's, in the ball's norm, and a linear round's gradient, in the
# Euclidean norm (``losses`` reads it at call time).
_MIN_DIRECTION_NORM = 1e-12


def is_tie(norm):
    """Whether a gradient of Euclidean norm ``norm`` is a tie for the lmo.

    The threshold ``ZERO_GRADIENT_TOL`` is absolute: a gradient whose
    Euclidean norm is at most 1e-12 counts as zero, whatever the scale of
    the losses, and every feasible point minimizes it, so ``lmo`` and
    ``lmo_rows`` return ``anchor()`` and runs stay deterministic. A valid
    gradient of norm 1e-13 is therefore a tie too. ``norm`` may be a float
    or an array of norms.
    """
    return norm <= ZERO_GRADIENT_TOL


@dataclass(frozen=True)
class FeasibleSet:
    """Base class: a compact convex subset of R^dim."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", as_int(self.dim, "dim", 1))

    # -- interface -------------------------------------------------------

    def contains(self, x, tol: float = DEFAULT_FEASIBILITY_TOL) -> bool:
        """Membership test with additive slack ``tol`` on the constraints:
        ``contains_rows`` of the one row ``x``."""
        return bool(self.contains_rows(as_vector(x, self.dim)[None], tol)[0])

    def contains_rows(self, x, tol: float = DEFAULT_FEASIBILITY_TOL) -> np.ndarray:
        """Membership of each row of a finite (n, dim) array, slack ``tol``, as n bools."""
        raise NotImplementedError

    def lmo(self, g) -> np.ndarray:
        """A minimizer of <g, x> over the set.

        Ties (see ``is_tie``) are resolved to ``anchor()``.
        """
        g, norm = as_vector_and_norm(g, self.dim)
        if is_tie(norm):
            return self.anchor()
        return self._lmo(g, norm)

    def lmo_rows(self, g) -> np.ndarray:
        """``lmo`` of each row of an (n, dim) array, row i equal to ``lmo(g[i])``."""
        g = as_rows(g, self.dim)
        norms = row_l2_norms(g)
        tie = is_tie(norms)
        if not tie.any():
            return self._lmo_rows(g, norms)
        out = np.empty_like(g)
        out[tie] = self.anchor()
        out[~tie] = self._lmo_rows(g[~tie], norms[~tie])
        return out

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the set."""
        raise NotImplementedError

    def project_rows(self, x) -> np.ndarray:
        """``project`` of each row of an (n, dim) array, row i equal to ``project(x[i])``."""
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """A canonical interior-ish starting point (origin or barycenter)."""
        raise NotImplementedError

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` feasible points drawn from ``rng``, as the rows of an (n, dim) array.

        The set's one sampler; a quadratic round's target is
        ``sample_rows(1, rng)[0]``. A ball redraws each direction shorter
        than ``_MIN_DIRECTION_NORM`` before it draws its n uniforms.
        """
        raise NotImplementedError

    def feasible_rows(self, rows: np.ndarray, rngs) -> np.ndarray:
        """Fill row i of the (n, dim) array ``rows`` with ``sample_rows(1, g)[0]``
        of the i-th generator g of ``rngs``, bit for bit, scaling all rows
        at once. Each generator is drawn from before the next is taken.
        Return the indices of the rows whose first direction ``sample_rows``
        would have drawn again; they hold no feasible point, and the
        caller fills them.
        """
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    @property
    def strong_convexity(self) -> float:
        raise NotImplementedError

    # -- hooks -----------------------------------------------------------

    def _lmo(self, g: np.ndarray, norm: float) -> np.ndarray:
        """``lmo`` of a finite gradient of Euclidean norm ``norm``, no tie."""
        raise NotImplementedError

    def _lmo_rows(self, g: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """``_lmo`` of each row of a finite (n, dim) array, row norms ``norms``, no ties."""
        raise NotImplementedError


@dataclass(frozen=True)
class _Ball(FeasibleSet):
    """Shared behavior for lp balls centered at the origin, of exponent ``p``."""

    radius: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.radius > 0.0) or not np.isfinite(self.radius):
            raise ValueError(f"radius must be positive, got {self.radius!r}")

    def norm_rows(self, x) -> np.ndarray:
        """The ball's lp norm, at its ``p``, of each row of an (n, dim) array."""
        return row_lp_norms(as_rows(x, self.dim), self.p)

    def contains_rows(self, x, tol: float = DEFAULT_FEASIBILITY_TOL) -> np.ndarray:
        return self.norm_rows(x) <= self.radius + tol

    def anchor(self) -> np.ndarray:
        return np.zeros(self.dim)

    def sample_rows(self, n, rng):
        # Random directions, then a radial factor that keeps the law
        # spread over the interior rather than piled on the boundary.
        z = rng.standard_normal((n, self.dim))
        norms = self.norm_rows(z)
        for i in np.flatnonzero(norms < _MIN_DIRECTION_NORM).tolist():
            while norms[i] < _MIN_DIRECTION_NORM:
                rng.standard_normal(out=z[i])
                norms[i] = self.norm_rows(z[i : i + 1])[0]
        return self._spread(z, norms.tolist(), rng.random(n).tolist())

    def feasible_rows(self, rows, rngs):
        us = np.empty(len(rows))
        for i, (row, rng) in enumerate(zip(rows, rngs)):
            rng.standard_normal(out=row)
            us[i] = rng.random()
        norms = self.norm_rows(rows)
        short = np.flatnonzero(norms < _MIN_DIRECTION_NORM)
        # Short rows are the caller's to fill; a norm of 1 keeps their
        # scale finite meanwhile.
        norms[short] = 1.0
        self._spread(rows, norms.tolist(), us.tolist())
        return short

    def _spread(self, z, norms, us):
        """Scale each direction row of ``z``, of norm ``norms[i]``, by
        radius * us[i]**(1/dim) / norms[i] in place, and return ``z``.

        The power is taken per row on floats: numpy's vectorised power
        rounds some values differently.
        """
        e = 1.0 / self.dim
        z *= np.array([self.radius * u**e / n for u, n in zip(us, norms)])[:, None]
        return z

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class L2Ball(_Ball):
    """Euclidean ball {x : ||x||_2 <= radius}."""

    p = 2.0

    def _lmo(self, g, norm):
        return (-self.radius / norm) * g

    def _lmo_rows(self, g, norms):
        return (-self.radius / norms)[:, None] * g

    def project(self, x):
        x, n = as_vector_and_norm(x, self.dim)
        if n <= self.radius:
            return x.copy()
        return (self.radius / n) * x

    def project_rows(self, x):
        x = as_rows(x, self.dim)
        n = row_l2_norms(x)
        # 1.0 * x is x exactly, so rows inside equal project's copy.
        scale = np.ones_like(n)
        outside = n > self.radius
        scale[outside] = self.radius / n[outside]
        return scale[:, None] * x

    @property
    def strong_convexity(self) -> float:
        return 1.0 / self.radius


@dataclass(frozen=True)
class LpBall(_Ball):
    """lp ball {x : ||x||_p <= radius} for p in [1 + 1e-9, 2].

    These bodies are strongly convex, with modulus degrading in the
    dimension as d^(1/2 - 1/p). The projection's entry equations are
    1/(p-1) times worse conditioned than its input, so p closer to 1 than
    ``MIN_P_GAP`` would leave it fewer than 7 correct digits.
    """

    p: float = 1.5

    def __post_init__(self):
        super().__post_init__()
        if not (1.0 + MIN_P_GAP <= self.p <= 2.0):
            raise ValueError(f"p must lie in [1 + {MIN_P_GAP:g}, 2], got {self.p!r}")

    def _lmo(self, g, norm):
        # First-order condition on the boundary: the minimizer has
        # |x_i| proportional to |g_i|^(q-1) with q the dual exponent.
        # Normalizing by max|g_i| keeps the powers in a safe range.
        # The steps run in place, in two buffers. The largest entry of w
        # ends exactly 1.0, so lp_norm's own scaling would change nothing.
        q = self.p / (self.p - 1.0)
        w = np.abs(g)
        w /= _largest(w)
        w **= q - 1.0
        w /= l2_norm(w) if self.p == 2 else unit_max_lp_norm(w, self.p)
        out = np.sign(g)
        out *= -self.radius
        out *= w
        return out

    def _lmo_rows(self, g, norms):
        # _lmo's steps, in place where they make a block-sized temporary.
        q = self.p / (self.p - 1.0)
        w = np.abs(g)
        w /= np.maximum.reduce(w, axis=1, keepdims=True)
        w **= q - 1.0
        w /= (row_l2_norms(w) if self.p == 2 else row_unit_max_lp_norms(w, self.p))[:, None]
        out = np.sign(g)
        out *= -self.radius
        out *= w
        return out

    def project(self, x):
        """Euclidean projection onto the ball.

        A point outside lands at ``sign(x) * b`` where each ``b_i >= 0``
        solves ``b + c * b**(p-1) = |x_i|`` and the dual scale ``c > 0``
        makes ``||b||_p = radius``. Both equations are solved by Newton's
        method at O(d) per iteration; see ``_shrink_to_lp_sphere``.
        """
        x = as_vector(x, self.dim)
        # Work on |x| / max|x|, as lp_norm does, so no power overflows.
        a = np.abs(x)
        scale = float(_largest(a))
        if scale == 0.0:
            return x.copy()
        a /= scale
        y = a ** (self.p - 1.0)
        out = self._project_scaled(x, a, y, scale, float(a.dot(y)))
        return x.copy() if out is None else out

    def project_rows(self, x):
        # project's steps, the scaling on all rows at once.
        x = as_rows(x, self.dim)
        a = np.abs(x)
        scales = a.max(axis=1)
        a /= np.where(scales > 0.0, scales, 1.0)[:, None]
        y = a ** (self.p - 1.0)
        masses = row_dots(a, y)
        moved = []
        for i, (scale, mass) in enumerate(zip(scales.tolist(), masses.tolist())):
            if scale > 0.0:
                row = self._project_scaled(x[i], a[i], y[i], scale, mass)
                if row is not None:
                    moved.append((i, row))
        # y is spent; its buffer takes the result, sparing a block.
        out = y
        out[...] = x
        for i, row in moved:
            out[i] = row
        return out

    def _project_scaled(self, x, a, y, scale, mass):
        """``project`` of a nonzero x from a = |x| / scale, scale = max|x|,
        y = a**(p-1) and mass = <a, y> = ||a||_p^p; None if x is inside."""
        t = self.radius / scale
        if t < _MIN_RADIUS_RATIO:
            # The solve's sums scale like t**(2p-1) and would underflow.
            raise ValueError(
                f"lp projection: max|x| = {scale!r} exceeds the radius by more than "
                f"{1.0 / _MIN_RADIUS_RATIO:g} times"
            )
        if math.log(mass) / self.p <= math.log(t):
            return None
        b, mass = _shrink_to_lp_sphere(a, y, mass, t, self.p)
        # Snap to the boundary so feasibility checks at tight tolerances
        # see the projected point as inside.
        return np.copysign(b * (self.radius / mass ** (1.0 / self.p)), x)

    @property
    def strong_convexity(self) -> float:
        return (self.p - 1.0) * self.dim ** (0.5 - 1.0 / self.p) / self.radius


# Newton's error after a step of relative size s is of order s**2, so a
# scale step this small ends the solve.
_NEWTON_RTOL = 1e-8
_NEWTON_MAX_ITER = 100
# Scale steps taken with one entry step each before the entries are solved.
_JOINT_ITERS = 20
# Relative error in the projection the solve aims for. The stopping tests
# predict the error Newton leaves after one more step and compare it with
# this; tests/test_lp_projection.py checks the result to 1e-12.
_TARGET = 1e-14
_EPS = float(np.finfo(float).eps)
# Scale steps larger than this share of c / k also clamp the entries.
_CLAMP_STEP = 0.1
# Smallest radius / max|x| LpBall.project accepts.
_MIN_RADIUS_RATIO = 1e-60


def _largest(v):
    """The largest entry of a 1-D float array: the float ``np.maximum.reduce``
    gives, in about a third of its time."""
    return v[v.argmax()]


def _unless_unit(op, v, e):
    """``op(v, e)`` for ``operator.pow`` or ``mul``, or v itself when e is 1.0
    (k - 1 at p = 1.5), since ``v ** 1.0`` and ``v * 1.0`` are v bit for bit.
    The result may be v, so callers never write into it in place."""
    return v if e == 1.0 else op(v, e)


def _shrink_to_lp_sphere(a, y, mass, t, p):
    """The b >= 0 with b + c*b**(p-1) = a and ||b||_p = t, for some c > 0,
    and its ``sum(b**p)``.

    ``a`` lies in [0, 1] with max 1, ``y = a**(p-1)`` and
    ``mass = ||a||_p^p > t^p``.

    Entries: in ``y = b**(p-1)`` the equation is ``psi(y) = y**k + c*y - a
    = 0`` with ``k = 1/(p-1) >= 1``, convex and increasing in y, so a
    Newton step from any y > 0 lands right of the root and later steps
    descend to it monotonically. ``min(a**(p-1), a/c)`` bounds the root
    from above within a factor 2; it clamps the entries after large scale
    steps. Then ``b = y**k``, ``b**p = b*y`` and ``dy/dc = -y/psi'(y)``.

    Scale: Newton on ``sum(b**p)**(1/q) = t**(p-1)`` (q = k+1, the dual
    exponent), which is linear in c for p = 2 and for large c. Each scale
    step takes one entry step at the new c from the current entries
    instead of solving them, and corrects for their residual, so the pair
    is a Newton step on the whole system, O(d) per iteration. The entries
    stay right of their roots, so a point whose ``||b||_p`` is at most t
    bounds c from above; with solved entries, one above t bounds it from
    below. A step that leaves this bracket, or fails to halve the one
    before, is replaced by bisection with the entries solved.
    """
    k = 1.0 / (p - 1.0)
    q = k + 1.0
    top = y  # the entries at c = 0, an upper bound for every c
    log_t = math.log(t)
    # Rounding noise in log(||b||_p / t): b = y**k magnifies that of y by
    # k. A point this close to the sphere is final, which ends solves whose
    # c is too small, or k too large, for its steps to settle.
    log_tol = 16.0 * _EPS * (k + abs(log_t))
    # A relative error e in c or y moves b by up to k*e, so the tolerances
    # on both shrink by k, down to the spacing y can resolve.
    rtol, target = _NEWTON_RTOL / k, _TARGET / k
    # After an entry step of e relative to y, the next error is at most
    # (k-1)/2 * e**2 relative.
    y_tol = max(math.sqrt(2.0 * target / max(k - 1.0, 1.0)), 16.0 * _EPS)
    hi = unit_max_lp_norm(a, q) / t ** (p - 1.0)
    c = 0.0
    yk1 = _unless_unit(operator.pow, y, k - 1.0)
    # y*psi' - psi, the numerator of a Newton step. It must use b = y**k
    # rather than a: y carries rounding that b would see magnified by k.
    numer = _unless_unit(operator.mul, yk1 * y, k - 1.0) + a
    dpsi = k * yk1
    # At c = 0 the entries are exact, and sum(b*y / psi') = sum(y*y) / k.
    weight, excess = float(y.dot(y)) / k, 0.0
    last = 0.0  # relative size of the last Newton step; 0 after a safeguard
    lo, exact = 0.0, True  # exact: the entries solve psi = 0 at this c
    for it in range(_NEWTON_MAX_ITER):
        log_ratio = math.log(mass) / p - log_t  # log(||b||_p / t), > 0 at c = 0
        if log_ratio <= 0.0:
            hi = c
        elif exact:
            lo = c
        step = (mass * math.expm1((p - 1.0) * log_ratio) - excess) / weight
        c_next = c + step
        rel = abs(step) / c_next if c_next > 0.0 else math.inf
        converged = rel <= rtol or rel**3 <= target * last**2 or hi - lo <= rtol * hi
        # The entries' own next step, y - numer/psi', must be small too.
        done = (converged or abs(log_ratio) <= log_tol) and (
            c == 0.0 or _largest(y - numer / dpsi) <= y_tol * _largest(y)
        )
        # Newton may leave the bracket or cycle inside it; then bisect, on
        # entries solved exactly so that the bracket stays valid. Entries
        # far from their roots take many steps when k is large, so a solve
        # that has not settled goes on with them solved at every step.
        bisect = not done and not (lo < c_next < hi and (last == 0.0 or rel <= 0.5 * last))
        exact = bisect or it >= _JOINT_ITERS
        last = rel
        if bisect:
            # The first step overshoots only when c is large, where the
            # upper bound is close.
            c_next = hi if c == 0.0 else 0.5 * (lo + hi)
            last = 0.0
        # One Newton step on psi at c_next from y: y - psi/psi'.
        dc = c_next - c
        y = numer / (dpsi + dc)
        if exact or k * abs(dc) > _CLAMP_STEP * c_next:
            # A step from left of the root overshoots by about k*dc/c, and
            # from far off Newton on y**k creeps down by y/k per step.
            cap = np.minimum(top, a / c_next)
            y = np.minimum(y, cap)
            if exact:
                y = _solve_entries(a, c_next, y, cap, k, y_tol)
        c = c_next
        yk1 = _unless_unit(operator.pow, y, k - 1.0)
        b = yk1 * y
        mass = float(b.dot(y))
        if done:
            return b, mass
        dpsi = k * yk1 + c
        numer = _unless_unit(operator.mul, b, k - 1.0) + a
        # sum(b*y/psi') and sum(b*psi/psi'), the entries' residual seen
        # by the scale equation.
        u = b / dpsi
        weight = float(u.dot(y))
        excess = mass - float(u.dot(numer))
    raise RuntimeError("lp projection: Newton did not converge")


def _solve_entries(a, c, y, cap, k, tol):
    """Newton on psi(y) = y**k + c*y - a from ``y``, clamped to ``cap``,
    until a step is below ``tol`` relative to max(y)."""
    for _ in range(_NEWTON_MAX_ITER):
        yk1 = _unless_unit(operator.pow, y, k - 1.0)
        numer = _unless_unit(operator.mul, yk1 * y, k - 1.0) + a
        y_next = np.minimum(numer / (k * yk1 + c), cap)
        if _largest(np.abs(y - y_next)) <= tol * _largest(y_next):
            return y_next
        y = y_next
    raise RuntimeError("lp projection: entry Newton did not converge")


@dataclass(frozen=True)
class L1Ball(_Ball):
    """l1 ball {x : ||x||_1 <= radius}. A polytope, so modulus 0."""

    p = 1.0

    def _lmo(self, g, norm):
        j = np.abs(g).argmax()
        out = np.zeros(self.dim)
        # g[j] is not 0: lmo passes no tie.
        out[j] = -self.radius if g[j] > 0.0 else self.radius
        return out

    def _lmo_rows(self, g, norms):
        rows = np.arange(g.shape[0])
        j = np.abs(g).argmax(axis=1)
        out = np.zeros_like(g)
        out[rows, j] = -self.radius * np.sign(g[rows, j])
        return out

    def project(self, x):
        x = as_vector(x, self.dim)
        # A sum past the largest float is inf, which is beyond every radius.
        if row_lp_norms(x[None], 1.0)[0] <= self.radius:
            return x.copy()
        w = _project_simplex(np.abs(x), self.radius)
        return np.sign(x) * w

    def project_rows(self, x):
        x = as_rows(x, self.dim)
        out = x.copy()
        outside = row_lp_norms(x, 1.0) > self.radius
        w = _project_simplex_rows(np.abs(x[outside]), self.radius)
        out[outside] = np.sign(x[outside]) * w
        return out

    @property
    def strong_convexity(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Simplex(FeasibleSet):
    """Probability simplex {x : x >= 0, sum x = 1}. A polytope, modulus 0."""

    def contains_rows(self, x, tol: float = DEFAULT_FEASIBILITY_TOL) -> np.ndarray:
        x = as_rows(x, self.dim)
        return (x >= -tol).all(axis=1) & (np.abs(x.sum(axis=1) - 1.0) <= tol)

    def _lmo(self, g, norm):
        out = np.zeros(self.dim)
        out[g.argmin()] = 1.0
        return out

    def _lmo_rows(self, g, norms):
        out = np.zeros_like(g)
        out[np.arange(g.shape[0]), g.argmin(axis=1)] = 1.0
        return out

    def project(self, x):
        x = as_vector(x, self.dim)
        return _project_simplex(x, 1.0)

    def project_rows(self, x):
        return _project_simplex_rows(as_rows(x, self.dim), 1.0)

    def anchor(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def feasible_rows(self, rows, rngs):
        # Exponential entries over their sum; no draw is redone.
        for row, rng in zip(rows, rngs):
            rng.standard_exponential(out=row)
        rows /= rows.sum(axis=1, keepdims=True)
        return np.empty(0, dtype=np.intp)

    def sample_rows(self, n, rng):
        e = rng.standard_exponential((n, self.dim))
        e /= e.sum(axis=1, keepdims=True)
        return e

    @property
    def diameter(self) -> float:
        # Largest Euclidean distance is between two vertices.
        return float(np.sqrt(2.0)) if self.dim > 1 else 0.0

    @property
    def strong_convexity(self) -> float:
        return 0.0


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = total}.

    Sort-based active-set threshold; O(d log d). Where max(v) swamps
    ``total`` and no threshold passes, v - max(v) is projected instead.
    Where the sums could overflow, v and ``total`` are scaled by a power of
    two first, which is exact unless entries fall below the normal range.
    """
    u = np.sort(v)[::-1]
    # The sums below stay under d * scale + total.
    scale = max(u[0], -u[-1], total)
    if scale > 2.0**1000 / v.shape[0]:
        f = 2.0 ** (1000 - math.frexp(scale)[1] - v.shape[0].bit_length())
        with np.errstate(under="ignore"):
            return _project_simplex(v * f, total * f) / f
    cumulative = np.cumsum(u) - total
    counts = np.arange(1, v.shape[0] + 1)
    mask = u - cumulative / counts > 0.0
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return _project_simplex(v - u[0], total)
    rho = int(hits[-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_simplex_rows(v: np.ndarray, total: float) -> np.ndarray:
    """``_project_simplex`` of each row of ``v``, bit for bit.

    The same steps along axis 1. On one vector it takes nearly twice as
    long as ``_project_simplex``, which ``project`` uses. Rows that fail
    its overflow test or pass no threshold are redone by it.
    """
    d = v.shape[1]
    # Each row sorted in decreasing order, in a C-contiguous buffer: numpy
    # works through a reversed view with block-sized scratch buffers.
    u = np.negative(v)
    u.sort(axis=1)
    np.negative(u, out=u)
    redo = np.maximum(np.maximum(u[:, 0], -u[:, -1]), total) > 2.0**1000 / d
    with np.errstate(over="ignore", invalid="ignore"):
        # cumulative / counts, then the result, in one buffer, and u less
        # it in u's, to spare block-sized temporaries.
        means = np.cumsum(u, axis=1)
        means -= total
        means /= np.arange(1, d + 1)
        mask = np.subtract(u, means, out=u) > 0.0
        rho = d - 1 - np.argmax(mask[:, ::-1], axis=1)
        # cumulative[rho] / (rho + 1), as _project_simplex divides it.
        theta = means[np.arange(v.shape[0]), rho]
        out = np.subtract(v, theta[:, None], out=means)
        np.maximum(out, 0.0, out=out)
    for i in np.flatnonzero(redo | ~mask.any(axis=1)):
        out[i] = _project_simplex(v[i], total)
    return out
