"""Reference computations the learners are checked against.

Certified minimizers of learners' surrogates, which the learners' states
are (see ``learners``), and the offline comparator: every prefix's best
fixed total of a stream of rounds, which regret is measured against.
``surrogate_gaps`` measures the surrogate gaps of a block of consecutive
plays in one row-wise pass; ``surrogate_argmin`` is its one-row case, for
a single state. These routines are allowed to project; the online
learners never are. A certificate allows a Frank-Wolfe gap of its
tolerance plus 64 machine epsilons of D * (||gradient at the anchor|| +
curvature * D), D the set's diameter: the rounding its own arithmetic
can leave, at any loss scale.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK_ROWS, dot, l2_norm, prefix_sums, row_dots, row_l2_norms
from .losses import LINEAR
from .sets import FeasibleSet

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "ConvergenceError",
    "surrogate_argmin",
    "surrogate_gaps",
    "PrefixComparator",
    "offline_comparator",
]

DEFAULT_ORACLE_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """A computed minimizer failed its Frank-Wolfe-gap certificate."""


def _uncertified(gap: float, allowed: float) -> str:
    return f"minimizer failed its certificate: Frank-Wolfe gap {float(gap)!r} > {float(allowed)!r}"


def _allowed_gap(domain: FeasibleSet, anchor_grad_norm, curvature, tol=DEFAULT_ORACLE_TOL):
    """The gap a certificate allows (see the module docstring), elementwise."""
    D = domain.diameter
    return tol + 64 * np.finfo(float).eps * D * (anchor_grad_norm + curvature * D)


def _certify(domain: FeasibleSet, grad: np.ndarray, x: np.ndarray, allowed: float):
    """Raise unless the Frank-Wolfe gap <grad, x - lmo(grad)> is at most ``allowed``.

    For a convex objective with gradient ``grad`` at ``x`` that gap
    upper-bounds the suboptimality of ``x``.
    """
    gap = dot(grad, x - domain.lmo(grad))
    if not gap <= allowed:
        raise ConvergenceError(_uncertified(gap, allowed))


def _minimize_rows(state, xs: np.ndarray, gs: np.ndarray, tol: float):
    """Certified minimizers and minima of the surrogates of ``state`` and
    of the ``len(xs)`` states after it (see ``surrogate_rows``), and the
    surrogates' value map.

    Both surrogates are isotropic quadratics, so from any point x0 each
    minimizer over the set is the projection of the free minimizer
    ``x0 - gradient(x0) / curvature``; x0 is the set's anchor, kept as is
    by rows whose gradient vanishes there (projecting a feasible point
    onto the simplex can move it by rounding). Each row's Frank-Wolfe gap
    at the result must be at most ``tol`` plus a rounding allowance, else
    ``ConvergenceError`` names the round of the first failing row. Rows
    without positive curvature have no unique minimizer; their minima are NaN.
    """
    # The free minimizers x0 - g0 / curvature are worked in g0's buffer.
    curvature, gradient, values = state.surrogate_rows(xs, gs)
    live = curvature > 0.0
    domain = state.domain
    x0 = domain.anchor()
    x = gradient(x0)
    allowed = _allowed_gap(domain, row_l2_norms(x), curvature, tol)
    stay = ~x.any(axis=1)
    x /= np.where(live, curvature, 1.0)[:, None]
    x = domain.project_rows(np.subtract(x0, x, out=x))
    x[stay] = x0
    grad = gradient(x)
    step = domain.lmo_rows(grad)
    fw_gaps = row_dots(grad, np.subtract(x, step, out=step))
    del grad, step
    failed = np.flatnonzero(live & ~(fw_gaps <= allowed))
    if failed.size:
        k = int(failed[0])
        # The state after k rounds plays in round k + 1.
        raise ConvergenceError(f"round {state.t + k + 1}: {_uncertified(fw_gaps[k], allowed[k])}")
    best = values(x)
    best[~live] = np.nan
    return x, best, values


def surrogate_argmin(state, tol: float = DEFAULT_ORACLE_TOL) -> tuple[np.ndarray, float]:
    """Minimize a learner state's surrogate in closed form, certified to ``tol``.

    ``state`` is an ``OfwState`` or ``ScOfwState``; this is the one-row
    case of ``surrogate_gaps``' minimizer. Its Frank-Wolfe gap, which bounds
    the value's excess over the true minimum, must be at most ``tol`` plus
    its rounding allowance, else ``ConvergenceError`` is raised. A surrogate
    without positive curvature (the strongly convex learner before its
    first round) has no unique minimizer and raises ``ValueError``.
    """
    curvature = state.curvature
    if not curvature > 0.0:
        raise ValueError(f"surrogate needs a positive curvature, got {curvature!r}")
    none = np.empty((0, state.domain.dim))
    x, best, _ = _minimize_rows(state, none, none, tol)
    return x[0], float(best[0])


def surrogate_gaps(state, xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Surrogate gaps of n consecutive plays, one row-wise pass for all.

    ``xs[k]`` is the point the learner played from the k-th state after
    ``state`` (``xs[0] = state.x``) and ``gs[k]`` the gradient it then saw;
    both are (n, dim) arrays, and the last gradient is not needed. Entry k
    is that state's surrogate at ``xs[k]`` less its certified minimum, equal
    bit for bit to ``state_k.value(xs[k]) - surrogate_argmin(state_k)[1]``;
    NaN where the surrogate has no positive curvature. Each minimizer is
    certified to ``DEFAULT_ORACLE_TOL``; a failed certificate raises
    ``ConvergenceError`` naming the first failing row's round.
    """
    best, values = _minimize_rows(state, xs[:-1], gs[:-1], DEFAULT_ORACLE_TOL)[1:]
    return values(xs) - best


class PrefixComparator:
    """The offline comparator of a stream of rounds, fed a chunk at a time,
    carrying the running sums of the rounds fed so far."""

    def __init__(self, domain: FeasibleSet, kind: str, lam: float):
        self.domain, self.kind, self.lam = domain, kind, lam
        self.t, self.row_sum, self.sq_sum, self.x = 0, np.zeros(domain.dim), 0.0, None

    def add(self, rows: np.ndarray, totals: np.ndarray):
        """Feed the next rounds; ``totals[i]`` is set to the best fixed total
        up to ``rows[i]``. Worked ``BLOCK_ROWS`` rounds at a time with the
        row-wise oracles, each equal bit for bit to a round-by-round loop."""
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start : start + BLOCK_ROWS]
            prefix = prefix_sums(block, self.row_sum)
            self.row_sum = prefix[-1]
            if self.kind == LINEAR:
                x = self.domain.lmo_rows(prefix)
                totals[start : start + len(block)] = row_dots(prefix, x)
            else:
                ts = np.arange(self.t + 1, self.t + len(block) + 1, dtype=float)
                sq_prefix = prefix_sums(row_dots(block, block), self.sq_sum)
                self.sq_sum = sq_prefix[-1]
                x = self.domain.project_rows(prefix / ts[:, None])
                totals[start : start + len(block)] = (
                    0.5 * self.lam * (ts * row_dots(x, x) - 2.0 * row_dots(prefix, x) + sq_prefix)
                )
            self.t += len(block)
            self.x = x[-1]

    def point(self) -> np.ndarray:
        """A copy of the best fixed point of the rounds fed so far; for
        quadratic rounds, its Frank-Wolfe gap is certified. ``ValueError``
        before any round is fed."""
        if self.x is None:
            raise ValueError("no rounds were fed, so there is no comparator point")
        x_star = self.x.copy()
        if self.kind != LINEAR:
            grad = self.lam * (self.t * x_star - self.row_sum)
            g0 = l2_norm(self.lam * (self.t * self.domain.anchor() - self.row_sum))
            _certify(self.domain, grad, x_star, _allowed_gap(self.domain, g0, self.lam * self.t))
        return x_star


def offline_comparator(domain: FeasibleSet, kind: str, lam: float, rows: np.ndarray) -> tuple:
    """Best fixed feasible point in hindsight, and each prefix's best total.

    Returns ``(x_star, totals)``, ``totals[t - 1]`` the least total loss of
    one feasible point over rounds 1..t, from a ``PrefixComparator(domain,
    kind, lam)`` fed ``rows``, an (n, dim) array of one round per row.
    Linear rounds: the lmo of the gradient prefix sum, scored against it.
    Quadratic rounds: the projection of the mean target, scored in closed
    form from the target sums; the Frank-Wolfe gap of ``x_star`` is
    certified (``ConvergenceError`` otherwise). No rounds, or rounds of
    another dim than the set's, raise ``ValueError``. Runs and sweeps feed a
    ``PrefixComparator`` chunk by chunk; this stays while the benchmark's
    tracer wraps it by name.
    """
    if not len(rows) or rows.shape[1] != domain.dim:
        raise ValueError(f"expected rounds of dim {domain.dim}, got shape {rows.shape}")
    totals = np.empty(len(rows))
    comparator = PrefixComparator(domain, kind, lam)
    comparator.add(rows, totals)
    return comparator.point(), totals
