"""Reference computations the learners are checked against.

A certified minimizer of a learner's surrogate, which the learner's state
is (see ``learners``), and the offline comparator of a ``losses.Rounds``
that regret is measured against. These routines are allowed to project;
the online learners never are.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK_ROWS, dot, prefix_sums, row_dots
from .losses import LINEAR, Rounds
from .sets import FeasibleSet

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "ConvergenceError",
    "surrogate_argmin",
    "offline_comparator",
]

DEFAULT_ORACLE_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """A computed minimizer failed its Frank-Wolfe-gap certificate."""


def _certify(domain: FeasibleSet, grad: np.ndarray, x: np.ndarray, tol: float):
    """Raise unless the Frank-Wolfe gap <grad, x - lmo(grad)> is at most ``tol``.

    For a convex objective with gradient ``grad`` at ``x`` that gap
    upper-bounds the suboptimality of ``x``.
    """
    gap = dot(grad, x - domain.lmo(grad))
    if not gap <= tol:
        raise ConvergenceError(
            f"minimizer failed its certificate: Frank-Wolfe gap {gap!r} > {tol!r}"
        )


def surrogate_argmin(state, tol: float = DEFAULT_ORACLE_TOL) -> tuple[np.ndarray, float]:
    """Minimize a learner state's surrogate in closed form, certified to ``tol``.

    ``state`` is an ``OfwState`` or ``ScOfwState``. Both surrogates are
    isotropic quadratics, so from any point x0 their minimizer over the set
    is the projection of the free minimizer ``x0 - gradient(x0) / curvature``;
    x0 is the set's anchor, returned as is where the gradient vanishes
    there (projecting a feasible point onto the simplex can move it by
    rounding). The Frank-Wolfe gap at the result must be at most ``tol``,
    else ``ConvergenceError`` is raised, so the returned value is within
    ``tol`` of the true minimum. A surrogate without positive curvature
    (the strongly convex learner before its first round) has no unique
    minimizer and raises ``ValueError``.
    """
    curvature = state.curvature
    if not curvature > 0.0:
        raise ValueError(f"surrogate needs a positive curvature, got {curvature!r}")
    domain = state.domain
    x0 = domain.anchor()
    g0 = state.gradient(x0)
    x = domain.project(x0 - g0 / curvature) if g0.any() else x0
    _certify(domain, state.gradient(x), x, tol)
    return x, state.value(x)


def offline_comparator(
    domain: FeasibleSet, rounds: Rounds, tol: float = DEFAULT_ORACLE_TOL
) -> tuple[np.ndarray, float]:
    """Best fixed feasible point in hindsight and its total loss.

    Linear rounds reduce to one oracle call on the summed gradient, which is
    exact. The total of quadratic rounds is minimized by the projection x of
    their mean target, whose Frank-Wolfe gap is certified to ``tol``
    (``ConvergenceError`` otherwise), and scored in closed form,
    0.5 * lam * (T ||x||^2 - 2 <S, x> + sum ||theta_t||^2) with S the target
    sum. The sums run over slices of ``BLOCK_ROWS`` rounds and equal the
    round-by-round sums bit for bit, so the total equals the harness's
    prefix comparator at T.
    """
    linear = rounds.kind == LINEAR
    row_sum, sq_sum = np.zeros(domain.dim), 0.0
    for s in range(0, len(rounds), BLOCK_ROWS):
        rows = rounds.data[s : s + BLOCK_ROWS]
        row_sum = prefix_sums(rows, row_sum)[-1]
        if not linear:
            sq_sum = prefix_sums(row_dots(rows, rows), sq_sum)[-1]
    if linear:
        x_star = domain.lmo(row_sum)
        return x_star, dot(row_sum, x_star)

    lam, n = rounds.lam, len(rounds)
    x = domain.project(row_sum / n)
    _certify(domain, lam * (n * x - row_sum), x, tol)
    return x, 0.5 * lam * (n * dot(x, x) - 2.0 * dot(row_sum, x) + float(sq_sum))
