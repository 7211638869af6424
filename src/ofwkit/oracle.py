"""Reference computations the learners are checked against.

A certified minimizer of a learner's surrogate, which the learner's state
is (see ``learners``), and the offline comparator: every prefix's best
fixed total of a ``losses.Rounds``, which regret is measured against.
These routines are allowed to project; the online learners never are.
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


def offline_comparator(domain: FeasibleSet, rounds: Rounds) -> tuple[np.ndarray, np.ndarray]:
    """Best fixed feasible point in hindsight, and each prefix's best total.

    Returns ``(x_star, totals)``, ``totals[t - 1]`` the least total loss of
    one feasible point over rounds 1..t. Linear rounds: the lmo of the
    gradient prefix sum, scored against it. Quadratic rounds: the
    projection of the mean target, scored in closed form from the target
    sums; the Frank-Wolfe gap of ``x_star`` is certified (``ConvergenceError``
    otherwise). Worked ``BLOCK_ROWS`` rounds at a time with the row-wise
    oracles, each entry equal bit for bit to a round-by-round loop. No
    rounds, or rounds of another dim than the set's, raise ``ValueError``.
    """
    if not len(rounds) or rounds.data.shape[1] != domain.dim:
        raise ValueError(f"expected rounds of dim {domain.dim}, got shape {rounds.data.shape}")
    totals = np.empty(len(rounds))
    row_sum, sq_sum = np.zeros(domain.dim), 0.0
    for start in range(0, len(rounds), BLOCK_ROWS):
        rows = rounds.data[start : start + BLOCK_ROWS]
        block = slice(start, start + len(rows))
        prefix = prefix_sums(rows, row_sum)
        row_sum = prefix[-1]
        if rounds.kind == LINEAR:
            x = domain.lmo_rows(prefix)
            totals[block] = row_dots(prefix, x)
            continue
        ts = np.arange(start + 1, block.stop + 1, dtype=float)
        sq_prefix = prefix_sums(row_dots(rows, rows), sq_sum)
        sq_sum = sq_prefix[-1]
        x = domain.project_rows(prefix / ts[:, None])
        totals[block] = (
            0.5 * rounds.lam * (ts * row_dots(x, x) - 2.0 * row_dots(prefix, x) + sq_prefix)
        )
    x_star = x[-1].copy()
    if rounds.kind != LINEAR:
        _certify(domain, rounds.lam * (len(rounds) * x_star - row_sum), x_star, DEFAULT_ORACLE_TOL)
    return x_star, totals
