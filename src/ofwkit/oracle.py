"""Reference computations the learners are checked against.

Surrogate snapshots with exact value/gradient evaluation, a certified
surrogate minimizer, the offline comparator that regret is measured
against. These routines are allowed to project; the online learners never
are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BLOCK_ROWS, dot, prefix_sums, row_dots
from .learners import (
    OFW_CURVATURE,
    OfwState,
    ScOfwState,
    ofw_gradient,
    scofw_gradient,
)
from .losses import LINEAR, LossRound, Rounds, as_rounds
from .sets import FeasibleSet

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "ConvergenceError",
    "OfwSurrogate",
    "ScOfwSurrogate",
    "surrogate_of",
    "surrogate_argmin",
    "offline_comparator",
]

DEFAULT_ORACLE_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """A computed minimizer failed its Frank-Wolfe-gap certificate."""


@dataclass(frozen=True)
class OfwSurrogate:
    """Snapshot of F(x) = eta * <grad_sum, x> + ||x - x1||^2."""

    domain: FeasibleSet
    grad_sum: np.ndarray
    x1: np.ndarray
    eta: float

    curvature = OFW_CURVATURE

    def value(self, x: np.ndarray) -> float:
        d = x - self.x1
        return self.eta * dot(self.grad_sum, x) + dot(d, d)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return ofw_gradient(self.eta, self.grad_sum, self.x1, x)


@dataclass(frozen=True)
class ScOfwSurrogate:
    """Snapshot of F(x) = <grad_sum, x> + (lam/2) * sum_tau ||x - x_tau||^2.

    The sum over played iterates is carried by ``iterate_sum`` and
    ``iterate_sq_sum``, so evaluation never replays history. Defined for
    t >= 1 only; before the first gradient there is no curvature.
    """

    domain: FeasibleSet
    grad_sum: np.ndarray
    iterate_sum: np.ndarray
    iterate_sq_sum: float
    t: int
    lam: float

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"surrogate needs at least one round, got t={self.t}")
        if not (self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam!r}")

    def value(self, x: np.ndarray) -> float:
        quad = self.t * dot(x, x) - 2.0 * dot(self.iterate_sum, x) + self.iterate_sq_sum
        return dot(self.grad_sum, x) + 0.5 * self.lam * quad

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return scofw_gradient(self.lam, self.t, self.grad_sum, self.iterate_sum, x)

    @property
    def curvature(self) -> float:
        return self.lam * self.t


def surrogate_of(state) -> OfwSurrogate | ScOfwSurrogate | None:
    """The surrogate a learner state is currently minimizing, if any.

    Returns None where no surrogate is defined (OGD, or the strongly
    convex learner before its first round).
    """
    if isinstance(state, OfwState):
        return OfwSurrogate(state.domain, state.grad_sum, state.x1, state.eta)
    if isinstance(state, ScOfwState):
        if state.t < 1:
            return None
        return ScOfwSurrogate(
            state.domain,
            state.grad_sum,
            state.iterate_sum,
            state.iterate_sq_sum,
            state.t,
            state.lam,
        )
    return None


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


def surrogate_argmin(surrogate, tol: float = DEFAULT_ORACLE_TOL) -> tuple[np.ndarray, float]:
    """Minimize a surrogate in closed form and certify the answer to ``tol``.

    Both surrogates are isotropic quadratics, so from any point x0 their
    minimizer over the set is the projection of the free minimizer
    ``x0 - gradient(x0) / curvature``; x0 is the set's anchor, returned as
    is where the gradient vanishes there (projecting a feasible point onto
    the simplex can move it by rounding). The Frank-Wolfe gap at the
    result must be at most ``tol``, else ``ConvergenceError`` is raised, so
    the returned value is within ``tol`` of the true minimum.
    """
    domain = surrogate.domain
    x0 = domain.anchor()
    g0 = surrogate.gradient(x0)
    x = domain.project(x0 - g0 / surrogate.curvature) if g0.any() else x0
    _certify(domain, surrogate.gradient(x), x, tol)
    return x, surrogate.value(x)


def offline_comparator(
    domain: FeasibleSet,
    rounds: Rounds | Sequence[LossRound],
    tol: float = DEFAULT_ORACLE_TOL,
) -> tuple[np.ndarray, float]:
    """Best fixed feasible point in hindsight and its total loss.

    A sequence of ``LossRound`` objects goes through ``as_rounds``. Linear
    rounds reduce to one oracle call on the summed gradient, which is
    exact. The total of quadratic rounds is minimized by the projection of
    their mean target, whose Frank-Wolfe gap is certified to ``tol``
    (``ConvergenceError`` otherwise). Sums run over slices of
    ``BLOCK_ROWS`` rounds and equal the round-by-round sums bit for bit.
    """
    if not isinstance(rounds, Rounds):
        rounds = as_rounds(rounds, domain.dim)
    blocks = [rounds.data[s : s + BLOCK_ROWS] for s in range(0, len(rounds), BLOCK_ROWS)]
    # Each round's gradient or target added in round order to zeros.
    row_sum = np.zeros(domain.dim)
    for rows in blocks:
        row_sum = prefix_sums(rows, row_sum)[-1]

    if rounds.kind == LINEAR:
        x_star = domain.lmo(row_sum)
        return x_star, dot(row_sum, x_star)

    lam, n = rounds.lam, len(rounds)
    x = domain.project(row_sum / n)
    _certify(domain, lam * (n * x - row_sum), x, tol)
    # Each round's value_at(x), summed in round order.
    total = 0.0
    for rows in blocks:
        d = x - rows
        total = prefix_sums(0.5 * lam * row_dots(d, d), total)[-1]
    return x, float(total)
