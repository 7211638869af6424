"""Reference computations the learners are checked against.

Surrogate snapshots with exact value/gradient evaluation, a certified
surrogate minimizer, the offline comparator that regret is measured
against, and a brute-force line-search oracle. These routines are allowed
to project; the online learners never are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import dot
from .learners import (
    OFW_CURVATURE,
    BaselineState,
    OfwState,
    ScOfwState,
    ofw_gradient,
    scofw_gradient,
)
from .losses import LINEAR, QUADRATIC, LossRound
from .sets import FeasibleSet

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "ConvergenceError",
    "OfwSurrogate",
    "ScOfwSurrogate",
    "surrogate_of",
    "surrogate_argmin",
    "offline_comparator",
    "grid_line_search",
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
    if isinstance(state, BaselineState) and state.grad_sum is not None:
        return OfwSurrogate(state.domain, state.grad_sum, state.x1, state.eta)
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
    rounds: Sequence[LossRound],
    tol: float = DEFAULT_ORACLE_TOL,
) -> tuple[np.ndarray, float]:
    """Best fixed feasible point in hindsight and its total loss.

    Linear rounds reduce to one oracle call on the summed gradient, which
    is exact. The total of quadratic rounds is minimized by the projection
    of their mean target, whose Frank-Wolfe gap is certified to ``tol``
    (``ConvergenceError`` otherwise).
    """
    if len(rounds) == 0:
        raise ValueError("need at least one round")
    kinds = {r.kind for r in rounds}
    if len(kinds) > 1:
        raise ValueError(f"mixed loss kinds {sorted(kinds)!r}")
    kind = kinds.pop()

    if kind == LINEAR:
        total_grad = np.zeros(domain.dim)
        for r in rounds:
            total_grad = total_grad + r.gradient
        x_star = domain.lmo(total_grad)
        return x_star, dot(total_grad, x_star)

    if kind == QUADRATIC:
        lams = {r.lam for r in rounds}
        if len(lams) > 1:
            raise ValueError(f"mixed strong-convexity moduli {sorted(lams)!r}")
        lam = lams.pop()
        n = len(rounds)
        target_sum = np.zeros(domain.dim)
        for r in rounds:
            target_sum = target_sum + r.target
        x = domain.project(target_sum / n)
        _certify(domain, lam * (n * x - target_sum), x, tol)
        total = 0.0
        for r in rounds:
            total += r.value_at(x)
        return x, total

    raise ValueError(f"unknown loss kind {kind!r}")


def grid_line_search(a: float, b: float, grid_size: int) -> float:
    """Brute-force minimizer of sigma*a + sigma**2*b over a uniform grid.

    Test oracle for the closed-form line search; returns the best grid
    point in [0, 1].
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    sigma = np.linspace(0.0, 1.0, grid_size)
    values = a * sigma + b * sigma * sigma
    return float(sigma[int(np.argmin(values))])
