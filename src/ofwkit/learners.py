"""Online learners driven one gradient at a time.

Two projection-free learners built on a linear minimization oracle:

* ``ofw``: online Frank-Wolfe with an exact line search against the
  anchored surrogate F_t(x) = eta * <sum of seen gradients, x>
  + ||x - x_1||^2, with eta fixed from the horizon.
* ``scofw``: a horizon-free variant for lam-strongly-convex losses, with
  surrogate F_t(x) = sum_tau [<g_tau, x> + (lam/2) * ||x - x_tau||^2].

Plus two baselines: Frank-Wolfe with the decaying step sigma_t = t^(-1/2)
(no line search) and projected online gradient descent.

Updates are pure: each consumes one gradient and returns a fresh state.
States hold running sums only, so a step costs O(dim) regardless of t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import as_vector, line_search_quadratic
from .sets import FeasibleSet

__all__ = [
    "ZERO_STEP_TOL",
    "OFW_DECAY",
    "OGD",
    "OfwState",
    "ScOfwState",
    "BaselineState",
    "OFW_CURVATURE",
    "ofw_step_size_parameter",
    "ofw_decay_step_size_parameter",
    "ofw_gradient",
    "scofw_gradient",
    "ofw_init",
    "ofw_update",
    "scofw_init",
    "scofw_update",
    "ofw_decay_init",
    "ogd_init",
    "baseline_update",
]

# When the oracle vertex coincides with the iterate to this Euclidean
# distance, the step is skipped rather than fed to the line search.
ZERO_STEP_TOL = 1e-12

OFW_DECAY = "ofw_decay"
OGD = "ogd"

# Curvature of the anchored surrogate: the Hessian of ||x - x1||^2 is 2I.
OFW_CURVATURE = 2.0


def ofw_gradient(eta: float, grad_sum: np.ndarray, x1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient at ``x`` of the surrogate eta * <grad_sum, x> + ||x - x1||^2."""
    return eta * grad_sum + 2.0 * (x - x1)


def scofw_gradient(
    lam: float, t: int, grad_sum: np.ndarray, iterate_sum: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Gradient at ``x`` of <grad_sum, x> + (lam/2) * sum_tau ||x - x_tau||^2.

    The sum runs over t iterates whose sum is ``iterate_sum``; the
    surrogate's curvature is lam * t.
    """
    return grad_sum + lam * (t * x - iterate_sum)


def _fw_step(domain: FeasibleSet, x, grad_f, *, curvature=None, sigma=None) -> np.ndarray:
    """One Frank-Wolfe step: ``x + sigma * (v - x)`` with v = lmo(grad_f).

    A given ``sigma`` is taken as is. Otherwise sigma is the exact line
    search on the surrogate, whose model along d = v - x is
    sigma * <grad_f, d> + sigma^2 * (curvature / 2) * ||d||^2; a step
    shorter than ``ZERO_STEP_TOL`` is skipped.
    """
    v = domain.lmo(grad_f)
    d = v - x
    if sigma is None:
        dd = float(d.dot(d))
        if dd <= ZERO_STEP_TOL**2:
            return x
        sigma = line_search_quadratic(float(grad_f.dot(d)), 0.5 * curvature * dd)
    return x + sigma * d


@dataclass(frozen=True)
class OfwState:
    """State after absorbing t gradients; ``x`` is the next play."""

    domain: FeasibleSet
    x: np.ndarray
    x1: np.ndarray
    grad_sum: np.ndarray
    t: int
    eta: float
    horizon: int


def ofw_step_size_parameter(diameter: float, G: float, horizon: int) -> float:
    """Surrogate weight eta = D / (2 G (T+2)^(2/3))."""
    return diameter / (2.0 * G * (horizon + 2.0) ** (2.0 / 3.0))


def ofw_decay_step_size_parameter(diameter: float, G: float, horizon: int) -> float:
    """The decaying-step baseline's heavier weight eta = D / (2 G T^(3/4))."""
    return diameter / (2.0 * G * horizon**0.75)


def ofw_init(domain: FeasibleSet, horizon: int, G: float) -> OfwState:
    """Fresh learner anchored at ``domain.anchor()``.

    ``horizon`` is the number of rounds the run will last; it sets eta and
    bounds how many updates the state will accept. ``G`` must be a valid
    Lipschitz constant for the incoming gradients.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    if not (G > 0.0):
        raise ValueError(f"G must be positive, got {G!r}")
    x1 = domain.anchor()
    eta = ofw_step_size_parameter(domain.diameter, G, horizon)
    return OfwState(
        domain=domain,
        x=x1.copy(),
        x1=x1,
        grad_sum=np.zeros(domain.dim),
        t=0,
        eta=eta,
        horizon=horizon,
    )


def ofw_update(state: OfwState, g) -> OfwState:
    """Absorb the round-(t+1) gradient and move along the oracle direction."""
    g = as_vector(g, state.domain.dim)
    if state.t >= state.horizon:
        raise ValueError(f"horizon {state.horizon} exhausted")
    grad_sum = state.grad_sum + g
    grad_f = ofw_gradient(state.eta, grad_sum, state.x1, state.x)
    x_next = _fw_step(state.domain, state.x, grad_f, curvature=OFW_CURVATURE)
    return replace(state, x=x_next, grad_sum=grad_sum, t=state.t + 1)


@dataclass(frozen=True)
class ScOfwState:
    """State of the strongly-convex variant after absorbing t gradients.

    ``iterate_sum`` and ``iterate_sq_sum`` carry sum x_tau and
    sum ||x_tau||^2 so surrogate gradients and values stay O(dim).
    """

    domain: FeasibleSet
    x: np.ndarray
    grad_sum: np.ndarray
    iterate_sum: np.ndarray
    iterate_sq_sum: float
    t: int
    lam: float


def scofw_init(domain: FeasibleSet, lam: float) -> ScOfwState:
    """Fresh horizon-free learner; ``lam`` is the losses' modulus."""
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")
    x1 = domain.anchor()
    return ScOfwState(
        domain=domain,
        x=x1,
        grad_sum=np.zeros(domain.dim),
        iterate_sum=np.zeros(domain.dim),
        iterate_sq_sum=0.0,
        t=0,
        lam=lam,
    )


def scofw_update(state: ScOfwState, g) -> ScOfwState:
    """Absorb one gradient; curvature grows with t, no horizon needed."""
    g = as_vector(g, state.domain.dim)
    t = state.t + 1
    grad_sum = state.grad_sum + g
    iterate_sum = state.iterate_sum + state.x
    iterate_sq_sum = state.iterate_sq_sum + float(state.x.dot(state.x))
    grad_f = scofw_gradient(state.lam, t, grad_sum, iterate_sum, state.x)
    x_next = _fw_step(state.domain, state.x, grad_f, curvature=state.lam * t)
    return ScOfwState(
        domain=state.domain,
        x=x_next,
        grad_sum=grad_sum,
        iterate_sum=iterate_sum,
        iterate_sq_sum=iterate_sq_sum,
        t=t,
        lam=state.lam,
    )


@dataclass(frozen=True)
class BaselineState:
    """State for the decaying-step Frank-Wolfe and projected OGD baselines."""

    variant: str
    domain: FeasibleSet
    x: np.ndarray
    t: int
    grad_sum: np.ndarray | None = None
    x1: np.ndarray | None = None
    eta: float = 0.0
    G: float = 0.0
    lam: float = 0.0


def ofw_decay_init(domain: FeasibleSet, horizon: int, G: float) -> BaselineState:
    """Frank-Wolfe on the anchored surrogate with sigma_t = min(1, t^(-1/2)).

    Uses the heavier weight from ``ofw_decay_step_size_parameter``, which
    suits the fixed step schedule.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    if not (G > 0.0):
        raise ValueError(f"G must be positive, got {G!r}")
    x1 = domain.anchor()
    eta = ofw_decay_step_size_parameter(domain.diameter, G, horizon)
    return BaselineState(
        variant=OFW_DECAY,
        domain=domain,
        x=x1.copy(),
        t=0,
        grad_sum=np.zeros(domain.dim),
        x1=x1,
        eta=eta,
        G=G,
    )


def ogd_init(domain: FeasibleSet, G: float, lam: float = 0.0) -> BaselineState:
    """Projected online gradient descent.

    Step size D / (G sqrt(t)) for convex losses, 1 / (lam t) when a
    positive modulus is declared.
    """
    if not (G > 0.0):
        raise ValueError(f"G must be positive, got {G!r}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    return BaselineState(
        variant=OGD, domain=domain, x=domain.anchor(), t=0, G=G, lam=lam
    )


def baseline_update(state: BaselineState, g) -> BaselineState:
    """One step of whichever baseline ``state`` holds."""
    g = as_vector(g, state.domain.dim)
    t = state.t + 1
    if state.variant == OFW_DECAY:
        grad_sum = state.grad_sum + g
        grad_f = ofw_gradient(state.eta, grad_sum, state.x1, state.x)
        x_next = _fw_step(state.domain, state.x, grad_f, sigma=min(1.0, t**-0.5))
        return replace(state, x=x_next, t=t, grad_sum=grad_sum)
    if state.variant == OGD:
        if state.lam > 0.0:
            step = 1.0 / (state.lam * t)
        else:
            step = state.domain.diameter / (state.G * t**0.5)
        return replace(state, x=state.domain.project(state.x - step * g), t=t)
    raise ValueError(f"unknown baseline variant {state.variant!r}")
