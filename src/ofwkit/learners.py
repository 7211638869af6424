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

from dataclasses import dataclass

import numpy as np

from .core import StepCoefficients, as_vector, line_search_quadratic
from .sets import FeasibleSet

__all__ = [
    "ZERO_STEP_TOL",
    "OFW_DECAY",
    "OGD",
    "OfwState",
    "ScOfwState",
    "BaselineState",
    "ofw_step_size_parameter",
    "ofw_init",
    "ofw_update",
    "ofw_surrogate_gradient",
    "scofw_init",
    "scofw_update",
    "scofw_surrogate_gradient",
    "ofw_decay_init",
    "ogd_init",
    "baseline_update",
]

# When the oracle vertex coincides with the iterate to this Euclidean
# distance, the step is skipped rather than fed to the line search.
ZERO_STEP_TOL = 1e-12

OFW_DECAY = "ofw_decay"
OGD = "ogd"


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


def ofw_surrogate_gradient(state: OfwState, x: np.ndarray) -> np.ndarray:
    """Gradient of the current surrogate at ``x``."""
    return state.eta * state.grad_sum + 2.0 * (x - state.x1)


def ofw_update(state: OfwState, g) -> OfwState:
    """Absorb the round-(t+1) gradient and move along the oracle direction."""
    g = as_vector(g, state.domain.dim)
    if state.t >= state.horizon:
        raise ValueError(f"horizon {state.horizon} exhausted")
    grad_sum = state.grad_sum + g
    grad_f = state.eta * grad_sum + 2.0 * (state.x - state.x1)
    v = state.domain.lmo(grad_f)
    d = v - state.x
    b = float(d.dot(d))
    if b <= ZERO_STEP_TOL**2:
        x_next = state.x
    else:
        sigma = line_search_quadratic(StepCoefficients(a=float(grad_f.dot(d)), b=b))
        x_next = state.x + sigma * d
    return OfwState(
        domain=state.domain,
        x=x_next,
        x1=state.x1,
        grad_sum=grad_sum,
        t=state.t + 1,
        eta=state.eta,
        horizon=state.horizon,
    )


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


def scofw_surrogate_gradient(state: ScOfwState, x: np.ndarray) -> np.ndarray:
    """Gradient of the current surrogate at ``x`` (defined once t >= 1)."""
    return state.grad_sum + state.lam * (state.t * x - state.iterate_sum)


def scofw_update(state: ScOfwState, g) -> ScOfwState:
    """Absorb one gradient; curvature grows with t, no horizon needed."""
    g = as_vector(g, state.domain.dim)
    t = state.t + 1
    grad_sum = state.grad_sum + g
    iterate_sum = state.iterate_sum + state.x
    iterate_sq_sum = state.iterate_sq_sum + float(state.x.dot(state.x))
    grad_f = grad_sum + state.lam * (t * state.x - iterate_sum)
    v = state.domain.lmo(grad_f)
    d = v - state.x
    dd = float(d.dot(d))
    if dd <= ZERO_STEP_TOL**2:
        x_next = state.x
    else:
        sigma = line_search_quadratic(
            StepCoefficients(a=float(grad_f.dot(d)), b=0.5 * state.lam * t * dd)
        )
        x_next = state.x + sigma * d
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

    Uses the heavier weight eta = D / (2 G T^(3/4)) that suits the fixed
    step schedule.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    if not (G > 0.0):
        raise ValueError(f"G must be positive, got {G!r}")
    x1 = domain.anchor()
    eta = domain.diameter / (2.0 * G * horizon**0.75)
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
        grad_f = state.eta * grad_sum + 2.0 * (state.x - state.x1)
        v = state.domain.lmo(grad_f)
        sigma = min(1.0, t**-0.5)
        x_next = state.x + sigma * (v - state.x)
        return BaselineState(
            variant=state.variant,
            domain=state.domain,
            x=x_next,
            t=t,
            grad_sum=grad_sum,
            x1=state.x1,
            eta=state.eta,
            G=state.G,
        )
    if state.variant == OGD:
        if state.lam > 0.0:
            step = 1.0 / (state.lam * t)
        else:
            step = state.domain.diameter / (state.G * t**0.5)
        x_next = state.domain.project(state.x - step * g)
        return BaselineState(
            variant=state.variant,
            domain=state.domain,
            x=x_next,
            t=t,
            G=state.G,
            lam=state.lam,
        )
    raise ValueError(f"unknown baseline variant {state.variant!r}")
