"""Online learners driven one gradient at a time.

Two projection-free learners built on a linear minimization oracle:

* ``ofw``: online Frank-Wolfe with an exact line search against the
  anchored surrogate F_t(x) = eta * <sum of seen gradients, x>
  + ||x - x_1||^2, with eta fixed from the horizon.
* ``scofw``: a horizon-free variant for lam-strongly-convex losses, with
  surrogate F_t(x) = sum_tau [<g_tau, x> + (lam/2) * ||x - x_tau||^2].

Plus two baselines: ``ofw_decay``, the first learner's Frank-Wolfe step
with sigma_t = min(1, t^(-1/2)) in place of the line search and a heavier
eta, and projected online gradient descent.

Updates are pure: each consumes one gradient and returns a fresh state.
A gradient's finiteness is checked by the round's ``lmo`` or projection,
and first by ``as_vector`` only for input that needs converting or an OGD
step of 0.
States hold running sums only, so a step costs O(dim) regardless of t.
A state is a named tuple, a frozen snapshot: an update unpacks it once,
builds the next state in one call, shares the fields it leaves as they
are and never writes into an array an earlier state holds.
The states of the two Frank-Wolfe learners are their current surrogates:
each has ``value(x)``, ``gradient(x)`` and ``curvature``, the modulus of
the isotropic quadratic, which ``oracle.surrogate_argmin`` minimizes.
``surrogate_rows`` stacks the surrogates of a state and of the states
after it, one row each, for ``oracle.surrogate_gaps``.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .core import as_int, as_vector, line_search_quadratic, row_dots, running_sums
from .sets import FeasibleSet

__all__ = [
    "ZERO_STEP_TOL",
    "OfwState",
    "ScOfwState",
    "OgdState",
    "ofw_step_size_parameter",
    "ofw_decay_step_size_parameter",
    "ofw_gradient",
    "scofw_gradient",
    "ofw_values",
    "scofw_values",
    "ofw_init",
    "ofw_update",
    "scofw_init",
    "scofw_update",
    "ofw_decay_init",
    "ofw_decay_update",
    "ogd_init",
    "baseline_update",
]

# When the oracle vertex coincides with the iterate to this Euclidean
# distance, the step is skipped rather than fed to the line search.
ZERO_STEP_TOL = 1e-12

_FLOAT64 = np.dtype(np.float64)


def _gradient(g, dim: int) -> np.ndarray:
    """``g`` as is if it is a C-contiguous float64 ndarray of shape (dim,), left to
    the round's ``lmo`` or projection to refuse if not finite; else ``as_vector(g, dim)``."""
    if type(g) is np.ndarray and g.dtype is _FLOAT64 and g.shape == (dim,) and g.flags.c_contiguous:
        return g
    return as_vector(g, dim)


def ofw_gradient(eta: float, grad_sum: np.ndarray, x1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient at ``x`` of the surrogate eta * <grad_sum, x> + ||x - x1||^2.

    ``grad_sum`` may be an (n, dim) stack, and ``x`` a vector or such a
    stack; row i is then the gradient of the i-th surrogate.
    """
    # eta * grad_sum + 2 * (x - x1), summed in place to spare a temporary.
    out = eta * grad_sum
    d = x - x1
    d *= 2.0
    out += d
    return out


def scofw_gradient(
    lam: float, t: int, grad_sum: np.ndarray, iterate_sum: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Gradient at ``x`` of <grad_sum, x> + (lam/2) * sum_tau ||x - x_tau||^2.

    The sum runs over t iterates whose sum is ``iterate_sum``; the
    surrogate's curvature is lam * t. With ``t`` an (n, 1) column and the
    sums (n, dim) stacks, row i is the gradient of the i-th surrogate.
    """
    # grad_sum + lam * (t * x - iterate_sum), in one buffer.
    out = t * x
    out -= iterate_sum
    out *= lam
    out += grad_sum
    return out


def ofw_values(eta: float, grad_sum: np.ndarray, x1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Value at row i of ``x`` of the surrogate eta * <grad_sum[i], x> + ||x - x1||^2.

    ``grad_sum`` and ``x`` are (n, dim) arrays.
    """
    d = x - x1
    return eta * row_dots(grad_sum, x) + row_dots(d, d)


def scofw_values(lam: float, t, grad_sum, iterate_sum, iterate_sq_sum, x) -> np.ndarray:
    """Value at row i of ``x`` of <grad_sum[i], x> + (lam/2) * sum_tau ||x - x_tau||^2.

    Row i's sum runs over ``t[i]`` iterates, of sum ``iterate_sum[i]`` and
    squared norms summing to ``iterate_sq_sum[i]``. ``grad_sum``,
    ``iterate_sum`` and ``x`` are (n, dim) arrays, ``t`` and
    ``iterate_sq_sum`` have n entries.
    """
    quad = t * row_dots(x, x) - 2.0 * row_dots(iterate_sum, x) + iterate_sq_sum
    return row_dots(grad_sum, x) + 0.5 * lam * quad


def _fw_step(domain: FeasibleSet, x, grad_f, curvature, sigma) -> np.ndarray:
    """One Frank-Wolfe step: ``x + sigma * (v - x)`` with v = lmo(grad_f).

    A ``sigma`` that is not None is taken as is. Otherwise sigma is the
    exact line search on the surrogate, whose model along d = v - x is
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
    # x + sigma * d in d's buffer: the same products and sums, commuted.
    d *= sigma
    d += x
    return d


class OfwState(NamedTuple):
    """State after absorbing t gradients; ``x`` is the next play.

    Both learners on the anchored surrogate hold it: ``ofw_ls`` and the
    ``ofw_decay`` baseline, which differ only in eta and the step size.
    The state is that surrogate, F(x) = eta * <grad_sum, x> + ||x - x1||^2.
    """

    domain: FeasibleSet
    x: np.ndarray
    x1: np.ndarray
    grad_sum: np.ndarray
    t: int
    eta: float
    horizon: int

    # The Hessian of ||x - x1||^2 is 2I.
    curvature = 2.0

    def value(self, x: np.ndarray) -> float:
        return float(ofw_values(self.eta, self.grad_sum[None], self.x1, x[None])[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return ofw_gradient(self.eta, self.grad_sum, self.x1, x)

    def surrogate_rows(self, xs: np.ndarray, gs: np.ndarray):
        """The surrogates of this state and of the n states after it, had the
        learner played the rows of ``xs`` and seen those of ``gs``, (n, dim)
        arrays: their curvatures, and their row-wise gradient and value
        maps, row k for the k-th state after this one."""
        grad_sum = running_sums(gs, self.grad_sum)
        return (
            np.full(len(grad_sum), self.curvature),
            partial(ofw_gradient, self.eta, grad_sum, self.x1),
            partial(ofw_values, self.eta, grad_sum, self.x1),
        )


def ofw_step_size_parameter(diameter: float, G: float, horizon: int) -> float:
    """Surrogate weight eta = D / (2 G (T+2)^(2/3))."""
    return diameter / (2.0 * G * (horizon + 2.0) ** (2.0 / 3.0))


def ofw_decay_step_size_parameter(diameter: float, G: float, horizon: int) -> float:
    """The decaying-step baseline's heavier weight eta = D / (2 G T^(3/4))."""
    return diameter / (2.0 * G * horizon**0.75)


def _anchored_state(domain: FeasibleSet, horizon: int, G: float, step_size_parameter) -> OfwState:
    horizon = as_int(horizon, "horizon", 1)
    if not (G > 0.0):
        raise ValueError(f"G must be positive, got {G!r}")
    # An eta that underflows to 0 leaves the learner still.
    eta = step_size_parameter(domain.diameter, G, horizon)
    if not (0.0 < eta < np.inf):
        raise ValueError(f"eta = {eta!r} is not finite and positive")
    x1 = domain.anchor()
    return OfwState(
        domain=domain,
        x=x1.copy(),
        x1=x1,
        grad_sum=np.zeros(domain.dim),
        t=0,
        eta=eta,
        horizon=horizon,
    )


def ofw_init(domain: FeasibleSet, horizon: int, G: float) -> OfwState:
    """Fresh learner anchored at ``domain.anchor()``.

    ``horizon`` is the number of rounds the run will last; it sets eta and
    bounds how many updates the state will accept. ``G`` must be a valid
    Lipschitz constant for the incoming gradients.
    """
    return _anchored_state(domain, horizon, G, ofw_step_size_parameter)


def ofw_decay_init(domain: FeasibleSet, horizon: int, G: float) -> OfwState:
    """Fresh decaying-step baseline: ``ofw_init`` with the heavier weight
    from ``ofw_decay_step_size_parameter``, which suits the fixed step
    schedule of ``ofw_decay_update``."""
    return _anchored_state(domain, horizon, G, ofw_decay_step_size_parameter)


def _ofw_advance(state: OfwState, g, sigma) -> OfwState:
    """Absorb the round-(t+1) gradient and take one Frank-Wolfe step on the
    anchored surrogate, of size ``sigma`` or, if None, the line search's."""
    domain, x, x1, grad_sum, t, eta, horizon = state
    if t >= horizon:
        as_vector(g, domain.dim)  # a bad gradient is named first
        raise ValueError(f"horizon {horizon} exhausted")
    grad_sum = grad_sum + _gradient(g, domain.dim)
    x_next = _fw_step(domain, x, ofw_gradient(eta, grad_sum, x1, x), OfwState.curvature, sigma)
    return OfwState(domain, x_next, x1, grad_sum, t + 1, eta, horizon)


def ofw_update(state: OfwState, g) -> OfwState:
    """Absorb the round-(t+1) gradient, which ``lmo`` checks, and step toward its vertex."""
    return _ofw_advance(state, g, None)


def ofw_decay_update(state: OfwState, g) -> OfwState:
    """``ofw_update`` with the step sigma_t = min(1, t^(-1/2)) in place of the
    line search; ``lmo`` checks the gradient there too."""
    return _ofw_advance(state, g, min(1.0, (state.t + 1) ** -0.5))


class ScOfwState(NamedTuple):
    """State of the strongly-convex variant after absorbing t gradients.

    The state is the surrogate
    F(x) = <grad_sum, x> + (lam/2) * sum_tau ||x - x_tau||^2. Its sum over
    played iterates is carried by ``iterate_sum`` and ``iterate_sq_sum``
    (sum x_tau and sum ||x_tau||^2), so evaluation never replays history
    and stays O(dim). Before the first round its curvature is 0.
    """

    domain: FeasibleSet
    x: np.ndarray
    grad_sum: np.ndarray
    iterate_sum: np.ndarray
    iterate_sq_sum: float
    t: int
    lam: float

    @property
    def curvature(self) -> float:
        return self.lam * self.t

    def value(self, x: np.ndarray) -> float:
        return float(
            scofw_values(
                self.lam, self.t, self.grad_sum[None], self.iterate_sum[None],
                self.iterate_sq_sum, x[None],
            )[0]
        )

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return scofw_gradient(self.lam, self.t, self.grad_sum, self.iterate_sum, x)

    def surrogate_rows(self, xs: np.ndarray, gs: np.ndarray):
        """``OfwState.surrogate_rows`` for this surrogate, whose sums over
        iterates take in the rows of ``xs``."""
        t = np.arange(self.t, self.t + len(xs) + 1, dtype=float)
        grad_sum = running_sums(gs, self.grad_sum)
        iterate_sum = running_sums(xs, self.iterate_sum)
        iterate_sq_sum = running_sums(row_dots(xs, xs), self.iterate_sq_sum)
        return (
            self.lam * t,
            partial(scofw_gradient, self.lam, t[:, None], grad_sum, iterate_sum),
            partial(scofw_values, self.lam, t, grad_sum, iterate_sum, iterate_sq_sum),
        )


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
    """Absorb one gradient, which ``lmo`` checks; curvature grows with t, no horizon."""
    domain, x, grad_sum, iterate_sum, iterate_sq_sum, t, lam = state
    grad_sum = grad_sum + _gradient(g, domain.dim)
    t += 1
    iterate_sum = iterate_sum + x
    iterate_sq_sum += float(x.dot(x))
    x_next = _fw_step(domain, x, scofw_gradient(lam, t, grad_sum, iterate_sum, x), lam * t, None)
    return ScOfwState(domain, x_next, grad_sum, iterate_sum, iterate_sq_sum, t, lam)


class OgdState(NamedTuple):
    """Projected online gradient descent after absorbing t gradients."""

    domain: FeasibleSet
    x: np.ndarray
    t: int
    G: float
    lam: float


def ogd_init(domain: FeasibleSet, G: float, lam: float = 0.0) -> OgdState:
    """Projected online gradient descent.

    Step size D / (G sqrt(t)) for convex losses, 1 / (lam t) when a
    positive modulus is declared.
    """
    if not (G > 0.0):
        raise ValueError(f"G must be positive, got {G!r}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    return OgdState(domain=domain, x=domain.anchor(), t=0, G=G, lam=lam)


def baseline_update(state: OgdState, g) -> OgdState:
    """One projected OGD step; the projection checks the gradient, or
    ``as_vector`` when the step is 0."""
    domain, x, t, G, lam = state
    g = _gradient(g, domain.dim)
    t += 1
    if lam > 0.0:
        step = 1.0 / (lam * t)
    else:
        step = domain.diameter / (G * t**0.5)
    if step == 0.0:  # 0.0 * inf is NaN, with a warning
        as_vector(g, domain.dim)
    return OgdState(domain, domain.project(x - step * g), t, G, lam)
