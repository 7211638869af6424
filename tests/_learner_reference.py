"""Reference learner updates for tests: each update as a plain dataclass build.

These are the update bodies the learners ran before their rounds were made
lean: the linear oracle checked its gradient with ``as_vector`` and then
took ``l2_norm`` of it, ``LpBall``'s oracle built a new array per step, a
Frank-Wolfe step formed ``x + sigma * d`` out of place, and each update
built its next state with the frozen dataclass's ``__init__``. They are
kept as the per-round oracle that the updates must equal bit for bit.
"""

import numpy as np

from ofwkit.core import as_vector, l2_norm, line_search_quadratic, lp_norm
from ofwkit.learners import (
    ZERO_STEP_TOL,
    OfwState,
    OgdState,
    ScOfwState,
    ofw_gradient,
    scofw_gradient,
)
from ofwkit.sets import LpBall, is_tie


def lmo(domain, g):
    """``domain.lmo(g)``: the check, then the norm, each with its own dot product."""
    g = as_vector(g, domain.dim)
    norm = l2_norm(g)
    if is_tie(norm):
        return domain.anchor()
    if isinstance(domain, LpBall):
        q = domain.p / (domain.p - 1.0)
        a = np.abs(g)
        u = a / float(a.max())
        w = u ** (q - 1.0)
        w /= lp_norm(w, domain.p)
        return -domain.radius * np.sign(g) * w
    return domain._lmo(g, norm)


def fw_step(domain, x, grad_f, *, curvature=None, sigma=None):
    v = lmo(domain, grad_f)
    d = v - x
    if sigma is None:
        dd = float(d.dot(d))
        if dd <= ZERO_STEP_TOL**2:
            return x
        sigma = line_search_quadratic(float(grad_f.dot(d)), 0.5 * curvature * dd)
    return x + sigma * d


def ofw_advance(state, g, sigma):
    g = as_vector(g, state.domain.dim)
    if state.t >= state.horizon:
        raise ValueError(f"horizon {state.horizon} exhausted")
    grad_sum = state.grad_sum + g
    grad_f = ofw_gradient(state.eta, grad_sum, state.x1, state.x)
    x_next = fw_step(state.domain, state.x, grad_f, curvature=state.curvature, sigma=sigma)
    return OfwState(
        domain=state.domain,
        x=x_next,
        x1=state.x1,
        grad_sum=grad_sum,
        t=state.t + 1,
        eta=state.eta,
        horizon=state.horizon,
    )


def ofw_update(state, g):
    return ofw_advance(state, g, None)


def ofw_decay_update(state, g):
    return ofw_advance(state, g, min(1.0, (state.t + 1) ** -0.5))


def scofw_update(state, g):
    g = as_vector(g, state.domain.dim)
    t = state.t + 1
    grad_sum = state.grad_sum + g
    iterate_sum = state.iterate_sum + state.x
    iterate_sq_sum = state.iterate_sq_sum + float(state.x.dot(state.x))
    grad_f = scofw_gradient(state.lam, t, grad_sum, iterate_sum, state.x)
    x_next = fw_step(state.domain, state.x, grad_f, curvature=state.lam * t)
    return ScOfwState(
        domain=state.domain,
        x=x_next,
        grad_sum=grad_sum,
        iterate_sum=iterate_sum,
        iterate_sq_sum=iterate_sq_sum,
        t=t,
        lam=state.lam,
    )


def baseline_update(state, g):
    g = as_vector(g, state.domain.dim)
    t = state.t + 1
    if state.lam > 0.0:
        step = 1.0 / (state.lam * t)
    else:
        step = state.domain.diameter / (state.G * t**0.5)
    return OgdState(
        domain=state.domain,
        x=state.domain.project(state.x - step * g),
        t=t,
        G=state.G,
        lam=state.lam,
    )
