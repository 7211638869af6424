"""Reference surrogate gaps for tests: the round-by-round gap loop.

This is the loop ``run_experiment`` ran before it measured gaps a block
of rounds at a time: one certified minimization of the learner's
surrogate per measured round, with the per-vector oracles and the
per-vector surrogate values. It is kept, with the minimizer and the
values it called, as the oracle that the block version must equal bit
for bit.
"""

import numpy as np
from _helpers import loss_at, seeded_rounds

from ofwkit.core import dot
from ofwkit.harness import ALGO_OGD, _init_learner, certificate
from ofwkit.learners import OfwState
from ofwkit.oracle import DEFAULT_ORACLE_TOL, ConvergenceError


def value(state, x):
    """The learner state's surrogate at ``x``, from per-vector dots."""
    if isinstance(state, OfwState):
        d = x - state.x1
        return state.eta * dot(state.grad_sum, x) + dot(d, d)
    quad = state.t * dot(x, x) - 2.0 * dot(state.iterate_sum, x) + state.iterate_sq_sum
    return dot(state.grad_sum, x) + 0.5 * state.lam * quad


def _certify(domain, grad, x, tol):
    gap = dot(grad, x - domain.lmo(grad))
    if not gap <= tol:
        raise ConvergenceError(
            f"minimizer failed its certificate: Frank-Wolfe gap {gap!r} > {tol!r}"
        )


def surrogate_argmin(state, tol=DEFAULT_ORACLE_TOL):
    """The surrogate's certified minimizer and minimum, one state at a time."""
    curvature = state.curvature
    if not curvature > 0.0:
        raise ValueError(f"surrogate needs a positive curvature, got {curvature!r}")
    domain = state.domain
    x0 = domain.anchor()
    g0 = state.gradient(x0)
    x = domain.project(x0 - g0 / curvature) if g0.any() else x0
    _certify(domain, state.gradient(x), x, tol)
    return x, value(state, x)


def gap_columns(spec):
    """The ``gap`` and ``gap_bound`` columns of a run of ``spec``, measured
    round by round before each update."""
    cert = certificate(spec)
    T = spec.horizon
    state, update = _init_learner(spec, cert.G, cert.lam)
    gap_v = np.full(T, np.nan)
    gapb_v = np.full(T, np.nan)
    rounds = seeded_rounds(spec.loss, T, spec.domain)
    measure_until = spec.gap_cap if spec.gap_check and spec.algo != ALGO_OGD else 0
    kind, lam = rounds.kind, rounds.lam
    for i, row in enumerate(rounds.data):
        x_t = state.x
        if i < measure_until and state.curvature > 0.0:
            _, best = surrogate_argmin(state)
            gap_v[i] = value(state, x_t) - best
            gb = cert.gap(i + 1)
            if gb is not None:
                gapb_v[i] = gb
        _, g_t = loss_at(kind, lam, row, x_t)
        state = update(state, g_t)
    return gap_v, gapb_v
