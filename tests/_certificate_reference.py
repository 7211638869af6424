"""Reference certificate and learner dispatch for tests: one branch per algorithm.

This is ``certificate`` and ``_init_learner`` as they were before each
algorithm's weight, loss rule, gap rule, ceilings and learner came from
the harness's ``_ALGORITHMS`` table, kept, with the helper they called,
as the oracle that the table must agree with: for every spec both give
the same ``Certificate`` fields bit for bit, equal first states and the
same update function.
"""

import math
from functools import partial

import numpy as np

from ofwkit.harness import (
    ALGO_OFW_DECAY,
    ALGO_OFW_LS,
    ALGO_SC_OFW,
    Certificate,
    ExperimentSpec,
)
from ofwkit.learners import (
    baseline_update,
    ofw_decay_init,
    ofw_decay_step_size_parameter,
    ofw_decay_update,
    ofw_init,
    ofw_step_size_parameter,
    ofw_update,
    ogd_init,
    scofw_init,
    scofw_update,
)
from ofwkit.losses import certify_constants


def _ratio(num: float, den: float) -> float:
    """``num / den`` for den >= 0; inf where den underflowed to zero."""
    return num / den if den > 0.0 else math.inf


def certificate(spec: ExperimentSpec) -> Certificate:
    G, lam = certify_constants(spec.loss, spec.domain)
    D, alpha = spec.domain.diameter, spec.domain.strong_convexity
    eta = None
    if spec.algo == ALGO_OFW_LS and G > 0.0:
        eta = ofw_step_size_parameter(D, G, spec.horizon)
    elif spec.algo == ALGO_OFW_DECAY and G > 0.0:
        eta = ofw_decay_step_size_parameter(D, G, spec.horizon)
    make = partial(Certificate, G, lam, D, alpha, eta)
    if spec.algo == ALGO_OFW_LS and alpha > 0.0:
        C = max(4.0 * D * D, _ratio(4096.0, 3.0 * alpha * alpha))
        return make(
            C,
            lambda ts: 2.75 * G * math.sqrt(C) * (ts + 2.0) ** (2.0 / 3.0),
            lambda t: C / (t + 2.0) ** (2.0 / 3.0) if t >= 1 else None,
        )
    if spec.algo == ALGO_SC_OFW:
        gd = G + lam * D
        if alpha > 0.0:
            C = max(4.0 * gd * gd / lam, _ratio(288.0 * lam, alpha * alpha))
            return make(
                C,
                lambda ts: C * np.sqrt(2.0 * ts) + 0.5 * C * np.log(ts) + G * D,
                lambda t: C if t >= 2 else None,
            )
        C = 16.0 * gd * gd / lam
        return make(
            C,
            lambda ts: (
                3.0 * math.sqrt(2.0) / 8.0 * C * ts ** (2.0 / 3.0)
                + C * np.log(ts) / 8.0
                + G * D
            ),
            lambda t: C * (t - 1.0) ** (1.0 / 3.0) if t >= 2 else None,
        )
    return make(None, lambda ts: np.full(ts.shape, np.nan), lambda t: None)


def _init_learner(spec: ExperimentSpec, G: float, lam: float):
    if spec.algo == ALGO_OFW_LS:
        return ofw_init(spec.domain, spec.horizon, G), ofw_update
    if spec.algo == ALGO_SC_OFW:
        return scofw_init(spec.domain, lam), scofw_update
    if spec.algo == ALGO_OFW_DECAY:
        return ofw_decay_init(spec.domain, spec.horizon, G), ofw_decay_update
    return ogd_init(spec.domain, G, lam), baseline_update
