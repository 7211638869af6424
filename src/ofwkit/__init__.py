"""Projection-free online convex optimization over structured feasible sets.

Learners that touch the feasible set only through a linear minimization
oracle: online Frank-Wolfe with an exact line search, whose regret is
O(T^(2/3)) on strongly convex sets, and a horizon-free variant for
strongly convex losses with O(sqrt(T)) regret on strongly convex sets and
O(T^(2/3) log T) on general sets. The harness replays seeded adversaries,
measures regret against the exact hindsight comparator, and checks the
a priori bounds and per-round surrogate gap schedules.
"""

from .core import dot, line_search_quadratic, lp_norm
from .harness import (
    ConfigError,
    ExperimentSpec,
    RegretTrace,
    SweepResult,
    emit_csv,
    loglog_slope,
    parse_config,
    run_experiment,
    sweep,
    sweep_csv,
)
from .learners import (
    OfwState,
    OgdState,
    ScOfwState,
    baseline_update,
    ofw_decay_init,
    ofw_decay_update,
    ofw_init,
    ofw_update,
    ogd_init,
    scofw_init,
    scofw_update,
)
from .losses import (
    LossSpec,
    certify_constants,
    make_round,
)
from .oracle import offline_comparator, surrogate_argmin
from .sets import FeasibleSet, L1Ball, L2Ball, LpBall, Simplex

__version__ = "0.1.0"

_VERIFY_NAMES = ("CheckResult", "VerifyReport", "verify_suite")


def __getattr__(name):
    # ``verify`` is imported on first use of its names, so that importing
    # the package, or running any other command, does not load it.
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "dot",
    "line_search_quadratic",
    "lp_norm",
    "ConfigError",
    "ExperimentSpec",
    "RegretTrace",
    "SweepResult",
    "emit_csv",
    "loglog_slope",
    "parse_config",
    "run_experiment",
    "sweep",
    "sweep_csv",
    "OfwState",
    "OgdState",
    "ScOfwState",
    "baseline_update",
    "ofw_decay_init",
    "ofw_decay_update",
    "ofw_init",
    "ofw_update",
    "ogd_init",
    "scofw_init",
    "scofw_update",
    "LossSpec",
    "certify_constants",
    "make_round",
    "offline_comparator",
    "surrogate_argmin",
    "FeasibleSet",
    "L1Ball",
    "L2Ball",
    "LpBall",
    "Simplex",
    "CheckResult",
    "VerifyReport",
    "verify_suite",
    "__version__",
]
