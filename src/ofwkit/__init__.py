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
    gap_bound,
    loglog_slope,
    parse_config,
    run_experiment,
    sweep,
    sweep_csv,
    theorem_bound,
    theorem_constant,
)
from .learners import (
    BaselineState,
    OfwState,
    ScOfwState,
    baseline_update,
    ofw_decay_init,
    ofw_init,
    ofw_update,
    ogd_init,
    scofw_init,
    scofw_update,
)
from .losses import (
    LossRound,
    LossSpec,
    certify_constants,
    make_linear_round,
    make_quadratic_round,
    make_round,
)
from .oracle import (
    OfwSurrogate,
    ScOfwSurrogate,
    grid_line_search,
    offline_comparator,
    surrogate_argmin,
    surrogate_of,
)
from .sets import FeasibleSet, L1Ball, L2Ball, LpBall, Simplex
from .verify import CheckResult, VerifyReport, verify_suite

__version__ = "0.1.0"

__all__ = [
    "dot",
    "line_search_quadratic",
    "lp_norm",
    "ConfigError",
    "ExperimentSpec",
    "RegretTrace",
    "SweepResult",
    "emit_csv",
    "gap_bound",
    "loglog_slope",
    "parse_config",
    "run_experiment",
    "sweep",
    "sweep_csv",
    "theorem_bound",
    "theorem_constant",
    "BaselineState",
    "OfwState",
    "ScOfwState",
    "baseline_update",
    "ofw_decay_init",
    "ofw_init",
    "ofw_update",
    "ogd_init",
    "scofw_init",
    "scofw_update",
    "LossRound",
    "LossSpec",
    "certify_constants",
    "make_linear_round",
    "make_quadratic_round",
    "make_round",
    "OfwSurrogate",
    "ScOfwSurrogate",
    "grid_line_search",
    "offline_comparator",
    "surrogate_argmin",
    "surrogate_of",
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
