"""Experiment harness: configs in, regret traces and CSV out.

A run is described by a flat ``key = value`` config (see ``parse_config``),
executed round by round against a seeded adversary. Each round logs the
loss, cumulative loss, the best-in-hindsight comparator for the prefix
played so far, the regret against it, the a priori regret bound when one
applies, and optionally the surrogate optimality gap with its per-round
bound. The CSV layout is fixed; plotting and further analysis live outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .learners import (
    OFW_DECAY,
    OGD,
    baseline_update,
    ofw_decay_init,
    ofw_decay_step_size_parameter,
    ofw_init,
    ofw_step_size_parameter,
    ofw_update,
    ogd_init,
    scofw_init,
    scofw_update,
)
from .losses import (
    LINEAR,
    QUADRATIC,
    LossRound,
    LossSpec,
    certify_constants,
    make_round,
)
from .oracle import offline_comparator, surrogate_argmin, surrogate_of
from .sets import FeasibleSet, L1Ball, L2Ball, LpBall, Simplex

__all__ = [
    "ALGO_OFW_LS",
    "ALGO_SC_OFW",
    "ALGO_OFW_DECAY",
    "ALGO_OGD",
    "ALGORITHMS",
    "CSV_HEADER",
    "SWEEP_CSV_HEADER",
    "ConfigError",
    "Certificate",
    "ExperimentSpec",
    "RegretTrace",
    "SweepResult",
    "parse_config",
    "certificate",
    "theorem_constant",
    "theorem_bound",
    "gap_bound",
    "run_experiment",
    "emit_csv",
    "loglog_slope",
    "sweep",
    "sweep_csv",
]

ALGO_OFW_LS = "ofw_ls"
ALGO_SC_OFW = "sc_ofw"
ALGO_OFW_DECAY = "ofw_decay"
ALGO_OGD = "ogd"
ALGORITHMS = (ALGO_OFW_LS, ALGO_SC_OFW, ALGO_OFW_DECAY, ALGO_OGD)

CSV_HEADER = "t,loss,cum_loss,comparator_cum,regret,theorem_bound,gap,gap_bound"
SWEEP_CSV_HEADER = "T,regret,theorem_bound,slope"

DEFAULT_GAP_CAP = 512


class ConfigError(ValueError):
    """A config that cannot be turned into a runnable experiment."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one run needs: geometry, adversary, learner, horizon."""

    domain: FeasibleSet
    loss: LossSpec
    algo: str
    horizon: int
    gap_check: bool = False
    gap_cap: int = DEFAULT_GAP_CAP
    output: Optional[str] = None

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        if self.loss.dim != self.domain.dim:
            raise ValueError(
                f"loss dim {self.loss.dim} does not match set dim {self.domain.dim}"
            )
        if self.algo == ALGO_SC_OFW and self.loss.kind != QUADRATIC:
            raise ValueError("sc_ofw needs strongly convex losses (loss.kind = quadratic)")
        if not isinstance(self.gap_cap, int) or self.gap_cap < 0:
            raise ValueError(f"gap_cap must be a nonnegative integer, got {self.gap_cap!r}")
        # The regret ceiling grows with t, so a finite one at T bounds every
        # round's regret and gap ceilings.
        try:
            cert = certificate(self)
            with np.errstate(all="ignore"):
                ceiling = float(cert.regret(np.array([float(self.horizon)]))[0])
        except OverflowError as exc:
            raise ValueError(f"derived constants overflow: {exc}") from None
        derived = [("G", cert.G), ("diameter", cert.diameter), ("eta", cert.eta), ("C", cert.C)]
        if self.loss.kind == QUADRATIC:
            derived.append(("lambda", cert.lam))
        if cert.C is not None:
            derived.append(("regret ceiling", ceiling))
        for name, value in derived:
            if value is not None and not (0.0 < value < math.inf):
                raise ValueError(f"derived constant {name} = {value!r} is not finite and positive")


_SET_KINDS = ("l2_ball", "lp_ball", "l1_ball", "simplex")
_KNOWN_KEYS = (
    "set.kind",
    "set.dim",
    "set.r",
    "set.p",
    "loss.kind",
    "loss.G",
    "loss.lambda",
    "algo",
    "T",
    "seed",
    "gap_check",
    "gap_cap",
    "output",
)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None


def _parse_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"key {key!r}: expected true or false, got {value!r}")


def _require(entries: dict, key: str) -> str:
    if key not in entries:
        raise ConfigError(f"missing required key {key!r}")
    return entries[key]


def _forbid(entries: dict, key: str, why: str):
    if key in entries:
        raise ConfigError(f"key {key!r} does not apply: {why}")


def parse_config(text: str) -> ExperimentSpec:
    """Parse a flat ``key = value`` config into an ``ExperimentSpec``.

    One assignment per line; ``#`` starts a comment; blank lines are
    ignored. Unknown keys, duplicates, missing required keys, malformed
    values, and inconsistent combinations all raise ``ConfigError``.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    set_kind = _require(entries, "set.kind")
    if set_kind not in _SET_KINDS:
        raise ConfigError(f"key 'set.kind': expected one of {_SET_KINDS}, got {set_kind!r}")
    dim = _parse_int("set.dim", _require(entries, "set.dim"))
    try:
        if set_kind == "simplex":
            _forbid(entries, "set.r", "the simplex has no radius")
            _forbid(entries, "set.p", "set.p only applies to lp_ball")
            domain: FeasibleSet = Simplex(dim)
        else:
            r = _parse_float("set.r", _require(entries, "set.r"))
            if set_kind == "lp_ball":
                p = _parse_float("set.p", _require(entries, "set.p"))
                domain = LpBall(dim, r, p)
            else:
                _forbid(entries, "set.p", "set.p only applies to lp_ball")
                domain = L2Ball(dim, r) if set_kind == "l2_ball" else L1Ball(dim, r)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid set: {exc}") from None

    loss_kind = _require(entries, "loss.kind")
    seed = _parse_int("seed", _require(entries, "seed"))
    try:
        if loss_kind == LINEAR:
            _forbid(entries, "loss.lambda", "linear losses have no modulus")
            G = _parse_float("loss.G", _require(entries, "loss.G"))
            loss = LossSpec(kind=LINEAR, dim=dim, seed=seed, G=G)
        elif loss_kind == QUADRATIC:
            _forbid(entries, "loss.G", "quadratic losses certify G from the set")
            lam = _parse_float("loss.lambda", _require(entries, "loss.lambda"))
            loss = LossSpec(kind=QUADRATIC, dim=dim, seed=seed, lam=lam)
        else:
            raise ConfigError(
                f"key 'loss.kind': expected linear or quadratic, got {loss_kind!r}"
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid loss: {exc}") from None

    algo = _require(entries, "algo")
    horizon = _parse_int("T", _require(entries, "T"))
    gap_check = _parse_bool("gap_check", entries["gap_check"]) if "gap_check" in entries else False
    gap_cap = (
        _parse_int("gap_cap", entries["gap_cap"]) if "gap_cap" in entries else DEFAULT_GAP_CAP
    )
    output = entries.get("output")

    try:
        return ExperimentSpec(
            domain=domain,
            loss=loss,
            algo=algo,
            horizon=horizon,
            gap_check=gap_check,
            gap_cap=gap_cap,
            output=output,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# -- regret and gap bounds -------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """The constants certified for one experiment and the ceilings they give.

    ``alpha`` is the set's strong-convexity modulus. ``eta`` is the
    surrogate weight of the learners that have one, and ``C`` the constant
    of the theorem that applies; each is None otherwise. ``regret`` maps an
    array of rounds to the regret ceiling at each (NaN where no theorem
    applies); ``gap`` maps a round t >= 1 to its surrogate gap ceiling, or
    None.
    """

    G: float
    lam: float
    diameter: float
    alpha: float
    eta: Optional[float]
    C: Optional[float]
    regret: Callable[[np.ndarray], np.ndarray]
    gap: Callable[[int], Optional[float]]


def _ratio(num: float, den: float) -> float:
    """``num / den`` for den >= 0; inf where den underflowed to zero."""
    return num / den if den > 0.0 else math.inf


def certificate(spec: ExperimentSpec) -> Certificate:
    """Certified constants, eta, C and the regret and gap ceilings of ``spec``.

    Bounds exist for the line-search learner on strongly convex sets and
    for the strongly convex learner everywhere (its gap ceiling from t = 2);
    the baselines run unbound.
    """
    G, lam = certify_constants(spec.loss, spec.domain)
    D, alpha = spec.domain.diameter, spec.domain.strong_convexity
    eta = None
    if spec.algo == ALGO_OFW_LS:
        eta = ofw_step_size_parameter(D, G, spec.horizon)
    elif spec.algo == ALGO_OFW_DECAY:
        eta = ofw_decay_step_size_parameter(D, G, spec.horizon)
    make = partial(Certificate, G, lam, D, alpha, eta)
    if spec.algo == ALGO_OFW_LS and alpha > 0.0:
        C = max(4.0 * D * D, _ratio(4096.0, 3.0 * alpha * alpha))
        return make(
            C,
            lambda ts: 2.75 * G * math.sqrt(C) * (ts + 2.0) ** (2.0 / 3.0),
            lambda t: C / (t + 2.0) ** (2.0 / 3.0),
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


def theorem_constant(spec: ExperimentSpec) -> Optional[float]:
    """The constant C in the applicable bounds, or None when no bound applies."""
    return certificate(spec).C


def theorem_bound(spec: ExperimentSpec, t: int) -> Optional[float]:
    """A priori regret bound after t rounds, or None when no bound applies.

    Equal bit for bit to ``RegretTrace.theorem_bound[t - 1]``: both come
    from the same vectorised expression.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    cert = certificate(spec)
    return None if cert.C is None else float(cert.regret(np.array([float(t)]))[0])


def gap_bound(spec: ExperimentSpec, t: int) -> Optional[float]:
    """Per-round surrogate gap bound, or None where no bound applies."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return certificate(spec).gap(t)


# -- running ----------------------------------------------------------------


@dataclass
class RegretTrace:
    """Per-round log of one run plus the final hindsight comparator."""

    spec: ExperimentSpec
    rounds: np.ndarray
    loss: np.ndarray
    cum_loss: np.ndarray
    comparator_cum: np.ndarray
    regret: np.ndarray
    theorem_bound: np.ndarray
    gap: np.ndarray
    gap_bound: np.ndarray
    comparator_point: np.ndarray
    comparator_total: float
    final_regret: float
    final_bound: Optional[float]


def _init_learner(spec: ExperimentSpec, G: float, lam: float):
    if spec.algo == ALGO_OFW_LS:
        return ofw_init(spec.domain, spec.horizon, G), ofw_update
    if spec.algo == ALGO_SC_OFW:
        return scofw_init(spec.domain, lam), scofw_update
    if spec.algo == ALGO_OFW_DECAY:
        return ofw_decay_init(spec.domain, spec.horizon, G), baseline_update
    return ogd_init(spec.domain, G, lam), baseline_update


def run_experiment(
    spec: ExperimentSpec,
    rounds: Optional[Sequence[LossRound]] = None,
) -> RegretTrace:
    """Play ``spec.horizon`` rounds and log the trace.

    The protocol each round: the learner commits its point, the adversary
    reveals the loss, the loss and gradient at the committed point are
    recorded, then the learner updates. When ``gap_check`` is on, the
    surrogate optimality gap of the committed point is measured by the
    reference oracle for rounds up to ``gap_cap`` before the update.

    ``rounds`` injects a fixed loss sequence in place of the seeded
    adversary (test plumbing); its length must equal the horizon. The
    final comparator is recomputed from the full sequence by the offline
    oracle, so the reported ``final_regret`` does not lean on the
    per-round incremental comparator.
    """
    cert = certificate(spec)
    if rounds is not None and len(rounds) != spec.horizon:
        raise ValueError(f"expected {spec.horizon} rounds, got {len(rounds)}")
    state, update = _init_learner(spec, cert.G, cert.lam)
    domain = spec.domain
    T = spec.horizon

    loss_v = np.empty(T)
    cum_v = np.empty(T)
    comp_v = np.empty(T)
    regret_v = np.empty(T)
    gap_v = np.full(T, np.nan)
    gapb_v = np.full(T, np.nan)

    grad_prefix = np.zeros(domain.dim)
    target_prefix = np.zeros(domain.dim)
    target_sq_prefix = 0.0

    played: list[LossRound] = []
    cum = 0.0
    measure_until = spec.gap_cap if spec.gap_check else 0

    for i in range(T):
        t = i + 1
        x_t = state.x

        if t <= measure_until:
            surrogate = surrogate_of(state)
            if surrogate is not None:
                _, best = surrogate_argmin(surrogate)
                gap_v[i] = surrogate.value(x_t) - best
                gb = cert.gap(t)
                if gb is not None:
                    gapb_v[i] = gb

        rnd = rounds[i] if rounds is not None else make_round(spec.loss, t, domain)
        loss_t = rnd.value_at(x_t)
        g_t = rnd.grad_at(x_t)
        cum += loss_t

        if rnd.kind == LINEAR:
            grad_prefix = grad_prefix + rnd.gradient
            x_best = domain.lmo(grad_prefix)
            comp = float(grad_prefix.dot(x_best))
        else:
            target_prefix = target_prefix + rnd.target
            target_sq_prefix += float(rnd.target.dot(rnd.target))
            x_best = domain.project(target_prefix / t)
            comp = 0.5 * rnd.lam * (
                t * float(x_best.dot(x_best))
                - 2.0 * float(target_prefix.dot(x_best))
                + target_sq_prefix
            )

        loss_v[i] = loss_t
        cum_v[i] = cum
        comp_v[i] = comp
        regret_v[i] = cum - comp
        played.append(rnd)
        state = update(state, g_t)

    bound_v = cert.regret(np.arange(1, T + 1, dtype=float))
    x_star, comp_total = offline_comparator(domain, played)
    return RegretTrace(
        spec=spec,
        rounds=np.arange(1, T + 1),
        loss=loss_v,
        cum_loss=cum_v,
        comparator_cum=comp_v,
        regret=regret_v,
        theorem_bound=bound_v,
        gap=gap_v,
        gap_bound=gapb_v,
        comparator_point=x_star,
        comparator_total=comp_total,
        final_regret=cum - comp_total,
        final_bound=None if cert.C is None else float(bound_v[-1]),
    )


# -- CSV --------------------------------------------------------------------


def _cell(value: float) -> str:
    if value is None or math.isnan(value):
        return ""
    return format(value, ".17g")


def emit_csv(trace: RegretTrace) -> str:
    """Render a trace as CSV with the fixed column layout.

    Floats carry 17 significant digits so round-tripping is lossless;
    inapplicable entries (no bound, gap not measured) are empty cells.
    """
    lines = [CSV_HEADER]
    for i in range(trace.rounds.shape[0]):
        lines.append(
            ",".join(
                (
                    str(int(trace.rounds[i])),
                    _cell(trace.loss[i]),
                    _cell(trace.cum_loss[i]),
                    _cell(trace.comparator_cum[i]),
                    _cell(trace.regret[i]),
                    _cell(trace.theorem_bound[i]),
                    _cell(trace.gap[i]),
                    _cell(trace.gap_bound[i]),
                )
            )
        )
    return "\n".join(lines) + "\n"


# -- sweeps -----------------------------------------------------------------


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(regret) against log(T).

    Points with nonpositive regret are dropped (their log is undefined);
    at least 3 surviving points are required. T values must be strictly
    increasing.
    """
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if not (t1 > t0):
            raise ValueError("T values must be strictly increasing")
    kept = [(t, r) for t, r in pts if r > 0.0]
    if len(kept) < 3:
        raise ValueError(
            f"need at least 3 points with positive regret, got {len(kept)}"
        )
    xs = np.log([t for t, _ in kept])
    ys = np.log([r for _, r in kept])
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass
class SweepResult:
    """Final regrets across horizons plus the fitted log-log slope."""

    spec: ExperimentSpec
    horizons: list[int] = field(default_factory=list)
    regrets: list[float] = field(default_factory=list)
    bounds: list[Optional[float]] = field(default_factory=list)
    slope: Optional[float] = None


def sweep(spec: ExperimentSpec, horizons: Sequence[int]) -> SweepResult:
    """Run ``spec`` once per horizon with a fresh learner each time.

    The adversary's seed is shared, and rounds are generated per index, so
    shorter horizons are prefixes of longer ones. The slope is fitted when
    at least 3 horizons produce positive regret, else left None. Every
    horizon is validated before the first run; a bad one raises
    ``ConfigError``.
    """
    hs = [int(h) for h in horizons]
    if not hs:
        raise ConfigError("need at least one horizon")
    for a, b in zip(hs, hs[1:]):
        if not (b > a):
            raise ConfigError("horizons must be strictly increasing")
    try:
        specs = [replace(spec, horizon=h) for h in hs]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = SweepResult(spec=spec)
    for h, spec_h in zip(hs, specs):
        trace = run_experiment(spec_h)
        result.horizons.append(h)
        result.regrets.append(trace.final_regret)
        result.bounds.append(trace.final_bound)
    try:
        result.slope = loglog_slope(list(zip(result.horizons, result.regrets)))
    except ValueError:
        result.slope = None
    return result


def sweep_csv(result: SweepResult) -> str:
    """Render a sweep as CSV: one row per horizon, slope repeated."""
    slope_cell = _cell(result.slope if result.slope is not None else float("nan"))
    lines = [SWEEP_CSV_HEADER]
    for h, r, b in zip(result.horizons, result.regrets, result.bounds):
        bound_cell = _cell(b if b is not None else float("nan"))
        lines.append(f"{h},{_cell(r)},{bound_cell},{slope_cell}")
    return "\n".join(lines) + "\n"
