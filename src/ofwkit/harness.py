"""Experiment harness: configs in, regret traces and CSV out.

A run is described by a flat ``key = value`` config (see ``parse_config``),
executed round by round against a seeded adversary. Each round logs the
loss, cumulative loss, the best-in-hindsight comparator for the prefix
played so far, the regret against it, the a priori regret bound when one
applies, and optionally the surrogate optimality gap with its per-round
bound. The CSV layout is fixed; plotting and further analysis live outside.

Each algorithm is one ``_ALGORITHMS`` record: its learner, surrogate weight,
loss rule, gap rule and ceilings. The adversary is a stream of
``losses.round_chunks``, or one (T, dim) array given from outside, which
``as_rounds`` checks once (quadratic targets must lie in the set, linear
gradients must have norm at most G); either is played with the spec's loss
kind and certified lam. A run holds its logs and one chunk of rounds, never
all T: it plays each chunk, one row per round, and scores it with an
``oracle.PrefixComparator`` before the next is drawn. A round computes only
its gradient; the losses are logged ``core.BLOCK_ROWS`` rounds at a time
from the plays of a block, and the surrogate gaps are measured as often by
``oracle.surrogate_gaps``, from the plays and gradients of one block. The
cumulative loss and regret are computed after the rounds, bit for bit as the
per-round computation would. The CSV cells are ``'%.17g'`` text, byte for
byte, written by ``csvtext.csv_pieces`` for a run and a sweep alike. A sweep
plays one learner per horizon in lockstep over one stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import BLOCK_ROWS, as_int, prefix_sums, row_l2_norms
from .csvtext import csv_pieces
from .learners import (
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
from .losses import (
    LINEAR,
    QUADRATIC,
    LossSpec,
    as_rounds,
    certify_constants,
    gradient_at,
    loss_rows,
    round_chunks,
)
from .oracle import PrefixComparator, surrogate_gaps
from .sets import FeasibleSet, L1Ball, L2Ball, LpBall, Simplex

__all__ = [
    "ALGO_OFW_LS",
    "ALGO_SC_OFW",
    "ALGO_OFW_DECAY",
    "ALGO_OGD",
    "ALGORITHMS",
    "SCOPES",
    "CSV_HEADER",
    "SWEEP_CSV_HEADER",
    "ConfigError",
    "Certificate",
    "ExperimentSpec",
    "RegretTrace",
    "SweepResult",
    "parse_config",
    "certificate",
    "run_experiment",
    "csv_blocks",
    "emit_csv",
    "loglog_slope",
    "sweep",
    "sweep_csv",
]

ALGO_OFW_LS = "ofw_ls"
ALGO_SC_OFW = "sc_ofw"
ALGO_OFW_DECAY = "ofw_decay"
ALGO_OGD = "ogd"
# The scopes of ``verify.verify_suite``, kept here so that the command line
# lists them without importing ``verify``.
SCOPES = ("sets", "learners", "bounds", "all")

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
        object.__setattr__(self, "horizon", as_int(self.horizon, "horizon", 1))
        if self.horizon > np.iinfo(np.intp).max:
            raise ValueError(f"horizon {self.horizon} exceeds the largest array length")
        if self.loss.dim != self.domain.dim:
            raise ValueError(
                f"loss dim {self.loss.dim} does not match set dim {self.domain.dim}"
            )
        if _ALGORITHMS[self.algo].quadratic and self.loss.kind != QUADRATIC:
            raise ValueError(f"{self.algo} needs strongly convex losses (loss.kind = quadratic)")
        object.__setattr__(self, "gap_cap", as_int(self.gap_cap, "gap_cap", 0))
        # The regret ceiling grows with t, so a finite one at T bounds every
        # round's regret and gap ceilings.
        try:
            cert = certificate(self)
            with np.errstate(all="ignore"):
                ceiling = cert.regret_at(self.horizon)
        except OverflowError as exc:
            raise ValueError(f"derived constants overflow: {exc}") from None
        # A quadratic loss's lambda is its LossSpec's, finite and positive already.
        derived = [("G", cert.G), ("diameter", cert.diameter), ("eta", cert.eta), ("C", cert.C)]
        for name, value in derived + [("regret ceiling", ceiling)]:
            if value is not None and not (0.0 < value < math.inf):
                raise ValueError(f"derived constant {name} = {value!r} is not finite and positive")
        # Bounds every loss, cumulative loss and regret; an underflow to 0 runs.
        scale = 2.0 * self.horizon * cert.G * cert.diameter
        if not math.isfinite(scale):
            raise ValueError(f"derived constant 2*T*G*D = {scale!r} is not finite")
        # The learners and the comparator square norms up to D's.
        spread = self.horizon * cert.diameter * cert.diameter
        if not math.isfinite(spread):
            raise ValueError(f"derived constant T*D^2 = {spread!r} is not finite")


# Each kind's class or loss field, and the keys it takes. A set's keys are
# its arguments after ``set.dim``; a loss's one key is its constant.
_RADIUS = ("set.r",)
_SET_KINDS = {
    "l2_ball": (L2Ball, _RADIUS),
    "lp_ball": (LpBall, _RADIUS + ("set.p",)),
    "l1_ball": (L1Ball, _RADIUS),
    "simplex": (Simplex, ()),
}
_LOSS_KINDS = {LINEAR: ("loss.G", "G"), QUADRATIC: ("loss.lambda", "lam")}
_SET_KEYS = tuple(dict.fromkeys(key for _, keys in _SET_KINDS.values() for key in keys))
_LOSS_KEYS = tuple(key for key, _ in _LOSS_KINDS.values())
_KNOWN_KEYS = (
    ("set.kind", "set.dim", "loss.kind", "algo", "T", "seed", "gap_check", "gap_cap", "output")
    + _SET_KEYS
    + _LOSS_KEYS
)
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false"}


def _read(entries: dict, key: str, kind: type = str, default=None):
    """``entries[key]`` read as ``kind`` (str, int, float or bool), or
    ``default`` when the key is absent; with no default it is required."""
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    text = entries[key]
    try:
        return {"true": True, "false": False}[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"key {key!r}: expected {_EXPECTED[kind]}, got {text!r}") from None


def _lookup(entries: dict, key: str, table: dict, expected: str):
    """The kind named by the required ``key`` and its row of ``table``."""
    kind = _read(entries, key)
    if kind not in table:
        raise ConfigError(f"key {key!r}: expected {expected}, got {kind!r}")
    return kind, table[kind]


def _refuse(entries: dict, kind: str, takes: tuple, keys: tuple):
    """Refuse the first of ``keys`` given in ``entries`` that ``kind`` does not take."""
    for key in keys:
        if key in entries and key not in takes:
            raise ConfigError(f"key {key!r} does not apply to {kind}")


def parse_config(text: str) -> ExperimentSpec:
    """Parse a flat ``key = value`` config into an ``ExperimentSpec``.

    One assignment per line; ``#`` starts a comment; blank lines are
    ignored. Unknown keys, duplicates, missing required keys, malformed
    values, keys the chosen set or loss kind does not take, and
    inconsistent combinations all raise ``ConfigError``.
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

    set_kind, (make_set, set_keys) = _lookup(
        entries, "set.kind", _SET_KINDS, f"one of {tuple(_SET_KINDS)}"
    )
    dim = _read(entries, "set.dim", int)
    _refuse(entries, set_kind, set_keys, _SET_KEYS)
    args = [_read(entries, key, float) for key in set_keys]
    try:
        domain: FeasibleSet = make_set(dim, *args)
    except ValueError as exc:
        raise ConfigError(f"invalid set: {exc}") from None

    loss_kind, (loss_key, field_name) = _lookup(
        entries, "loss.kind", _LOSS_KINDS, "linear or quadratic"
    )
    seed = _read(entries, "seed", int)
    _refuse(entries, loss_kind, (loss_key,), _LOSS_KEYS)
    constant = _read(entries, loss_key, float)
    try:
        loss = LossSpec(kind=loss_kind, dim=dim, seed=seed, **{field_name: constant})
    except ValueError as exc:
        raise ConfigError(f"invalid loss: {exc}") from None

    # A value's ConfigError passes through with its text.
    try:
        return ExperimentSpec(
            domain=domain,
            loss=loss,
            algo=_read(entries, "algo"),
            horizon=_read(entries, "T", int),
            gap_check=_read(entries, "gap_check", bool, False),
            gap_cap=_read(entries, "gap_cap", int, DEFAULT_GAP_CAP),
            output=entries.get("output"),
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
    applies), and ``regret_at`` is its value at one round; ``gap`` maps a
    round t to its surrogate gap ceiling, or None (for every t < 1 too).
    """

    G: float
    lam: float
    diameter: float
    alpha: float
    eta: Optional[float]
    C: Optional[float]
    regret: Callable[[np.ndarray], np.ndarray]
    gap: Callable[[int], Optional[float]]

    def regret_at(self, t: int) -> Optional[float]:
        """The regret ceiling after t >= 1 rounds, or None when no theorem
        applies; bit for bit ``RegretTrace.theorem_bound[t - 1]``, from the
        same vectorised expression."""
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        return None if self.C is None else float(self.regret(np.array([float(t)]))[0])


def _ratio(num: float, den: float) -> float:
    """``num / den`` for den >= 0; inf where den underflowed to zero."""
    return num / den if den > 0.0 else math.inf


def _ofw_ls_ceilings(G: float, lam: float, D: float, alpha: float):
    """OFW with line search: its ceilings hold on strongly convex sets only."""
    if not alpha > 0.0:
        return None
    C = max(4.0 * D * D, _ratio(4096.0, 3.0 * alpha * alpha))
    return (
        C,
        lambda ts: 2.75 * G * math.sqrt(C) * (ts + 2.0) ** (2.0 / 3.0),
        lambda t: C / (t + 2.0) ** (2.0 / 3.0) if t >= 1 else None,
    )


def _sc_ofw_ceilings(G: float, lam: float, D: float, alpha: float):
    """SC-OFW: ceilings on every set, its gap ceiling from t = 2."""
    gd = G + lam * D
    if alpha > 0.0:
        C = max(4.0 * gd * gd / lam, _ratio(288.0 * lam, alpha * alpha))
        return (
            C,
            lambda ts: C * np.sqrt(2.0 * ts) + 0.5 * C * np.log(ts) + G * D,
            lambda t: C if t >= 2 else None,
        )
    C = 16.0 * gd * gd / lam
    return (
        C,
        lambda ts: (
            3.0 * math.sqrt(2.0) / 8.0 * C * ts ** (2.0 / 3.0) + C * np.log(ts) / 8.0 + G * D
        ),
        lambda t: C * (t - 1.0) ** (1.0 / 3.0) if t >= 2 else None,
    )


class _Algorithm(NamedTuple):
    """One learner: ``learner(spec, G, lam)`` gives its first state and update, the
    update looked up by name at that call; ``eta(D, G, T)`` is its surrogate weight;
    ``quadratic``, that it needs quadratic losses; ``surrogate``, that its gaps can be
    measured; ``ceilings(G, lam, D, alpha)``, its ``(C, regret, gap)`` or None."""

    learner: Callable
    eta: Optional[Callable] = None
    quadratic: bool = False
    surrogate: bool = True
    ceilings: Optional[Callable] = None


_ALGORITHMS = {
    ALGO_OFW_LS: _Algorithm(
        lambda spec, G, lam: (ofw_init(spec.domain, spec.horizon, G), ofw_update),
        ofw_step_size_parameter, ceilings=_ofw_ls_ceilings,
    ),
    ALGO_SC_OFW: _Algorithm(
        lambda spec, G, lam: (scofw_init(spec.domain, lam), scofw_update),
        quadratic=True, ceilings=_sc_ofw_ceilings,
    ),
    ALGO_OFW_DECAY: _Algorithm(
        lambda spec, G, lam: (ofw_decay_init(spec.domain, spec.horizon, G), ofw_decay_update),
        ofw_decay_step_size_parameter,
    ),
    ALGO_OGD: _Algorithm(
        lambda spec, G, lam: (ogd_init(spec.domain, G, lam), baseline_update), surrogate=False
    ),
}
ALGORITHMS = tuple(_ALGORITHMS)


def certificate(spec: ExperimentSpec) -> Certificate:
    """Certified constants, eta, C and the regret and gap ceilings of
    ``spec``, as its ``_ALGORITHMS`` record gives them; the baselines run unbound."""
    G, lam = certify_constants(spec.loss, spec.domain)
    D, alpha = spec.domain.diameter, spec.domain.strong_convexity
    algo = _ALGORITHMS[spec.algo]
    # eta divides by G; a G that is not positive is refused with the other constants.
    eta = algo.eta(D, G, spec.horizon) if algo.eta and G > 0.0 else None
    ceilings = algo.ceilings and algo.ceilings(G, lam, D, alpha)
    unbound = (None, lambda ts: np.full(ts.shape, np.nan), lambda t: None)
    return Certificate(G, lam, D, alpha, eta, *(ceilings or unbound))


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


def _allocated(what: str, make, *args):
    """``make(*args)``, which allocates buffers before any round is generated.

    A size numpy refuses (``ValueError``, ``MemoryError``, or an
    ``OverflowError`` converting it) is a config error that names ``what``.
    """
    try:
        return make(*args)
    except (ValueError, MemoryError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _allocate_logs(T: int) -> np.ndarray:
    """The (6, T) array behind a trace's logged columns."""
    return _allocated(f"horizon {T} is too long to log", np.empty, (6, T))


def _init_learner(spec: ExperimentSpec, G: float, lam: float):
    """The first state and the update of ``spec``'s learner; a state whose
    per-dimension buffers numpy cannot allocate is a config error."""
    dim, learner = spec.domain.dim, _ALGORITHMS[spec.algo].learner
    return _allocated(f"set.dim {dim} is too large to allocate", learner, spec, G, lam)


def _play(state, update, kind: str, lam: float, rows, loss_v, gap_v=None):
    """Play a round per row of ``rows``, a block of ``core.BLOCK_ROWS`` rows
    at a time; return the last state.

    Each round computes only its gradient. A block's losses are logged in
    ``loss_v`` once it has been played, from the plays it kept, by one
    ``loss_rows``. With ``gap_v``, each round's surrogate gap is logged
    there too, measured by ``surrogate_gaps`` from the block's plays and
    gradients, which are kept only then.
    """
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        first, xs, gs = state, [], []
        for row in block:
            x_t = state.x
            g_t = gradient_at(kind, lam, row, x_t)
            xs.append(x_t)
            if gap_v is not None:
                gs.append(g_t)
            state = update(state, g_t)
        xs = np.array(xs)
        stop = start + len(block)
        loss_v[start:stop] = loss_rows(kind, lam, block, xs)
        if gap_v is not None:
            gap_v[start:stop] = surrogate_gaps(first, xs, np.array(gs))
    return state


def run_experiment(spec: ExperimentSpec, rounds=None) -> RegretTrace:
    """Play ``spec.horizon`` rounds and log the trace.

    The protocol each round: the learner commits its point, the adversary
    reveals the loss, the loss and gradient at the committed point are
    recorded, then the learner updates. When ``gap_check`` is on, the
    surrogate optimality gap of the committed point is measured for rounds
    up to ``gap_cap``, for a learner whose record has a surrogate (not OGD),
    once it has positive curvature: the gap of the surrogate the learner held when
    it committed, measured by ``surrogate_gaps`` once a block of
    ``core.BLOCK_ROWS`` rounds, or the last measured round, has been
    played. Only that block's plays and gradients are kept. A failed
    certificate raises ``ConvergenceError`` naming its round.

    ``rounds`` is the loss sequence to play; by default the seeded
    adversary's from ``round_chunks``, each chunk played and scored by a
    ``PrefixComparator`` before the next is drawn. Rounds from outside, a
    (T, dim) array-like played as one chunk with the spec's loss kind and
    certified lam, are checked by ``as_rounds`` and held to shape (T, dim)
    before the learner moves; quadratic targets must also lie in the set
    up to a slack of 1e-6 * diameter, since the certified G = lam * D
    assumes feasible ones, and linear gradients must have norm at most G
    up to a slack of 1e-6 * G. Each raises ``ValueError``, naming the
    first such round. ``comparator_total`` and ``final_regret`` are the
    last cells of ``comparator_cum`` and ``regret``.

    A horizon too long to log, or a ``set.dim`` too large to allocate,
    raises ``ConfigError`` before any round is generated.
    """
    cert = certificate(spec)
    T, dim = spec.horizon, spec.domain.dim
    kind, lam = spec.loss.kind, cert.lam
    if rounds is not None:
        rounds = as_rounds(rounds)
        if rounds.shape != (T, dim):
            raise ValueError(f"expected rounds of shape {(T, dim)}, got {rounds.shape}")
        # The slack allows for rounded rows, such as a float32 copy's.
        if kind == QUADRATIC:
            inside = spec.domain.contains_rows(rounds, 1e-6 * spec.domain.diameter)
            outside = np.flatnonzero(~inside)
            if outside.size:
                raise ValueError(f"round {outside[0] + 1} has a target outside the set")
        else:
            over = np.flatnonzero(row_l2_norms(rounds) > cert.G + 1e-6 * cert.G)
            if over.size:
                raise ValueError(f"round {over[0] + 1} has a gradient of norm above G = {cert.G!r}")
    state, update = _init_learner(spec, cert.G, cert.lam)
    loss_v, cum_v, comp_v, regret_v, gap_v, gapb_v = _allocate_logs(T)
    gap_v.fill(np.nan)
    gapb_v.fill(np.nan)
    chunks = round_chunks(spec.loss, T, spec.domain) if rounds is None else [rounds]
    measured = min(spec.gap_cap, T) if spec.gap_check and _ALGORITHMS[spec.algo].surrogate else 0
    comparator = PrefixComparator(spec.domain, kind, lam)
    start = 0
    for rows in chunks:
        m = min(max(measured - start, 0), len(rows))
        state = _play(state, update, kind, lam, rows[:m], loss_v[start:], gap_v[start:])
        state = _play(state, update, kind, lam, rows[m:], loss_v[start + m :])
        comparator.add(rows, comp_v[start:])
        start += len(rows)
    for t in range(1, measured + 1):
        gb = cert.gap(t)
        if gb is not None:
            gapb_v[t - 1] = gb

    # Summed from 0.0 as a running Python float would be.
    cum_v[:] = prefix_sums(loss_v, 0.0)
    x_star = comparator.point()
    np.subtract(cum_v, comp_v, out=regret_v)
    bound_v = cert.regret(np.arange(1, T + 1, dtype=float))
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
        comparator_total=float(comp_v[-1]),
        final_regret=float(regret_v[-1]),
        final_bound=None if cert.C is None else float(bound_v[-1]),
    )


# -- CSV --------------------------------------------------------------------


def csv_blocks(trace: RegretTrace):
    """The trace's CSV text with the fixed column layout, from ``csv_pieces``:
    the header line and then ``core.BLOCK_ROWS`` rows at a time.

    Floats carry 17 significant digits (``'%.17g' % v``) so round-tripping
    is lossless; inapplicable entries (no bound, gap not measured) are
    empty cells.
    """
    names = CSV_HEADER.split(",")[1:]
    return csv_pieces(CSV_HEADER, [trace.rounds] + [getattr(trace, name) for name in names])


def emit_csv(trace: RegretTrace) -> str:
    """Render a trace as CSV: the join of ``csv_blocks``. The CLI streams
    ``csv_blocks``; this stays while the benchmark's tracer wraps it by name."""
    return "".join(csv_blocks(trace))


# -- sweeps -----------------------------------------------------------------


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(regret) against log(T).

    Points with nonpositive regret are dropped (their log is undefined);
    at least 3 surviving points are required. T values must be finite,
    positive and strictly increasing, and regrets finite; a point that is
    not raises ``ValueError`` naming it.
    """
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    for t, r in pts:
        if not (0.0 < t < math.inf and math.isfinite(r)):
            raise ValueError(f"point (T={t!r}, regret={r!r}): T must be finite and > 0, regret finite")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if not (t1 > t0):
            raise ValueError("T values must be strictly increasing")
    kept = [(t, r) for t, r in pts if r > 0.0]
    if len(kept) < 3:
        raise ValueError(f"need at least 3 points with positive regret, got {len(kept)}")
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

    The learners of all horizons play in lockstep over one stream of
    rounds, drawn once, for the largest horizon, and scored once by a
    ``PrefixComparator``, whose point is certified as the stream passes
    each horizon. Round t is a function of (seed, t), so this equals a
    separate ``run_experiment`` per horizon, a failed certificate
    included. Gaps are not measured, since only final regrets and bounds
    are kept. The slope is fitted when at least 3 horizons produce
    positive regret, else left None. Every horizon is validated, and the
    logs of the longest run and every learner allocated, before any round
    is generated; a bad or unloggable horizon, or a ``set.dim`` too large
    to allocate, raises ``ConfigError``.
    """
    hs = [_horizon(h) for h in horizons]
    if not hs:
        raise ConfigError("need at least one horizon")
    for a, b in zip(hs, hs[1:]):
        if not (b > a):
            raise ConfigError("horizons must be strictly increasing")
    try:
        specs = [replace(spec, horizon=h, gap_check=False) for h in hs]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # Every horizon must be one its own run could log.
    _allocate_logs(hs[-1])
    cert = certificate(spec)  # its C, so its regret ceiling, holds at every horizon
    lam = cert.lam
    learners = [_init_learner(s, cert.G, lam) for s in specs]
    comparator = PrefixComparator(spec.domain, spec.loss.kind, lam)
    cum_losses = [0.0] * len(hs)
    result = SweepResult(spec=spec)
    start = k = 0  # hs[k] is the next horizon the stream reaches
    for chunk in round_chunks(spec.loss, hs[-1], spec.domain):
        # Pieces of the chunk that end at a horizon or at the chunk's end.
        for rows in np.split(chunk, [h - start for h in hs if start < h < start + len(chunk)]):
            loss_v, totals = np.empty((2, len(rows)))
            for j in range(k, len(hs)):
                state, update = learners[j]
                learners[j] = _play(state, update, spec.loss.kind, lam, rows, loss_v), update
                # Carried from 0.0 as the run's cumulative loss column is.
                cum_losses[j] = prefix_sums(loss_v, cum_losses[j])[-1]
            comparator.add(rows, totals)
            start += len(rows)
            if start == hs[k]:
                comparator.point()  # certified here, as this horizon's run would
                result.horizons.append(start)
                result.regrets.append(float(cum_losses[k] - totals[-1]))
                result.bounds.append(cert.regret_at(start))
                k += 1
    try:
        result.slope = loglog_slope(list(zip(result.horizons, result.regrets)))
    except ValueError:
        result.slope = None
    return result


def _horizon(h) -> int:
    """``h`` as an int; ``ConfigError`` unless ``as_int`` takes it."""
    try:
        return as_int(h, "horizon")
    except ValueError:
        raise ConfigError(f"horizons must be integers, got {h!r}") from None


def sweep_csv(result: SweepResult) -> str:
    """Render a sweep as CSV with ``csv_pieces``: one row per horizon, slope repeated."""
    nan = float("nan")
    bounds = [nan if b is None else b for b in result.bounds]
    slopes = [nan if result.slope is None else result.slope] * len(bounds)
    return "".join(csv_pieces(SWEEP_CSV_HEADER, [result.horizons, result.regrets, bounds, slopes]))
