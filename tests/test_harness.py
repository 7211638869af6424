import csv
import io
import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial

import _comparator_reference as reference
import _config_reference
import _gap_reference
import numpy as np
import pytest
from _helpers import loss_at, seeded_rounds, zero_rounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ofwkit.csvtext
import ofwkit.harness
import ofwkit.learners
import ofwkit.oracle
from ofwkit.harness import (
    ALGO_OFW_DECAY,
    ALGO_OFW_LS,
    ALGO_OGD,
    ALGO_SC_OFW,
    ALGORITHMS,
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    RegretTrace,
    certificate,
    csv_blocks,
    emit_csv,
    loglog_slope,
    parse_config,
    run_experiment,
    sweep,
    sweep_csv,
)
from ofwkit.learners import (
    baseline_update,
    ofw_decay_init,
    ofw_decay_update,
    ofw_init,
    ofw_update,
    ogd_init,
    scofw_init,
    scofw_update,
)
from ofwkit.losses import (
    LINEAR,
    QUADRATIC,
    LossSpec,
    as_rounds,
    certify_constants,
    gradient_at,
    make_round,
    round_chunks,
)
from ofwkit.core import BLOCK_ROWS, as_rows, as_vector, as_vector_and_norm, prefix_sums
from ofwkit.sets import FeasibleSet, L1Ball, L2Ball, LpBall, Simplex

BASE_CONFIG = """
# unit euclidean ball, unit-norm linear losses
set.kind = l2_ball
set.dim = 10
set.r = 1
loss.kind = linear
loss.G = 1
algo = ofw_ls
T = 128
seed = 1
"""


def _spec(**overrides):
    defaults = dict(
        domain=L2Ball(10, 1.0),
        loss=LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0),
        algo=ALGO_OFW_LS,
        horizon=128,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# -- config parsing ----------------------------------------------------------


def test_parse_config_roundtrip():
    spec = parse_config(BASE_CONFIG)
    assert isinstance(spec.domain, L2Ball)
    assert spec.domain.dim == 10 and spec.domain.radius == 1.0
    assert spec.loss.kind == LINEAR and spec.loss.G == 1.0 and spec.loss.seed == 1
    assert spec.algo == ALGO_OFW_LS and spec.horizon == 128
    assert spec.gap_check is False and spec.gap_cap == 512 and spec.output is None


def test_parse_config_all_keys():
    text = """
    set.kind = lp_ball
    set.dim = 4
    set.r = 2.0
    set.p = 1.5
    loss.kind = quadratic
    loss.lambda = 0.5
    algo = sc_ofw
    T = 32
    seed = 7
    gap_check = true
    gap_cap = 16
    output = trace.csv
    """
    spec = parse_config(text)
    assert isinstance(spec.domain, LpBall) and spec.domain.p == 1.5
    assert spec.loss.kind == QUADRATIC and spec.loss.lam == 0.5
    assert spec.gap_check is True and spec.gap_cap == 16
    assert spec.output == "trace.csv"


def test_parse_config_unknown_key_is_named():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(BASE_CONFIG + "bogus = 1\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASE_CONFIG + "T = 64\n")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="set.dim"):
        parse_config("set.kind = l2_ball\n")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_parse_config_bad_values():
    with pytest.raises(ConfigError, match="T"):
        parse_config(BASE_CONFIG.replace("T = 128", "T = soon"))
    with pytest.raises(ConfigError, match="gap_check"):
        parse_config(BASE_CONFIG + "gap_check = yes\n")
    with pytest.raises(ConfigError):
        parse_config(BASE_CONFIG.replace("set.r = 1", "set.r = -1"))


def test_parse_config_simplex_rejects_radius():
    text = BASE_CONFIG.replace("set.kind = l2_ball", "set.kind = simplex")
    with pytest.raises(ConfigError, match="set.r"):
        parse_config(text)


def test_parse_config_lp_requires_p():
    text = BASE_CONFIG.replace("set.kind = l2_ball", "set.kind = lp_ball")
    with pytest.raises(ConfigError, match="set.p"):
        parse_config(text)


def test_parse_config_scofw_requires_quadratic():
    text = BASE_CONFIG.replace("algo = ofw_ls", "algo = sc_ofw")
    with pytest.raises(ConfigError, match="sc_ofw"):
        parse_config(text)


def test_parse_config_loss_key_consistency():
    with pytest.raises(ConfigError, match="loss.lambda"):
        parse_config(BASE_CONFIG + "loss.lambda = 1\n")
    quad = BASE_CONFIG.replace("loss.kind = linear", "loss.kind = quadratic")
    with pytest.raises(ConfigError, match="loss.G"):
        parse_config(quad)


_SET_TAKES = {"l2_ball": ("set.r",), "lp_ball": ("set.r", "set.p"), "l1_ball": ("set.r",), "simplex": ()}
_LOSS_TAKES = {LINEAR: ("loss.G",), QUADRATIC: ("loss.lambda",)}
_KIND_VALUES = {"set.r": "1", "set.p": "1.5", "loss.G": "1", "loss.lambda": "1"}


def _kind_config(kind, add=None, drop=None):
    """A runnable config of set or loss ``kind`` (the other part an l2_ball
    or linear losses), with the key ``add`` added and ``drop`` left out."""
    set_kind = kind if kind in _SET_TAKES else "l2_ball"
    loss_kind = kind if kind in _LOSS_TAKES else LINEAR
    keys = _SET_TAKES[set_kind] + _LOSS_TAKES[loss_kind] + ((add,) if add else ())
    lines = [f"set.kind = {set_kind}", "set.dim = 4", f"loss.kind = {loss_kind}"]
    lines += ["algo = ogd", "T = 8", "seed = 1"]
    lines += [f"{key} = {_KIND_VALUES[key]}" for key in keys if key != drop]
    return "\n".join(lines) + "\n"


# Every (kind, key it does not take) and every (kind, key it takes, removed).
_KIND_REFUSALS = [
    (kind, add, drop)
    for table, keys in ((_SET_TAKES, ("set.r", "set.p")), (_LOSS_TAKES, ("loss.G", "loss.lambda")))
    for kind, takes in table.items()
    for add, drop in [(key, None) for key in keys if key not in takes] + [(None, key) for key in takes]
]


@pytest.mark.parametrize("kind, add, drop", _KIND_REFUSALS)
def test_parse_config_refuses_foreign_and_missing_kind_keys(kind, add, drop):
    assert isinstance(parse_config(_kind_config(kind)), ExperimentSpec)
    message = f"key {add!r} does not apply" if add else f"missing required key {drop!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(_kind_config(kind, add, drop))


# Extreme values for every numeric key, half the time, else ordinary ones.
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["1", "1e-320", "1e308", "nan", "inf", str(10**400), "-inf", "0", "-1"]),
    st.sampled_from(["2", "10", "1000", "1.5", "0.5"]),
)


@st.composite
def _configs(draw):
    # Half the configs get one fault, their other values plain ones: a key of
    # another set or loss kind, a required key left out, or a value that is
    # malformed for most keys.
    fault = draw(st.sampled_from([None, None, None, "foreign", "missing", "malformed"]))
    values = _FUZZ_VALUES if fault is None else st.sampled_from(["2", "3", "10"])
    set_kind = draw(st.sampled_from(["l2_ball", "lp_ball", "l1_ball", "simplex"]))
    loss_kind = draw(st.sampled_from([LINEAR, QUADRATIC]))
    entries = {"set.kind": set_kind, "set.dim": draw(values)}
    if set_kind != "simplex":
        entries["set.r"] = draw(values)
    if set_kind == "lp_ball":
        entries["set.p"] = draw(values)
    entries["loss.kind"] = loss_kind
    entries["loss.G" if loss_kind == LINEAR else "loss.lambda"] = draw(values)
    entries["algo"] = draw(st.sampled_from(ALGORITHMS))
    for key in ("T", "seed"):
        entries[key] = draw(values)
    if draw(st.booleans()):
        entries["gap_check"] = "true"
        entries["gap_cap"] = draw(values)
    if fault == "foreign":
        foreign = [key for key in ("set.r", "set.p", "loss.G", "loss.lambda") if key not in entries]
        entries[draw(st.sampled_from(foreign))] = draw(values)
    elif fault == "missing":
        required = [key for key in entries if key not in ("gap_check", "gap_cap")]
        del entries[draw(st.sampled_from(required))]
    elif fault == "malformed":
        key = draw(st.sampled_from(sorted(entries)))
        entries[key] = draw(st.sampled_from(["soon", "yes", "1.5", "0x10", "cube"]))
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


_ONE_POINT_SIMPLEX = (
    "set.kind = simplex\nset.dim = 1\nloss.kind = quadratic\nloss.lambda = 1\n"
    "algo = {}\nT = 16\nseed = 1\n"
)
# A runnable config but for the kind named "cube".
_UNKNOWN_KIND = (
    "set.kind = {}\nset.dim = 3\nloss.kind = {}\nloss.lambda = 1\nalgo = ogd\nT = 8\nseed = 1\n"
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_configs())
@example(_ONE_POINT_SIMPLEX.format(ALGO_OFW_LS))
@example(_ONE_POINT_SIMPLEX.format(ALGO_OFW_DECAY))
@example(_UNKNOWN_KIND.format("cube", QUADRATIC))
@example(_UNKNOWN_KIND.format("simplex", "cube"))
def test_parse_config_accepts_or_raises_config_error(text):
    # Parsing builds the spec and its certificate but never runs it, so a
    # huge T costs nothing here. The branch-per-kind reference parser must
    # agree: an equal spec, or a ConfigError too.
    try:
        spec = parse_config(text)
    except ConfigError:
        with pytest.raises(ConfigError):
            _config_reference.parse_config(text)
        return
    assert isinstance(spec, ExperimentSpec)
    assert _config_reference.parse_config(text) == spec


# -- bound formulas ----------------------------------------------------------


def test_regret_constants_raw_values():
    # radius 1/2: diameter 1, modulus 2, so the schedule constant is 4096/12
    half = L2Ball(10, 0.5)
    assert certificate(_spec(domain=half)).C == pytest.approx(1024.0 / 3.0, rel=1e-12)
    # lam=1 there: G = lam D = 1, so max(4 (G + lam D)^2 / lam, 288 lam / alpha^2)
    # = max(16, 72)
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    assert certificate(_spec(domain=half, loss=quad, algo=ALGO_SC_OFW)).C == 72.0
    # lam=2 on the simplex: G + lam D = 4 sqrt(2), so 16 * 32 / 2 = 256, and
    # t=9 on the general-set schedule gives 256 * 8^(1/3) = 512
    quad2 = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=2.0)
    simplex = certificate(_spec(domain=Simplex(10), loss=quad2, algo=ALGO_SC_OFW))
    assert simplex.C == pytest.approx(256.0, rel=1e-12)
    assert simplex.gap(9) == pytest.approx(512.0, rel=1e-12)


def test_theorem_constant_dispatch():
    assert certificate(_spec()).C == pytest.approx(4096.0 / 3.0, rel=1e-12)
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    assert certificate(_spec(loss=quad, algo=ALGO_SC_OFW)).C == 288.0
    simplex_spec = ExperimentSpec(
        domain=Simplex(10), loss=quad, algo=ALGO_SC_OFW, horizon=128
    )
    lip = np.sqrt(2.0) + np.sqrt(2.0)  # G + lam D with G = lam D
    assert certificate(simplex_spec).C == pytest.approx(16.0 * lip**2, rel=1e-12)
    assert certificate(_spec(algo=ALGO_OGD)).C is None
    assert certificate(_spec(algo=ALGO_OFW_DECAY)).C is None


def test_theorem_bound_formulas():
    cert = certificate(_spec())
    C = 4096.0 / 3.0
    assert cert.regret_at(1024) == pytest.approx(
        2.75 * math.sqrt(C) * 1026.0 ** (2.0 / 3.0), rel=1e-12
    )
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    sc = _spec(loss=quad, algo=ALGO_SC_OFW)
    assert certificate(sc).regret_at(100) == pytest.approx(
        288.0 * math.sqrt(200.0) + 144.0 * math.log(100.0) + 2.0 * 2.0, rel=1e-12
    )
    simplex_spec = ExperimentSpec(
        domain=Simplex(10), loss=quad, algo=ALGO_SC_OFW, horizon=128
    )
    simplex = certificate(simplex_spec)
    C3 = simplex.C
    G = np.sqrt(2.0)
    expected = (
        3.0 * math.sqrt(2.0) / 8.0 * C3 * 100.0 ** (2.0 / 3.0)
        + C3 * math.log(100.0) / 8.0
        + G * math.sqrt(2.0)
    )
    assert simplex.regret_at(100) == pytest.approx(expected, rel=1e-12)
    assert certificate(_spec(algo=ALGO_OGD)).regret_at(100) is None
    with pytest.raises(ValueError):
        cert.regret_at(0)


def test_gap_bound_values():
    cert = certificate(_spec())
    C = 4096.0 / 3.0
    # the t=1 bound is C/3^(2/3), about 656.38
    assert cert.gap(1) == pytest.approx(C / 3.0 ** (2.0 / 3.0), rel=1e-12)
    assert cert.gap(1) == pytest.approx(656.3838, abs=5e-4)
    assert [cert.gap(t) for t in (0, -2, -3)] == [None] * 3  # no round before round 1
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    sc = certificate(_spec(loss=quad, algo=ALGO_SC_OFW))
    assert sc.gap(1) is None  # no surrogate before round 1
    assert sc.gap(2) == 288.0
    assert sc.gap(500) == 288.0
    simplex = certificate(
        ExperimentSpec(domain=Simplex(10), loss=quad, algo=ALGO_SC_OFW, horizon=128)
    )
    assert simplex.gap(9) == pytest.approx(simplex.C * 2.0, rel=1e-12)
    assert certificate(_spec(algo=ALGO_OGD)).gap(3) is None


@pytest.mark.parametrize(
    "domain, loss, algo",
    [
        (L2Ball(10, 1.0), LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0), ALGO_OFW_LS),
        (LpBall(10, 1.0, 1.5), LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0), ALGO_OFW_LS),
        (L2Ball(10, 1.0), LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0), ALGO_SC_OFW),
        (Simplex(10), LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0), ALGO_SC_OFW),
    ],
    ids=["ofw_ls_l2", "ofw_ls_lp", "sc_ofw_l2", "sc_ofw_simplex"],
)
def test_trace_bounds_equal_scalar_bounds_bit_for_bit(domain, loss, algo):
    # the per-round columns and the certificate's scalar ceilings come
    # from one expression
    T = 4096
    spec = ExperimentSpec(
        domain=domain, loss=loss, algo=algo, horizon=T, gap_check=True, gap_cap=T
    )
    trace = run_experiment(spec)
    cert = certificate(spec)
    regret_off, gap_off = [], []
    for t in range(1, T + 1):
        if trace.theorem_bound[t - 1] != cert.regret_at(t):
            regret_off.append(t)
        expected, column = cert.gap(t), trace.gap_bound[t - 1]
        if not (column == expected or (expected is None and math.isnan(column))):
            gap_off.append(t)
    assert regret_off == [] and gap_off == []
    assert trace.final_bound == cert.regret_at(T)


# -- run_experiment ----------------------------------------------------------


@pytest.mark.parametrize("algo", [ALGO_OFW_LS, ALGO_OFW_DECAY, ALGO_OGD])
def test_single_round_regret_nonnegative(algo):
    trace = run_experiment(_spec(algo=algo, horizon=1))
    assert trace.final_regret >= 0.0


def test_single_round_regret_nonnegative_scofw():
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    trace = run_experiment(_spec(loss=quad, algo=ALGO_SC_OFW, horizon=1))
    assert trace.final_regret >= 0.0


@pytest.mark.parametrize("algo", [ALGO_OFW_LS, ALGO_OFW_DECAY, ALGO_OGD])
def test_zero_adversary_gives_exactly_zero_regret(algo):
    spec = _spec(algo=algo, horizon=16)
    trace = run_experiment(spec, rounds=zero_rounds(16, 10))
    assert trace.final_regret == 0.0
    assert np.all(trace.loss == 0.0)
    assert np.all(trace.regret == 0.0)


def test_horizon_beyond_array_length_refused_and_huge_horizon_fails_fast():
    with pytest.raises(ValueError, match="array length"):
        _spec(algo=ALGO_OGD, horizon=np.iinfo(np.intp).max + 1)
    # The trace arrays are allocated before any round is generated, so a
    # horizon no array can hold fails at once rather than after T rounds.
    with pytest.raises(ValueError):
        run_experiment(_spec(algo=ALGO_OGD, horizon=np.iinfo(np.intp).max))


def test_injected_rounds_length_checked():
    with pytest.raises(ValueError):
        run_experiment(_spec(horizon=4), rounds=zero_rounds(1, 10))


def test_horizon_too_long_to_log_is_a_config_error_before_any_round(monkeypatch):
    def no_rounds(*args):
        raise AssertionError("rounds generated for a horizon that cannot be logged")

    monkeypatch.setattr(ofwkit.harness, "round_chunks", no_rounds)
    spec = _spec(algo=ALGO_OGD, horizon=2**62)
    with pytest.raises(ConfigError, match="too long to log"):
        run_experiment(spec)
    with pytest.raises(ConfigError, match="too long to log"):
        sweep(spec, [16, 2**62])


@pytest.mark.parametrize(
    "domain",
    [L2Ball(2**61, 1.0), Simplex(2**61), L1Ball(10**400, 1.0)],
    ids=lambda d: type(d).__name__,
)
def test_a_set_dim_too_large_to_allocate_is_a_config_error_before_any_round(domain, monkeypatch):
    # numpy refuses these sizes before it allocates anything.
    def no_rounds(*args):
        raise AssertionError("rounds generated for a set too large to allocate")

    monkeypatch.setattr(ofwkit.harness, "round_chunks", no_rounds)
    spec = _spec(domain=domain, loss=LossSpec(kind=LINEAR, dim=domain.dim, seed=1, G=1.0))
    message = f"^set.dim {domain.dim} is too large to allocate: "
    with pytest.raises(ConfigError, match=message):
        run_experiment(spec)
    with pytest.raises(ConfigError, match=message):
        sweep(spec, [16, 128])


def test_spec_refuses_a_loss_dim_other_than_the_set_dim():
    with pytest.raises(ValueError, match="^loss dim 5 does not match set dim 10$"):
        _spec(loss=LossSpec(kind=LINEAR, dim=5, seed=1, G=1.0))


def _bad_rounds(case):
    """(spec, the injected rounds, the error they raise)."""
    linear = np.zeros((8, 10))
    quad_spec = _spec(loss=LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0), horizon=8)
    quad = 0.1 * np.random.default_rng(3).standard_normal((8, 10))
    if case == "dim":
        wrong = r"^expected rounds of shape \(8, 10\), got \(8, 9\)$"
        return _spec(horizon=8), np.zeros((8, 9)), wrong
    if case == "missing":
        # A row of missing entries reads as NaN.
        rows = linear.tolist()
        rows[6] = [None] * 10
        return _spec(horizon=8), rows, "^round 7 has non-finite data$"
    if case == "non_finite":
        quad[3] = np.nan
        return quad_spec, quad, "^round 4 has non-finite data$"
    # Of two non-finite rounds, the earlier one is named.
    linear[5, 0] = -np.inf
    linear[1, 9] = np.inf
    return _spec(horizon=8), linear, "^round 2 has non-finite data$"


@pytest.mark.parametrize("case", ["dim", "missing", "non_finite", "first"])
def test_injected_rounds_checked_before_the_learner_moves(case, monkeypatch):
    def no_update(*args):
        raise AssertionError("the learner moved before the rounds were checked")

    monkeypatch.setattr(ofwkit.harness, "ofw_update", no_update)
    spec, data, message = _bad_rounds(case)
    with pytest.raises(ValueError, match=message):
        run_experiment(spec, rounds=data)


@pytest.mark.parametrize(
    "domain",
    [L2Ball(10, 1.0), LpBall(10, 1.0, 1.5), L1Ball(10, 1.0), Simplex(10)],
    ids=["l2_ball", "lp_ball", "l1_ball", "simplex"],
)
def test_injected_quadratic_targets_must_lie_in_the_set(domain, monkeypatch):
    # The certified G = lam * D holds for feasible targets only. A target 1%
    # beyond a vertex is refused before the learner moves, naming the first
    # such round; one within the rounding slack plays, and linear rounds are
    # not held to the set.
    def no_update(*args):
        raise AssertionError("the learner moved before the rounds were checked")

    quadratic = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    spec = _spec(domain=domain, loss=quadratic, horizon=8)
    vertex = domain.lmo(-np.eye(10)[0])
    rows = np.tile(domain.anchor(), (8, 1))
    rows[[5, 6]] = 1.01 * vertex
    monkeypatch.setattr(ofwkit.harness, "ofw_update", no_update)
    with pytest.raises(ValueError, match="^round 6 has a target outside the set$"):
        run_experiment(spec, rounds=rows)
    monkeypatch.undo()
    rows[[5, 6]] = (1.0 + 1e-8) * vertex
    assert np.isfinite(run_experiment(spec, rounds=rows).final_regret)
    linear = _spec(domain=domain, loss=LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0), horizon=8)
    assert np.isfinite(run_experiment(linear, rounds=100.0 * rows).final_regret)


@pytest.mark.parametrize("gap_check", [False, True])
def test_a_run_keeps_a_blocks_gradients_only_to_measure_its_gaps(gap_check, monkeypatch):
    # Each gradient is a fresh array here; count those still alive at each update.
    alive, held = [], []

    def fresh_gradient(*args):
        g = np.array(gradient_at(*args))
        alive.append(weakref.ref(g))
        return g

    def counted_update(state, g):
        held.append(sum(ref() is not None for ref in alive))
        return ofw_update(state, g)

    monkeypatch.setattr(ofwkit.harness, "gradient_at", fresh_gradient)
    monkeypatch.setattr(ofwkit.harness, "ofw_update", counted_update)
    T = 2 * BLOCK_ROWS + 5
    run_experiment(_spec(horizon=T, gap_check=gap_check, gap_cap=T))
    assert len(held) == T
    assert max(held) == (BLOCK_ROWS if gap_check else 1)


def test_complex_input_is_refused_at_every_entry_point():
    # numpy would keep the real parts, with only a warning; every check
    # refuses complex values before it converts them, so nothing warns.
    g = np.array([1 + 5j] + [0.0] * 9)
    rows = np.vstack([g, g])
    domain = L2Ball(10, 1.0)
    calls = [
        partial(as_vector, g),
        partial(as_vector, g.tolist()),
        partial(as_vector_and_norm, g, 10),
        partial(as_rows, rows, 10),
        partial(as_rows, rows.tolist(), 10),
    ]
    for dom in (domain, LpBall(10, 1.0, 1.5), L1Ball(10, 1.0), Simplex(10)):
        calls += [partial(f, g) for f in (dom.lmo, dom.project, dom.contains)]
        calls += [partial(f, rows) for f in (dom.lmo_rows, dom.project_rows, dom.contains_rows)]
    calls += [
        partial(ofw_update, ofw_init(domain, 8, 1.0), g),
        partial(ofw_decay_update, ofw_decay_init(domain, 8, 1.0), g),
        partial(scofw_update, scofw_init(domain, 1.0), g),
        partial(baseline_update, ogd_init(domain, 1.0), g),
        partial(as_rounds, rows.tolist()),
        lambda: run_experiment(_spec(horizon=2), rounds=rows),
    ]
    message = "^(vector has|rows have|rounds have) complex (entries|data)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


def test_injected_rounds_are_stacked_once_into_read_only_rows():
    spec, rows = _spec(horizon=8), np.zeros((8, 10))
    rounds = as_rounds(rows)
    assert not rounds.flags.writeable
    with pytest.raises(ValueError):
        rounds[0, 0] = np.nan
    assert run_experiment(spec, rounds=rounds).loss.tolist() == [0.0] * 8


@pytest.mark.parametrize(("loss", "algo"), [(LINEAR, ALGO_OFW_LS), (QUADRATIC, ALGO_SC_OFW)])
def test_only_the_learner_calls_the_vector_lmo_once_per_round_and_nothing_projects(
    loss, algo, monkeypatch
):
    # The comparator column and the comparator point's certificate use the
    # row oracles, so every vector lmo call is the learner's, one per round
    # played: T for a run, the sum of its horizons for a sweep.
    spec = _spec(loss=LossSpec(kind=loss, dim=10, seed=2, G=1.0, lam=1.0), algo=algo, horizon=200)
    calls = {"lmo": 0, "project": 0}

    def counted(name):
        method = getattr(type(spec.domain), name)

        def call(self, g):
            calls[name] += 1
            return method(self, g)

        return call

    for name in calls:
        monkeypatch.setattr(type(spec.domain), name, counted(name))
    run_experiment(spec)
    assert calls == {"lmo": 200, "project": 0}
    calls.update(lmo=0)
    sweep(spec, [50, 120, 200])
    assert calls == {"lmo": 50 + 120 + 200, "project": 0}


def test_sweep_and_runs_never_recheck_or_rebuild_their_own_rounds(monkeypatch):
    def no_check(*args):
        raise AssertionError("rounds built by round_chunks were checked again")

    built = []

    def counted_round_chunks(*args):
        built.append(args)
        return round_chunks(*args)

    spec = _spec(horizon=300, gap_check=True, gap_cap=5)
    expected = sweep(spec, [16, 100, 300])
    for module in (ofwkit.losses, ofwkit.harness, ofwkit.oracle):
        monkeypatch.setattr(module, "as_rounds", no_check, raising=False)
    monkeypatch.setattr(ofwkit.harness, "round_chunks", counted_round_chunks)
    assert sweep(spec, [16, 100, 300]).regrets == expected.regrets
    assert len(built) == 1
    assert run_experiment(spec).final_regret == expected.regrets[-1]
    assert len(built) == 2


_BLOCK_SETS = [L2Ball(6, 1.5), LpBall(6, 1.2, 1.5), L1Ball(6, 2.0), Simplex(6)]


@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_block_bookkeeping_equals_round_by_round_reference(domain, kind):
    # T = 513 crosses two block boundaries.
    spec = _spec(
        domain=domain,
        loss=LossSpec(kind=kind, dim=6, seed=11, G=1.0, lam=0.7),
        algo=ALGO_OFW_LS,
        horizon=513,
        gap_check=True,
        gap_cap=40,
    )
    trace = run_experiment(spec)
    rounds = seeded_rounds(spec.loss, 513, domain)
    lam = certify_constants(spec.loss, domain)[1]
    comp = reference.prefix_comparators(domain, kind, lam, rounds)
    cum = reference.running_sum(trace.loss.tolist())
    assert trace.comparator_cum.tobytes() == comp.tobytes()
    assert trace.cum_loss.tobytes() == cum.tobytes()
    assert trace.regret.tobytes() == (cum - comp).tobytes()
    x_star, total = reference.offline_comparator(domain, kind, lam, rounds)
    assert trace.comparator_point.tobytes() == x_star.tobytes()
    assert trace.comparator_total == total
    assert emit_csv(trace) == reference.emit_csv(trace)


_GAP_RUNS = [
    (ALGO_OFW_LS, LINEAR),
    (ALGO_OFW_LS, QUADRATIC),
    (ALGO_SC_OFW, QUADRATIC),
    (ALGO_OFW_DECAY, LINEAR),
    (ALGO_OFW_DECAY, QUADRATIC),
]


@pytest.mark.parametrize("T, gap_cap", [(1, 512), (63, 64), (64, 64), (65, 64), (200, 129), (300, 0), (40, 512)])
@pytest.mark.parametrize("algo, kind", _GAP_RUNS)
@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
def test_block_gaps_equal_round_by_round_reference(domain, algo, kind, T, gap_cap):
    # Gap caps one short of, at and one past a block, and past T.
    spec = _spec(
        domain=domain,
        loss=LossSpec(kind=kind, dim=6, seed=7, G=1.0, lam=0.7),
        algo=algo,
        horizon=T,
        gap_check=True,
        gap_cap=gap_cap,
    )
    trace = run_experiment(spec)
    gap, gap_bound = _gap_reference.gap_columns(spec)
    assert trace.gap.tobytes() == gap.tobytes()
    assert trace.gap_bound.tobytes() == gap_bound.tobytes()


def test_a_failed_gap_certificate_names_its_round(monkeypatch):
    # Round 1's surrogate is minimized at the anchor, which is kept without
    # a projection; from round 2 on a wrong projection fails the check.
    monkeypatch.setattr(L2Ball, "project", lambda self, x: 0.5 * x)
    monkeypatch.setattr(L2Ball, "project_rows", lambda self, x: 0.5 * x)
    spec = _spec(horizon=100, gap_check=True, gap_cap=100)
    with pytest.raises(ofwkit.oracle.ConvergenceError, match=r"^round 2: "):
        run_experiment(spec)


@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
def test_block_comparator_resolves_ties_like_the_lmo(domain):
    # Gradients +g, -g, ... bring every even prefix sum back to exactly
    # zero, so tie rows and ordinary rows share each block.
    g = np.random.default_rng(4).standard_normal(6)
    rounds = as_rounds([g if t % 2 else -g for t in range(1, 301)])
    spec = _spec(domain=domain, loss=LossSpec(kind=LINEAR, dim=6, seed=1, G=1.0), horizon=300)
    trace = run_experiment(spec, rounds=rounds)
    comp = reference.prefix_comparators(domain, LINEAR, 0.0, rounds)
    assert trace.comparator_cum.tobytes() == comp.tobytes()
    assert np.all(trace.comparator_cum[1::2] == 0.0)


_ALGO_LOSS_PAIRS = [
    (ALGO_OFW_LS, LINEAR),
    (ALGO_OFW_LS, QUADRATIC),
    (ALGO_SC_OFW, QUADRATIC),
    (ALGO_OFW_DECAY, LINEAR),
    (ALGO_OFW_DECAY, QUADRATIC),
    (ALGO_OGD, LINEAR),
    (ALGO_OGD, QUADRATIC),
]


def _same_traces(a, b):
    for f in fields(RegretTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("algo, kind", _ALGO_LOSS_PAIRS)
@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
def test_streamed_run_equals_a_run_on_its_whole_rounds(domain, algo, kind):
    # Horizons one short of, at and one past a block and a chunk of the
    # stream (1024 rounds); a gap cap of 1030 crosses the first chunk's end.
    loss = LossSpec(kind=kind, dim=6, seed=7, G=1.0, lam=0.7)
    whole = seeded_rounds(loss, 2100, domain)
    for gap_cap in (5, 1030):
        for T in (1, 63, 64, 1023, 1024, 1025, 2100):
            spec = _spec(
                domain=domain, loss=loss, algo=algo, horizon=T, gap_check=True, gap_cap=gap_cap
            )
            _same_traces(run_experiment(spec), run_experiment(spec, whole[:T]))


@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
def test_injected_rounds_play_as_the_seeded_stream_in_any_layout(domain):
    # Seeded rows injected into a linear spec that carries an unused lam,
    # and into a quadratic spec, are played with the spec's kind and
    # certified lam: the trace is the seeded run's. A nested list, float32,
    # Fortran-ordered and strided copies of the same rows play alike.
    for kind, algo in ((LINEAR, ALGO_OFW_LS), (QUADRATIC, ALGO_SC_OFW)):
        loss = LossSpec(kind=kind, dim=6, seed=13, G=1.0, lam=0.7)
        spec = _spec(domain=domain, loss=loss, algo=algo, horizon=130, gap_check=True, gap_cap=70)
        rows = seeded_rounds(loss, 130, domain)
        _same_traces(run_experiment(spec, rounds=rows), run_experiment(spec))
        exact = rows.astype(np.float32).astype(np.float64)
        strided = np.zeros((130, 12))
        strided[:, ::2] = exact
        expected = run_experiment(spec, rounds=np.ascontiguousarray(exact))
        layouts = [exact.tolist(), exact.astype(np.float32), np.asfortranarray(exact)]
        for layout in layouts + [strided[:, ::2]]:
            _same_traces(run_experiment(spec, rounds=layout), expected)


def test_fortran_ordered_rounds_reach_the_learner_as_contiguous_rows(monkeypatch):
    # as_rounds returns C-ordered rows, so each linear round's gradient is a
    # contiguous row that the learner update takes without as_vector.
    spec = _spec(horizon=150)
    rows = seeded_rounds(spec.loss, 150, spec.domain)
    expected = run_experiment(spec, rounds=rows)
    checked = []
    as_vector = ofwkit.learners.as_vector

    def counted_as_vector(*args):
        checked.append(args)
        return as_vector(*args)

    monkeypatch.setattr(ofwkit.learners, "as_vector", counted_as_vector)
    trace = run_experiment(spec, rounds=np.asfortranarray(rows))
    assert checked == []
    _same_traces(trace, expected)


@pytest.mark.parametrize("algo, kind", _ALGO_LOSS_PAIRS)
@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
def test_sweep_across_chunk_ends_equals_separate_runs(domain, algo, kind):
    spec = _spec(domain=domain, loss=LossSpec(kind=kind, dim=6, seed=3, G=1.0, lam=0.7), algo=algo)
    horizons = [1000, 1024, 1025, 2100]
    result = sweep(spec, horizons)
    runs = [run_experiment(replace(spec, horizon=h)) for h in horizons]
    assert result.horizons == horizons
    assert result.regrets == [r.final_regret for r in runs]
    assert result.bounds == [r.final_bound for r in runs]


def test_sweep_fails_the_comparator_certificate_where_its_run_does(monkeypatch):
    # A projection that halves the mean target of rounds 1..200, and only
    # that row, fails the comparator point's certificate at T = 200 alone.
    loss = LossSpec(kind=QUADRATIC, dim=10, seed=5, lam=1.0)
    spec = _spec(loss=loss, algo=ALGO_SC_OFW)
    targets = seeded_rounds(loss, 200, spec.domain)
    mean = prefix_sums(targets, np.zeros(10))[-1] / 200.0
    project_rows = L2Ball.project_rows

    def wrong_at_200(self, x):
        p = project_rows(self, x)
        p[(x == mean).all(axis=1)] *= 0.5
        return p

    monkeypatch.setattr(L2Ball, "project_rows", wrong_at_200)
    for h in (100, 300):
        run_experiment(replace(spec, horizon=h))
    with pytest.raises(ofwkit.oracle.ConvergenceError) as from_run:
        run_experiment(replace(spec, horizon=200))
    with pytest.raises(ofwkit.oracle.ConvergenceError) as from_sweep:
        sweep(spec, [100, 200, 300])
    assert str(from_sweep.value) == str(from_run.value)


def test_csv_blocks_join_to_emit_csv_one_block_of_rows_at_a_time():
    trace = run_experiment(_spec(horizon=130, gap_check=True, gap_cap=5))
    blocks = list(csv_blocks(trace))
    assert "".join(blocks) == emit_csv(trace)
    assert blocks[0] == CSV_HEADER + "\n"
    assert [b.count("\n") for b in blocks[1:]] == [64, 64, 2]


@pytest.mark.parametrize(
    "loss, algo",
    [
        (LossSpec(kind=LINEAR, dim=100, seed=1, G=1.0), ALGO_OFW_LS),
        (LossSpec(kind=QUADRATIC, dim=100, seed=2, lam=1.0), ALGO_SC_OFW),
    ],
)
def test_a_long_run_holds_one_chunk_of_rounds_not_all_of_them(loss, algo):
    # All 2^14 rounds at dim 100 would take 13.1 MB; the logs take 1 MB.
    spec = _spec(domain=L2Ball(100, 1.0), loss=loss, algo=algo, horizon=2**14)
    tracemalloc.start()
    try:
        run_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize(
    "loss, algo",
    [
        (LossSpec(kind=LINEAR, dim=100, seed=1, G=1.0), ALGO_OFW_LS),
        (LossSpec(kind=QUADRATIC, dim=100, seed=2, lam=1.0), ALGO_SC_OFW),
    ],
)
def test_writing_the_csv_holds_less_memory_than_the_run(loss, algo):
    # The formatter's workspace must fit in what the run frees: its round
    # chunk alone is 1024 x 100 floats.
    spec = _spec(domain=L2Ball(100, 1.0), loss=loss, algo=algo, horizon=2**14)
    tracemalloc.start()
    try:
        trace = run_experiment(spec)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in csv_blocks(trace):
            pass
        csv_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csv_peak < run_peak


def test_emit_csv_matches_per_cell_formatting_on_special_values():
    trace = run_experiment(_spec(horizon=300, gap_check=True, gap_cap=5))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1.5])
    column = np.resize(special, 300)
    odd = replace(
        trace,
        loss=column,
        cum_loss=column[::-1].copy(),
        comparator_cum=np.roll(column, 3),
        theorem_bound=np.full(300, np.nan),
    )
    text = emit_csv(odd)
    assert text == reference.emit_csv(odd)
    assert text.split("\n")[1].split(",")[1] == ""
    assert [line.split(",")[1] for line in text.split("\n")[2:5]] == ["inf", "-inf", "-0"]


def _percent_17g_lines(block):
    """The reference text of a block of rows: '%.17g' per cell, NaN as ''."""
    return "".join(
        ",".join("" if x != x else "%.17g" % x for x in row) + "\n" for row in block.tolist()
    )


def _format_in_blocks(values, cols=8, rows=8 * 64):
    """Rows of ``cols`` of ``values`` (NaN-padded) and their text from one
    formatter, ``rows`` rows at a time, with each call's pieces."""
    values = np.concatenate([values, np.full(-len(values) % cols, np.nan)]).reshape(-1, cols)
    formatter = ofwkit.csvtext.CellFormatter(min(len(values), rows), cols)
    pieces = []
    with warnings.catch_warnings():
        # main runs this way: a NaN-to-int cast must not happen.
        warnings.simplefilter("error", RuntimeWarning)
        for start in range(0, len(values), rows):
            block = values[start : start + rows]
            formatter.values[: len(block)] = block
            pieces.append(formatter.pieces(len(block)))
    return values, pieces


def _formatter_cases():
    rng = np.random.default_rng(20)
    n = 4000
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    powers = [10.0**j for j in range(-5, 19)]
    near = [np.nextafter(x, to) for x in powers for to in (0.0, np.inf)]
    # 40 doubles either side of each power of ten from 1e-5 to 1e17.
    bits = np.array([float(f"1e{j}") for j in range(-5, 18)]).view(np.int64)
    around = (bits[:, None] + np.arange(-40, 41)).view(np.float64).ravel()
    # 16-digit integers below 2**51, where n + 0.25 is a double.
    ints = rng.integers(10**15, 2**51, 500).astype(float)
    # 17-digit values whose last 8 digits sit at the edges of their group.
    prefixes = rng.integers(10**8, 10**9, 400)
    tails = ["00000000", "00000001", "00000008", "99999992", "99999998", "99999999"]
    edges = [
        sign * float(f"{p // 10**8}.{p % 10**8:08d}{tail}e{k}")
        for p, k in zip(prefixes, rng.integers(-4, 17, 400))
        for tail in tails
        for sign in (1.0, -1.0)
    ]
    return {
        "group_edges": np.array(edges),
        "magnitudes": signs * 10.0 ** rng.uniform(-30, 30, n),
        "bit_patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        "special": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]),
        "powers_of_ten": np.array(powers + near + [1e-4, 1e17, -1e-4, -1e17]),
        "power_of_ten_neighbourhoods": np.concatenate([around, -around]),
        "halfway": np.concatenate([ints + 0.5, ints + 0.25, ints + 0.75, -(ints + 0.25)]),
        "round_numbers": np.arange(1.0, 2**20 + 1),
    }


def test_exponent_table_holds_the_least_double_at_or_above_each_power_of_ten():
    # The formatter's k + 5 counts the entries <= |v|, and below the next
    # power of ten N = round(|v| * 10**(16 - k)) must not carry to 10**17.
    table = ofwkit.csvtext._POW10.tolist()
    assert table == [float(f"1e{k}") for k in range(-4, 17)]
    assert Fraction(1e17) == 10**17
    for k, (least, next_least) in enumerate(zip(table, table[1:] + [1e17]), -4):
        assert Fraction(least) >= Fraction(10) ** k > Fraction(float(np.nextafter(least, 0.0)))
        top = Fraction(float(np.nextafter(next_least, 0.0)))
        assert top * Fraction(10) ** (16 - k) < 10**17 - Fraction(1, 2)


@pytest.mark.parametrize("case", sorted(_formatter_cases()))
def test_cell_formatter_writes_percent_17g_byte_for_byte(case):
    values, pieces = _format_in_blocks(_formatter_cases()[case])
    assert "".join(map("".join, pieces)) == _percent_17g_lines(values)


def test_cell_formatter_rounds_the_17th_digit_half_to_even():
    _, pieces = _format_in_blocks(np.array([1234567890123456.75, 1234567890123456.25]), cols=1)
    assert pieces == [["1234567890123456.8\n1234567890123456.2\n"]]
    _, pieces = _format_in_blocks(np.array([float(t) for t in range(1, 2**20 + 1)]), cols=1)
    assert "".join(map("".join, pieces)) == "".join("%d\n" % t for t in range(1, 2**20 + 1))


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 1000])
def test_cell_formatter_yields_one_piece_per_block_of_rows(rows):
    rng = np.random.default_rng(rows)
    values = rng.normal(size=rows * 8) * 10.0 ** rng.uniform(-6, 6, rows * 8)
    values[rng.random(values.size) < 0.1] = np.nan
    values, pieces = _format_in_blocks(values)
    assert "".join(map("".join, pieces)) == _percent_17g_lines(values)
    for block in pieces:
        counts = [piece.count("\n") for piece in block]
        assert all(piece.endswith("\n") for piece in block)
        assert counts[:-1] == [64] * (len(counts) - 1) and 1 <= counts[-1] <= 64


_MATRIX_SETS = [L2Ball(12, 1.0), LpBall(12, 1.0, 1.5), L1Ball(12, 1.0), Simplex(12)]
_MATRIX_PAIRS = [
    (ALGO_OFW_LS, LINEAR),
    (ALGO_OFW_DECAY, LINEAR),
    (ALGO_OGD, LINEAR),
    (ALGO_OFW_LS, QUADRATIC),
    (ALGO_SC_OFW, QUADRATIC),
    (ALGO_OFW_DECAY, QUADRATIC),
    (ALGO_OGD, QUADRATIC),
]


@pytest.mark.parametrize("domain", _MATRIX_SETS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("algo, kind", _MATRIX_PAIRS)
def test_config_matrix_csv_equals_per_cell_formatting(domain, algo, kind):
    # T = 600 spans two formatter blocks of 512 rows and ends mid-block.
    loss = LossSpec(kind=kind, dim=12, seed=5, G=1.0, lam=1.0)
    spec = _spec(domain=domain, loss=loss, algo=algo, horizon=600, gap_check=True, gap_cap=300)
    trace = run_experiment(spec)
    assert emit_csv(trace) == reference.emit_csv(trace)
    result = sweep(spec, [50, 100, 200, 400, 600])
    cell = lambda x: "" if x is None else format(x, ".17g")
    expected = [SWEEP_CSV_HEADER.split(",")] + [
        [str(h), cell(r), cell(b), cell(result.slope)]
        for h, r, b in zip(result.horizons, result.regrets, result.bounds)
    ]
    assert list(csv.reader(io.StringIO(sweep_csv(result)))) == expected


def test_trace_shapes_and_cumulative_consistency():
    trace = run_experiment(_spec(horizon=64))
    assert trace.rounds.shape == (64,)
    np.testing.assert_array_equal(trace.rounds, np.arange(1, 65))
    np.testing.assert_allclose(trace.cum_loss, np.cumsum(trace.loss), rtol=1e-12)
    np.testing.assert_allclose(
        trace.regret, trace.cum_loss - trace.comparator_cum, rtol=1e-12
    )
    # prefix comparators only improve as more rounds arrive, so per-round
    # regret is nonnegative throughout
    assert np.all(trace.regret >= -1e-9)


def test_final_regret_matches_offline_comparator():
    # The comparator total and the final regret are the last cells of their
    # columns, and the comparator point is feasible.
    for domain in _BLOCK_SETS:
        loss = LossSpec(kind=LINEAR, dim=6, seed=1, G=1.0)
        trace = run_experiment(_spec(domain=domain, loss=loss, horizon=300))
        assert trace.final_regret == trace.regret[-1], domain
        assert trace.comparator_total == trace.comparator_cum[-1], domain
        assert domain.contains(trace.comparator_point, 1e-9)


def test_final_regret_matches_offline_comparator_quadratic():
    for domain in _BLOCK_SETS:
        loss = LossSpec(kind=QUADRATIC, dim=6, seed=3, lam=0.7)
        for algo in (ALGO_SC_OFW, ALGO_OFW_LS, ALGO_OGD):
            trace = run_experiment(_spec(domain=domain, loss=loss, algo=algo, horizon=300))
            assert trace.final_regret == trace.regret[-1], (domain, algo)
            assert trace.comparator_total == trace.comparator_cum[-1], (domain, algo)
            assert domain.contains(trace.comparator_point, 1e-9)


def test_run_is_deterministic():
    a = run_experiment(_spec(horizon=64, gap_check=True, gap_cap=16))
    b = run_experiment(_spec(horizon=64, gap_check=True, gap_cap=16))
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.regret, b.regret)
    assert a.final_regret == b.final_regret
    assert emit_csv(a) == emit_csv(b)


def test_seed_changes_the_run():
    a = run_experiment(_spec(horizon=32))
    b = run_experiment(_spec(loss=LossSpec(kind=LINEAR, dim=10, seed=2, G=1.0), horizon=32))
    assert not np.array_equal(a.loss, b.loss)


def test_golden_final_regret_values():
    # frozen from the first verified run; guards against silent behavior drift
    ofw = run_experiment(_spec(horizon=1024))
    assert ofw.final_regret == pytest.approx(20.164531864257587, rel=1e-9)
    sc = run_experiment(
        _spec(
            loss=LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0),
            algo=ALGO_SC_OFW,
            horizon=1024,
        )
    )
    assert sc.final_regret == pytest.approx(3.0961026445073117, rel=1e-9)


@pytest.mark.parametrize(
    "algo,domain,loss,golden",
    [
        (
            ALGO_OFW_LS,
            LpBall(10, 1.0, 1.5),
            LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0),
            (0.002174723740315205, 2.076080805955675e-05, 1.4560880522233302e-05,
             2.3945309457269748e-05),
        ),
        (
            ALGO_SC_OFW,
            Simplex(10),
            LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0),
            (0.3760912464487418, 0.023550114225872054, 0.017876459877983447,
             0.0011393763760734754),
        ),
        (
            ALGO_OFW_DECAY,
            L2Ball(10, 1.0),
            LossSpec(kind=LINEAR, dim=10, seed=1, G=1.0),
            (2.4597895026443446, 0.98443603515625, 0.03698814966153607,
             0.0022268827883435514),
        ),
    ],
)
def test_golden_gap_values(algo, domain, loss, golden):
    # frozen like the regret goldens: the gap column's sum and its rounds
    # 2, 10 and 128
    spec = _spec(domain=domain, loss=loss, algo=algo, horizon=256, gap_check=True, gap_cap=128)
    gap = run_experiment(spec).gap
    assert (~np.isnan(gap)).sum() == (127 if algo == ALGO_SC_OFW else 128)
    got = (np.nansum(gap), gap[1], gap[9], gap[127])
    assert got == pytest.approx(golden, rel=1e-9)


def test_gap_measurement_respects_cap_and_definition():
    trace = run_experiment(_spec(horizon=64, gap_check=True, gap_cap=24))
    measured = ~np.isnan(trace.gap)
    assert measured[:24].all() and not measured[24:].any()
    assert trace.gap[0] == pytest.approx(0.0, abs=1e-9)  # x1 minimizes F_1
    assert np.all(trace.gap[measured] >= -1e-9)
    assert np.all(trace.gap_bound[measured] > 0)


def test_gap_column_empty_when_disabled():
    trace = run_experiment(_spec(horizon=16))
    assert np.isnan(trace.gap).all() and np.isnan(trace.gap_bound).all()


def test_scofw_first_round_gap_unmeasured():
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    trace = run_experiment(_spec(loss=quad, algo=ALGO_SC_OFW, horizon=16, gap_check=True))
    assert np.isnan(trace.gap[0])
    assert not np.isnan(trace.gap[1:16]).any()


def test_baseline_runs_have_no_bound_column():
    trace = run_experiment(_spec(algo=ALGO_OGD, horizon=8))
    assert trace.final_bound is None
    assert np.isnan(trace.theorem_bound).all()


def test_regret_bound_holds_on_small_runs():
    for horizon in (1, 2, 3, 17, 64):
        trace = run_experiment(_spec(horizon=horizon))
        assert trace.final_regret <= trace.final_bound
        assert np.all(trace.regret <= trace.theorem_bound)


# -- CSV ---------------------------------------------------------------------


def test_emit_csv_layout_and_roundtrip():
    trace = run_experiment(_spec(horizon=12, gap_check=True, gap_cap=6))
    text = emit_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 13
    rows = list(csv.DictReader(io.StringIO(text)))
    for i, row in enumerate(rows):
        assert int(row["t"]) == i + 1
        # 17 significant digits round-trip float64 exactly
        assert float(row["loss"]) == trace.loss[i]
        assert float(row["regret"]) == trace.regret[i]
        assert float(row["theorem_bound"]) == trace.theorem_bound[i]
        if i < 6:
            assert float(row["gap"]) == trace.gap[i]
        else:
            assert row["gap"] == "" and row["gap_bound"] == ""


def test_emit_csv_empty_bound_cells_for_baselines():
    trace = run_experiment(_spec(algo=ALGO_OGD, horizon=3))
    rows = list(csv.DictReader(io.StringIO(emit_csv(trace))))
    assert all(r["theorem_bound"] == "" for r in rows)


# -- slope and sweep ---------------------------------------------------------


def test_loglog_slope_exact_power():
    pts = [(2.0**k, (2.0**k) ** (2.0 / 3.0)) for k in range(4, 10)]
    assert loglog_slope(pts) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_loglog_slope_constant_sequence():
    assert loglog_slope([(10.0, 5.0), (100.0, 5.0), (1000.0, 5.0)]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_loglog_slope_validation():
    with pytest.raises(ValueError):
        loglog_slope([(10.0, 10.0), (100.0, 100.0)])
    with pytest.raises(ValueError):
        loglog_slope([(10.0, 1.0), (10.0, 2.0), (20.0, 3.0)])
    # nonpositive regrets are dropped; too few survivors is an error
    with pytest.raises(ValueError):
        loglog_slope([(10.0, -1.0), (20.0, 0.0), (40.0, 1.0), (80.0, 2.0)])
    assert loglog_slope(
        [(10.0, -1.0), (20.0, 2.0), (40.0, 4.0), (80.0, 8.0), (160.0, 16.0)]
    ) == pytest.approx(1.0, abs=1e-12)
    # T must be finite and positive, and regret finite; the error names the point
    bad_points = [
        [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
        [(-2.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
        [(1.0, 1.0), (2.0, 2.0), (math.inf, 3.0)],
        [(1.0, 1.0), (2.0, 2.0), (math.nan, 3.0)],
        [(1.0, 1.0), (2.0, math.inf), (4.0, 3.0)],
        [(1.0, 1.0), (2.0, math.nan), (4.0, 3.0)],
        [(1.0, -math.inf), (2.0, 2.0), (4.0, 3.0), (8.0, 4.0)],
    ]
    for points in bad_points:
        with pytest.raises(ValueError, match="point"):
            loglog_slope(points)


def test_sweep_runs_fresh_learners_and_fits_slope():
    result = sweep(_spec(horizon=8), [16, 32, 64, 128])
    assert result.horizons == [16, 32, 64, 128]
    assert len(result.regrets) == 4
    # each horizon reruns from scratch; the 64-run must agree with a
    # direct run at T=64
    direct = run_experiment(_spec(horizon=64))
    assert result.regrets[2] == direct.final_regret
    assert result.slope is not None
    text = sweep_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "T,regret,theorem_bound,slope"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "algo,kind",
    [
        (ALGO_OFW_LS, LINEAR),
        (ALGO_OFW_LS, QUADRATIC),
        (ALGO_SC_OFW, QUADRATIC),
        (ALGO_OFW_DECAY, LINEAR),
        (ALGO_OFW_DECAY, QUADRATIC),
        (ALGO_OGD, LINEAR),
        (ALGO_OGD, QUADRATIC),
    ],
)
def test_sweep_equals_separate_runs_bit_for_bit(algo, kind):
    loss = LossSpec(kind=kind, dim=10, seed=5, G=1.0, lam=1.0)
    spec = _spec(loss=loss, algo=algo, horizon=8)
    horizons = [16, 48, 100, 200]
    result = sweep(spec, horizons)
    for k, h in enumerate(horizons):
        trace = run_experiment(replace(spec, horizon=h))
        assert result.regrets[k] == trace.final_regret
        assert result.bounds[k] == trace.final_bound


def test_sweep_measures_no_gaps(monkeypatch):
    # Sweeps keep only final regrets and bounds, so a gap_check spec sweeps
    # without calling the gap oracle.
    spec = _spec(
        loss=LossSpec(kind=QUADRATIC, dim=10, seed=5, lam=1.0),
        algo=ALGO_SC_OFW,
        gap_check=True,
        gap_cap=64,
    )
    expected = sweep(replace(spec, gap_check=False), [16, 48, 100])

    def refuse(*args, **kwargs):
        raise AssertionError("sweep called the gap oracle")

    monkeypatch.setattr(ofwkit.harness, "surrogate_gaps", refuse)
    result = sweep(spec, [16, 48, 100])
    assert result.regrets == expected.regrets and result.bounds == expected.bounds


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(_spec(), [])
    with pytest.raises(ValueError):
        sweep(_spec(), [32, 32])
    # every horizon is checked before the first run
    with pytest.raises(ConfigError, match="horizon"):
        sweep(_spec(), [0, 10**9])
    # horizons are integral numbers: no truncation, no bools
    for horizons in ([16.7, 32.2, 64.9], [True, 2, 3], [16, np.bool_(True)], [16, "32"], [16, math.inf]):
        with pytest.raises(ConfigError, match="horizons must be integers"):
            sweep(_spec(), horizons)
    numpy_ints = sweep(_spec(), [np.int64(16), np.int32(32), 64.0])
    assert numpy_ints.horizons == [16, 32, 64]
    assert all(type(h) is int for h in numpy_ints.horizons)
    assert numpy_ints.regrets == sweep(_spec(), [16, 32, 64]).regrets


_LIN3 = LossSpec(kind=LINEAR, dim=3, seed=0, G=1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda n: _spec(horizon=n), "horizon must be a positive integer"),
        (lambda n: _spec(gap_cap=n), "gap_cap must be a nonnegative integer"),
        (lambda n: LossSpec(kind=LINEAR, dim=n, seed=0, G=1.0), "dim must be a positive integer"),
        (lambda n: LossSpec(kind=LINEAR, dim=3, seed=n, G=1.0), "seed must be an integer"),
        (lambda n: L2Ball(n, 1.0), "dim must be a positive integer"),
        (lambda n: Simplex(n), "dim must be a positive integer"),
        (lambda n: ofw_init(L2Ball(3, 1.0), n, 1.0), "horizon must be a positive integer"),
        (lambda n: ofw_decay_init(L2Ball(3, 1.0), n, 1.0), "horizon must be a positive integer"),
        (lambda n: make_round(_LIN3, n, L2Ball(3, 1.0)), "round index must be an integer"),
        (lambda n: next(round_chunks(_LIN3, n, L2Ball(3, 1.0))), "T must be an integer"),
    ],
    ids=["horizon", "gap_cap", "loss_dim", "seed", "ball_dim", "simplex_dim", "ofw_horizon",
         "decay_horizon", "round_index", "round_chunks_T"],
)
def test_counts_refuse_bools_and_non_integers_naming_the_argument(make, message):
    # A count is an integral number, as a sweep's horizons are: a bool or a
    # fraction is refused with a ValueError that names it. An integral
    # float or NumPy integer is taken as the int it equals.
    for bad in (True, np.bool_(True), 1.5, 2.5, "2", math.inf, math.nan, None):
        with pytest.raises(ValueError, match=f"^{message}, got "):
            make(bad)
    for n in (np.int64(2), np.uint8(2), 2.0):
        assert repr(make(n)) == repr(make(2))


def test_sweep_slope_none_with_too_few_horizons():
    result = sweep(_spec(), [16, 32])
    assert result.slope is None
    lines = sweep_csv(result).strip().split("\n")
    assert lines[1].endswith(",")  # empty slope cell


# -- the learner round's seams ----------------------------------------------

_UPDATE_NAMES = ("ofw_update", "scofw_update", "ofw_decay_update", "baseline_update")
_SEAM_CASES = [
    (ALGO_OFW_LS, LINEAR, "ofw_update", {"lmo": 1, "project": 0}),
    (ALGO_SC_OFW, QUADRATIC, "scofw_update", {"lmo": 1, "project": 0}),
    (ALGO_OFW_DECAY, LINEAR, "ofw_decay_update", {"lmo": 1, "project": 0}),
    (ALGO_OGD, LINEAR, "baseline_update", {"lmo": 0, "project": 1}),
]


@pytest.mark.parametrize("algo, kind, name, per_round", _SEAM_CASES)
def test_runs_and_sweeps_call_the_rebound_update_and_set_methods_once_per_round(
    algo, kind, name, per_round, monkeypatch
):
    # Counting wrappers on the harness's update names and on each set
    # class's lmo and project, as a tracer installs them from outside: a
    # run and a sweep reach them for every requested round, so nothing
    # caches an update or a bound method where a rebinding cannot reach it.
    updates = {n: 0 for n in _UPDATE_NAMES}
    calls = {"lmo": 0, "project": 0}
    depth = [0]

    def counting_update(update_name, update):
        def counted(state, g):
            updates[update_name] += 1
            depth[0] += 1
            try:
                return update(state, g)
            finally:
                depth[0] -= 1

        return counted

    def counting_method(op, method):
        def counted(self, v):
            if depth[0]:
                calls[op] += 1
            return method(self, v)

        return counted

    for n in _UPDATE_NAMES:
        monkeypatch.setattr(ofwkit.harness, n, counting_update(n, getattr(ofwkit.harness, n)))
    for cls in (L2Ball, LpBall, L1Ball, Simplex):
        monkeypatch.setattr(cls, "lmo", counting_method("lmo", FeasibleSet.lmo))
        monkeypatch.setattr(cls, "project", counting_method("project", cls.project))
    for domain in _BLOCK_SETS:
        loss = LossSpec(kind=kind, dim=domain.dim, seed=4, G=1.0, lam=0.7)
        spec = _spec(domain=domain, loss=loss, algo=algo, horizon=70, gap_check=True)
        runs = [(70, lambda: run_experiment(spec)), (5 + 64 + 70, lambda: sweep(spec, [5, 64, 70]))]
        for requested, play in runs:
            for counter in (updates, calls):
                counter.update(dict.fromkeys(counter, 0))
            play()
            assert updates == {n: requested if n == name else 0 for n in _UPDATE_NAMES}
            assert calls == {op: requested * k for op, k in per_round.items()}


# -- losses logged per block -------------------------------------------------


def _losses_round_by_round(spec, rows):
    """Each round's loss from ``loss_at`` at the learner's play, one round at
    a time, checked against the dot product it is."""
    G, lam = ofwkit.harness.certify_constants(spec.loss, spec.domain)
    state, update = ofwkit.harness._init_learner(spec, G, lam)
    out = []
    for row in rows:
        value, g = loss_at(spec.loss.kind, lam, row, state.x)
        if spec.loss.kind == LINEAR:
            assert value == float(row.dot(state.x))
        else:
            d = state.x - row
            assert value == 0.5 * lam * float(d.dot(d))
        out.append(value)
        state = update(state, g)
    return np.array(out)


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
@pytest.mark.parametrize("domain", _BLOCK_SETS, ids=lambda d: type(d).__name__)
def test_block_logged_losses_equal_loss_at_round_by_round(domain, kind):
    # Horizons around a block of core.BLOCK_ROWS = 64 rounds and past a
    # chunk of the stream, with the gap oracle's blocks on and off.
    algo = ALGO_OFW_LS if kind == LINEAR else ALGO_SC_OFW
    loss = LossSpec(kind=kind, dim=domain.dim, seed=9, G=1.0, lam=0.7)
    rows = seeded_rounds(loss, 1025, domain)
    longest = _spec(domain=domain, loss=loss, algo=algo, horizon=1025)
    reference = _losses_round_by_round(longest, rows)
    for T in (1, 63, 64, 65, 1025):
        for gap_check in (False, True):
            spec = _spec(
                domain=domain, loss=loss, algo=algo, horizon=T, gap_check=gap_check, gap_cap=100
            )
            if algo == ALGO_OFW_LS and T < 1025:
                # eta depends on the horizon, and with it every play.
                expected = _losses_round_by_round(spec, rows[:T])
            else:
                expected = reference[:T]
            assert run_experiment(spec).loss.tobytes() == expected.tobytes(), (T, gap_check)


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_a_sweep_ending_mid_block_logs_the_losses_of_its_runs(kind):
    # Each horizon's run is replayed round by round: its losses, summed
    # from 0.0, less the comparator's total, are the sweep's regret.
    domain = LpBall(6, 1.2, 1.5)
    loss = LossSpec(kind=kind, dim=6, seed=11, G=1.0, lam=0.7)
    horizons = [5, 70, 130, 1030]
    rows = seeded_rounds(loss, horizons[-1], domain)
    lam = certify_constants(loss, domain)[1]
    _, totals = ofwkit.oracle.offline_comparator(domain, kind, lam, rows)
    for algo in [ALGO_OFW_DECAY] + ([ALGO_SC_OFW] if kind == QUADRATIC else []):
        spec = _spec(domain=domain, loss=loss, algo=algo)
        result = sweep(spec, horizons)
        for h, regret in zip(horizons, result.regrets):
            losses = _losses_round_by_round(replace(spec, horizon=h), rows[:h])
            assert regret == prefix_sums(losses, 0.0)[-1] - totals[h - 1], (algo, h)
