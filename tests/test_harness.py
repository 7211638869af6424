import csv
import io
import math

import numpy as np
import pytest

from ofwkit.harness import (
    ALGO_OFW_DECAY,
    ALGO_OFW_LS,
    ALGO_OGD,
    ALGO_SC_OFW,
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
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
from ofwkit.losses import LINEAR, QUADRATIC, LossSpec, zero_round
from ofwkit.sets import L2Ball, LpBall, Simplex

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


# -- bound formulas ----------------------------------------------------------


def test_regret_constants_raw_values():
    # radius 1/2: diameter 1, modulus 2, so the schedule constant is 4096/12
    half = L2Ball(10, 0.5)
    assert theorem_constant(_spec(domain=half)) == pytest.approx(1024.0 / 3.0, rel=1e-12)
    # lam=1 there: G = lam D = 1, so max(4 (G + lam D)^2 / lam, 288 lam / alpha^2)
    # = max(16, 72)
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    assert theorem_constant(_spec(domain=half, loss=quad, algo=ALGO_SC_OFW)) == 72.0
    # lam=2 on the simplex: G + lam D = 4 sqrt(2), so 16 * 32 / 2 = 256, and
    # t=9 on the general-set schedule gives 256 * 8^(1/3) = 512
    quad2 = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=2.0)
    simplex_spec = _spec(domain=Simplex(10), loss=quad2, algo=ALGO_SC_OFW)
    assert theorem_constant(simplex_spec) == pytest.approx(256.0, rel=1e-12)
    assert gap_bound(simplex_spec, 9) == pytest.approx(512.0, rel=1e-12)


def test_theorem_constant_dispatch():
    assert theorem_constant(_spec()) == pytest.approx(4096.0 / 3.0, rel=1e-12)
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    assert theorem_constant(_spec(loss=quad, algo=ALGO_SC_OFW)) == 288.0
    simplex_spec = ExperimentSpec(
        domain=Simplex(10), loss=quad, algo=ALGO_SC_OFW, horizon=128
    )
    lip = np.sqrt(2.0) + np.sqrt(2.0)  # G + lam D with G = lam D
    assert theorem_constant(simplex_spec) == pytest.approx(16.0 * lip**2, rel=1e-12)
    assert theorem_constant(_spec(algo=ALGO_OGD)) is None
    assert theorem_constant(_spec(algo=ALGO_OFW_DECAY)) is None


def test_theorem_bound_formulas():
    spec = _spec()
    C = 4096.0 / 3.0
    assert theorem_bound(spec, 1024) == pytest.approx(
        2.75 * math.sqrt(C) * 1026.0 ** (2.0 / 3.0), rel=1e-12
    )
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    sc = _spec(loss=quad, algo=ALGO_SC_OFW)
    assert theorem_bound(sc, 100) == pytest.approx(
        288.0 * math.sqrt(200.0) + 144.0 * math.log(100.0) + 2.0 * 2.0, rel=1e-12
    )
    simplex_spec = ExperimentSpec(
        domain=Simplex(10), loss=quad, algo=ALGO_SC_OFW, horizon=128
    )
    C3 = theorem_constant(simplex_spec)
    G = np.sqrt(2.0)
    expected = (
        3.0 * math.sqrt(2.0) / 8.0 * C3 * 100.0 ** (2.0 / 3.0)
        + C3 * math.log(100.0) / 8.0
        + G * math.sqrt(2.0)
    )
    assert theorem_bound(simplex_spec, 100) == pytest.approx(expected, rel=1e-12)
    assert theorem_bound(_spec(algo=ALGO_OGD), 100) is None
    with pytest.raises(ValueError):
        theorem_bound(spec, 0)


def test_gap_bound_values():
    spec = _spec()
    C = 4096.0 / 3.0
    # the t=1 bound is C/3^(2/3), about 656.38
    assert gap_bound(spec, 1) == pytest.approx(C / 3.0 ** (2.0 / 3.0), rel=1e-12)
    assert gap_bound(spec, 1) == pytest.approx(656.3838, abs=5e-4)
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=1, lam=1.0)
    sc = _spec(loss=quad, algo=ALGO_SC_OFW)
    assert gap_bound(sc, 1) is None  # no surrogate before round 1
    assert gap_bound(sc, 2) == 288.0
    assert gap_bound(sc, 500) == 288.0
    simplex_spec = ExperimentSpec(
        domain=Simplex(10), loss=quad, algo=ALGO_SC_OFW, horizon=128
    )
    C3 = theorem_constant(simplex_spec)
    assert gap_bound(simplex_spec, 9) == pytest.approx(C3 * 2.0, rel=1e-12)
    assert gap_bound(_spec(algo=ALGO_OGD), 3) is None


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
    # the per-round columns and the scalar bounds come from one expression
    T = 4096
    spec = ExperimentSpec(
        domain=domain, loss=loss, algo=algo, horizon=T, gap_check=True, gap_cap=T
    )
    trace = run_experiment(spec)
    regret_off, gap_off = [], []
    for t in range(1, T + 1):
        if trace.theorem_bound[t - 1] != theorem_bound(spec, t):
            regret_off.append(t)
        expected, column = gap_bound(spec, t), trace.gap_bound[t - 1]
        if not (column == expected or (expected is None and math.isnan(column))):
            gap_off.append(t)
    assert regret_off == [] and gap_off == []
    assert trace.final_bound == theorem_bound(spec, T)


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
    rounds = [zero_round(t, 10) for t in range(1, 17)]
    trace = run_experiment(spec, rounds=rounds)
    assert trace.final_regret == 0.0
    assert np.all(trace.loss == 0.0)
    assert np.all(trace.regret == 0.0)


def test_injected_rounds_length_checked():
    with pytest.raises(ValueError):
        run_experiment(_spec(horizon=4), rounds=[zero_round(1, 10)])


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
    trace = run_experiment(_spec(horizon=128))
    # the incremental prefix comparator at T and the offline recomputation
    # are the same quantity
    assert trace.final_regret == pytest.approx(trace.regret[-1], rel=1e-9, abs=1e-9)
    assert trace.spec.domain.contains(trace.comparator_point, 1e-9)


def test_final_regret_matches_offline_comparator_quadratic():
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=3, lam=1.0)
    trace = run_experiment(_spec(loss=quad, algo=ALGO_SC_OFW, horizon=128))
    assert trace.final_regret == pytest.approx(trace.regret[-1], rel=1e-9, abs=1e-9)


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


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(_spec(), [])
    with pytest.raises(ValueError):
        sweep(_spec(), [32, 32])
    # every horizon is checked before the first run
    with pytest.raises(ConfigError, match="horizon"):
        sweep(_spec(), [0, 10**9])


def test_sweep_slope_none_with_too_few_horizons():
    result = sweep(_spec(), [16, 32])
    assert result.slope is None
    lines = sweep_csv(result).strip().split("\n")
    assert lines[1].endswith(",")  # empty slope cell
