import contextlib
import csv
import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_harness import _configs, _kind_config

import ofwkit.cli
import ofwkit.harness
from ofwkit.cli import main
from ofwkit.harness import ConfigError, emit_csv, parse_config, run_experiment
from ofwkit.sets import L2Ball

GOOD_CONFIG = """
set.kind = l2_ball
set.dim = 10
set.r = 1
loss.kind = linear
loss.G = 1
algo = ofw_ls
T = 32
seed = 1
gap_check = true
gap_cap = 8
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_run_writes_csv_and_exits_zero(config_path, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", config_path, "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 32
    assert rows[0]["t"] == "1"
    err = capsys.readouterr().err
    assert "regret=" in err and "bound=" in err


def test_run_writes_to_stdout_without_out(config_path, capsys):
    code = main(["run", config_path])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("t,loss,cum_loss,comparator_cum,regret,theorem_bound,gap,gap_bound\n")
    assert len(out.strip().split("\n")) == 33


def test_run_honors_config_output_key(tmp_path, capsys):
    target = tmp_path / "from_config.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG + f"output = {target}\n")
    assert main(["run", str(cfg)]) == 0
    assert target.exists()


def test_run_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("set.kind = moebius\n")
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_config_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(GOOD_CONFIG.replace("T = 32", "# caf\xff\nT = 32").encode("latin-1"))
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "not UTF-8" in err and err.count("\n") == 1


def test_run_missing_file_exits_two(capsys):
    assert main(["run", "/no/such/file.cfg"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing config argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["frobnicate"])
    assert exc2.value.code == 2


def _call(argv, out_path=None):
    """(exit code, stdout, stderr, file text) of one ``main`` call; a usage
    error's SystemExit code counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = out_path.read_text(encoding="utf-8") if out_path and out_path.exists() else None
    if out_path and out_path.exists():
        out_path.unlink()
    return code, out.getvalue(), err.getvalue(), written


def test_main_reuses_one_parser_and_answers_as_a_fresh_call(config_path, tmp_path):
    out = tmp_path / "out.csv"
    calls = [
        ["run", config_path, "--out", str(out)],
        ["run"],  # usage error: missing config argument
        ["sweep", config_path, "--horizons", "16,32,64"],
    ]
    ofwkit.cli._parser.cache_clear()
    in_one_process = [_call(argv, out) for argv in calls]
    assert ofwkit.cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        ofwkit.cli._parser.cache_clear()
        fresh.append(_call(argv, out))
    assert in_one_process == fresh
    assert [c[0] for c in fresh] == [0, 2, 0]
    assert fresh[1][2].startswith("usage: ofwkit run")


def test_sweep_writes_csv_and_slope(config_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", config_path, "--horizons", "16,32,64,128", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["T"] for r in rows] == ["16", "32", "64", "128"]
    assert all(r["slope"] == rows[0]["slope"] != "" for r in rows)
    err = capsys.readouterr().err
    assert "slope=" in err


def test_sweep_bad_horizons_exits_two(config_path, capsys):
    assert main(["sweep", config_path, "--horizons", "asc"]) == 2
    assert main(["sweep", config_path, "--horizons", "64,32"]) == 2


def test_verify_bounds_scope_exits_zero(capsys):
    code = main(["verify", "--scope", "bounds"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["checks"]


def test_verify_rejects_unknown_scope():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "vibes"])
    assert exc.value.code == 2


def test_bounds_prints_constants(config_path, capsys):
    assert main(["bounds", config_path]) == 0
    out = capsys.readouterr().out
    assert "C = 1365.3333333333333" in out
    assert "eta = " in out
    assert "regret_bound(T=32) = " in out
    assert "gap_bound(t=1) = 656.38380444212714" in out


@pytest.mark.parametrize("T, rounds", [(1, [1]), (2, [1, 2]), (3, [1, 2, 3]), (32, [1, 2, 32])])
def test_bounds_prints_gap_bounds_once_each_within_the_horizon(tmp_path, capsys, T, rounds):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(GOOD_CONFIG.replace("T = 32", f"T = {T}"))
    assert main(["bounds", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = [line for line in lines if line.startswith("gap_bound(")]
    assert [line.split(")")[0] for line in gaps] == [f"gap_bound(t={t}" for t in rounds]
    assert gaps[0] == "gap_bound(t=1) = 656.38380444212714"
    assert f"regret_bound(T={T}) = " in "\n".join(lines)


def test_bounds_baseline_has_no_constant(tmp_path, capsys):
    cfg = tmp_path / "ogd.cfg"
    cfg.write_text(GOOD_CONFIG.replace("algo = ofw_ls", "algo = ogd"))
    assert main(["bounds", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "C = none" in out
    assert "gap_bound(t=1) = none" in out


INF_CONFIGS = {
    "G": GOOD_CONFIG.replace("loss.G = 1", "loss.G = inf"),
    "lambda": GOOD_CONFIG.replace("loss.kind = linear", "loss.kind = quadratic")
    .replace("loss.G = 1", "loss.lambda = inf")
    .replace("algo = ofw_ls", "algo = sc_ofw"),
    # diameter 2e308 overflows to inf
    "r_1e308": GOOD_CONFIG.replace("set.r = 1", "set.r = 1e308"),
    # the modulus 1e-200 squares to 0, so C = 4096 / (3 alpha^2) is inf
    "r_1e200": GOOD_CONFIG.replace("set.r = 1", "set.r = 1e200"),
    # eta = D / (2 G (T+2)^(2/3)) overflows to inf
    "G_1e-320": GOOD_CONFIG.replace("loss.G = 1", "loss.G = 1e-320"),
    # G sqrt(C) (T+2)^(2/3) overflows although eta and C are finite
    "G_1e306": GOOD_CONFIG.replace("loss.G = 1", "loss.G = 1e306"),
    # a horizon too large for a float (parsed, never run)
    "T_1e400": GOOD_CONFIG.replace("T = 32", "T = 1" + "0" * 400).replace(
        "algo = ofw_ls", "algo = ogd"
    ),
    # a horizon a float holds but no array can (parsed, never run)
    "T_1e300": GOOD_CONFIG.replace("T = 32", "T = 1" + "0" * 300).replace(
        "algo = ofw_ls", "algo = ogd"
    ),
    # seeds outside [-2**63, 2**64) would alias modulo 2**64
    "seed_2**70": GOOD_CONFIG.replace("seed = 1", f"seed = {2**70}"),
    "seed_-2**64": GOOD_CONFIG.replace("seed = 1", f"seed = {-(2**64)}"),
    # a one-point simplex has diameter 0, so quadratic losses give G = lam D = 0
    **{
        f"simplex_dim1_{algo}": (
            "set.kind = simplex\nset.dim = 1\nloss.kind = quadratic\nloss.lambda = 1\n"
            f"algo = {algo}\nT = 32\nseed = 1\n"
        )
        for algo in ("ofw_ls", "ofw_decay", "sc_ofw", "ogd")
    },
    # 2 T G D = 2 * 32 * 1e200 * 2e150 overflows; no ceiling refuses it for
    # a baseline, whose losses would overflow in the run
    **{
        f"loss_scale_l2_{algo}": GOOD_CONFIG.replace("set.r = 1", "set.r = 1e150")
        .replace("loss.G = 1", "loss.G = 1e200")
        .replace("algo = ofw_ls", f"algo = {algo}")
        for algo in ("ogd", "ofw_decay")
    },
    # lam D^2 / 2 is about 8e315, so 2 T G D = 2 T lam D^2 overflows
    "loss_scale_lp_ogd": GOOD_CONFIG.replace("set.kind = l2_ball", "set.kind = lp_ball")
    .replace("set.r = 1", "set.r = 2.5e89\nset.p = 1.5")
    .replace("loss.kind = linear", "loss.kind = quadratic")
    .replace("loss.G = 1", "loss.lambda = 6.7e136")
    .replace("algo = ofw_ls", "algo = ogd"),
    # 2 T G D fits, but T D^2 overflows: D^2 itself on the L1 ball, T D^2 on
    # the L2 ball, where the runs square norms up to D's
    "sq_diameter_l1_sc_ofw": (
        "set.kind = l1_ball\nset.dim = 5\nset.r = 1e155\nloss.kind = quadratic\n"
        "loss.lambda = 1e-150\nalgo = sc_ofw\nT = 16\nseed = 1\n"
    ),
    "sq_diameter_l2_sc_ofw": (
        "set.kind = l2_ball\nset.dim = 5\nset.r = 1e153\nloss.kind = quadratic\n"
        "loss.lambda = 1e-150\nalgo = sc_ofw\nT = 4096\nseed = 1\n"
    ),
}


@pytest.mark.parametrize("constant", sorted(INF_CONFIGS))
@pytest.mark.parametrize("command", ["run", "sweep", "bounds"])
def test_non_finite_loss_constant_exits_two(tmp_path, capsys, constant, command):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(INF_CONFIGS[constant])
    argv = [command, str(cfg)]
    if command == "sweep":
        argv += ["--horizons", "16,32"]
    if command != "bounds":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


def test_run_and_sweep_let_run_failures_surface_alike(config_path, tmp_path, monkeypatch, capsys):
    # Only a bad config maps to exit 2; a failure inside a run is not
    # relabelled by sweep: both report it as the same internal error.
    def broken(*args):
        raise ValueError("injected failure")

    # Every round of a run and of a sweep's lockstep runs is scored by
    # loss_rows, a block of rounds at a time.
    monkeypatch.setattr(ofwkit.harness, "loss_rows", broken)
    out = ["--out", str(tmp_path / "out.csv")]
    for argv in (["run", config_path], ["sweep", config_path, "--horizons", "16,32"]):
        assert main(argv + out) == 1
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: injected failure\n"


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_numpy_warning_exits_one_with_one_line(config_path, tmp_path, monkeypatch, capsys):
    # Numeric trouble inside a command is a named failure even where the
    # caller's filters would only print the warning, as they do here.
    loss_rows = ofwkit.harness.loss_rows

    def overflowing(*args):
        np.array([1e308]) * 10.0
        return loss_rows(*args)

    monkeypatch.setattr(ofwkit.harness, "loss_rows", overflowing)
    filters = list(warnings.filters)
    out = ["--out", str(tmp_path / "out.csv")]
    for argv in (["run", config_path], ["sweep", config_path, "--horizons", "16,32"]):
        assert main(argv + out) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeWarning: overflow encountered in multiply\n"
        assert "Traceback" not in captured.err + captured.out
    assert warnings.filters == filters


def test_unexpected_exception_exits_one_with_one_line(config_path, monkeypatch, capsys):
    def broken(spec, rounds=None):
        raise RuntimeError("injected\nfailure")

    monkeypatch.setattr(ofwkit.harness, "run_experiment", broken)
    monkeypatch.setattr(ofwkit.cli, "run_experiment", broken)
    assert main(["run", config_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: injected failure\n"
    assert "Traceback" not in captured.err + captured.out


def test_run_with_a_failed_gap_certificate_exits_one(config_path, tmp_path, monkeypatch, capsys):
    # A wrong projection fails the gap oracle's certificate from round 2 on.
    monkeypatch.setattr(L2Ball, "project", lambda self, x: 0.5 * x)
    monkeypatch.setattr(L2Ball, "project_rows", lambda self, x: 0.5 * x)
    assert main(["run", config_path, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("self-check failed: round 2: ") and err.count("\n") == 1


_SCALED_SETS = {
    "l2_ball": "set.kind = l2_ball\nset.r = 1\n",
    "lp_ball": "set.kind = lp_ball\nset.r = 1\nset.p = 1.5\n",
    "simplex": "set.kind = simplex\n",
}


@pytest.mark.parametrize("set_kind", _SCALED_SETS)
def test_gap_certificates_hold_at_any_loss_scale(set_kind, tmp_path, capsys):
    # Scaling every loss by lambda scales the regret by lambda; each
    # certificate allows for the rounding its own arithmetic leaves at that
    # scale, so no scale fails a self-check.
    regrets = []
    for lam in ("1", "1e3", "1e6", "1e9"):
        cfg = tmp_path / f"{lam}.cfg"
        cfg.write_text(
            _SCALED_SETS[set_kind] + f"set.dim = 10\nloss.kind = quadratic\nloss.lambda = {lam}\n"
            "algo = sc_ofw\nT = 2000\nseed = 1\ngap_check = true\ngap_cap = 2000\n"
        )
        out = tmp_path / f"{lam}.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
        last = list(csv.DictReader(io.StringIO(out.read_text())))[-1]
        regrets.append(float(last["regret"]))
    for lam, regret in zip((1e3, 1e6, 1e9), regrets[1:]):
        assert regret == pytest.approx(lam * regrets[0], rel=1e-9)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_horizon_too_long_to_log_exits_two_without_generating_rounds(
    tmp_path, capsys, monkeypatch, command
):
    def no_rounds(*args):
        raise AssertionError("rounds generated for a horizon that cannot be logged")

    monkeypatch.setattr(ofwkit.harness, "round_chunks", no_rounds)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        GOOD_CONFIG.replace("T = 32", f"T = {2**62}").replace("algo = ofw_ls", "algo = ogd")
    )
    argv = [command, str(cfg), "--out", str(tmp_path / "out.csv")]
    if command == "sweep":
        argv += ["--horizons", f"16,{2**62}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


def test_bounds_answers_a_horizon_that_run_cannot_log(tmp_path, capsys):
    # bounds evaluates closed forms and logs nothing, so it exits 0 where
    # run must refuse to allocate its per-round logs.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        GOOD_CONFIG.replace("T = 32", f"T = {2**62}").replace("algo = ofw_ls", "algo = ogd")
    )
    assert main(["bounds", str(cfg)]) == 0
    assert f"T = {2**62}\n" in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: horizon {2**62} is too long to log")


def _dim_config(kind: str, dim: int) -> str:
    return _kind_config(kind).replace("set.dim = 4", f"set.dim = {dim}")


# Sizes numpy refuses before it allocates anything.
@pytest.mark.parametrize(
    "kind, dim",
    [("l2_ball", 2**61), ("simplex", 2**61), ("l1_ball", 10**400)],
    ids=["l2_ball-2**61", "simplex-2**61", "l1_ball-10**400"],
)
def test_a_set_dim_too_large_to_allocate_exits_two_where_bounds_answers(tmp_path, capsys, kind, dim):
    cfg = tmp_path / "huge_dim.cfg"
    cfg.write_text(_dim_config(kind, dim))
    out = ["--out", str(tmp_path / "out.csv")]
    for argv in (["run", str(cfg)], ["sweep", str(cfg), "--horizons", "2,4,8"]):
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: set.dim {dim} is too large to allocate: ")
        assert err.count("\n") == 1
    assert main(["bounds", str(cfg)]) == 0
    assert "T = 8\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "sweep", "bounds"])
def test_an_lp_ball_of_dim_1e400_overflows_its_derived_constants(tmp_path, capsys, command):
    cfg = tmp_path / "lp_1e400.cfg"
    cfg.write_text(_dim_config("lp_ball", 10**400))
    argv = [command, str(cfg)] + (["--horizons", "2,4,8"] if command == "sweep" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: derived constants overflow: ") and err.count("\n") == 1


def test_a_regret_above_its_ceiling_exits_one(config_path, tmp_path, monkeypatch, capsys):
    # A ceiling of 1e-300 at every round: the run's final regret and each
    # horizon's regret in the sweep lie above it.
    certificate = ofwkit.harness.certificate

    def tiny_ceiling(spec):
        return replace(certificate(spec), regret=lambda ts: np.full(np.shape(ts), 1e-300))

    monkeypatch.setattr(ofwkit.harness, "certificate", tiny_ceiling)
    out = ["--out", str(tmp_path / "out.csv")]
    assert main(["run", config_path] + out) == 1
    assert capsys.readouterr().err.endswith(" bound=1e-300\nregret bound violated\n")
    assert main(["sweep", config_path, "--horizons", "8,16,32"] + out) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.endswith(" bound=1e-300 VIOLATED") for line in lines[:3])


def test_run_writes_the_same_csv_to_stdout_and_to_a_file(config_path, tmp_path, capsys):
    assert main(["run", config_path]) == 0
    printed = capsys.readouterr().out
    assert main(["run", config_path, "--out", str(tmp_path / "out.csv")]) == 0
    written = (tmp_path / "out.csv").read_text(encoding="utf-8")
    with open(config_path, encoding="utf-8") as fh:
        expected = emit_csv(run_experiment(parse_config(fh.read())))
    assert printed == written == expected


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    text=_configs(),
    command=st.sampled_from(["run", "sweep", "bounds"]),
    horizons=st.sampled_from(["1,2,3", "4,16,64,100", "16,8", "0,5", "2,x", ""]),
    to_file=st.booleans(),
)
@example(text=GOOD_CONFIG, command="run", horizons="", to_file=False)
@example(text=GOOD_CONFIG, command="run", horizons="", to_file=True)
@example(text=GOOD_CONFIG, command="sweep", horizons="4,16,64,100", to_file=True)
@example(text=GOOD_CONFIG, command="bounds", horizons="", to_file=False)
def test_main_exits_zero_one_or_two_on_fuzzed_configs(
    tmp_path_factory, text, command, horizons, to_file
):
    # parse_config's fuzz, run through each command. Only bounds sees a T
    # above 2^12: it evaluates closed forms and plays no round.
    try:
        T = parse_config(text).horizon
    except ConfigError:
        T = None
    assume(command == "bounds" or T is None or T <= 2**12)
    folder = tmp_path_factory.mktemp("fuzz")
    config = folder / "fuzz.cfg"
    config.write_text(text, encoding="utf-8")
    argv = [command, str(config)]
    if command == "sweep":
        argv += ["--horizons", horizons]
    if to_file and command != "bounds":
        argv += ["--out", str(folder / "out.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


_ALGO_LOSS_PAIRS = [
    ("ofw_ls", "linear"),
    ("ofw_decay", "linear"),
    ("ogd", "linear"),
    ("ofw_ls", "quadratic"),
    ("sc_ofw", "quadratic"),
    ("ofw_decay", "quadratic"),
    ("ogd", "quadratic"),
]
# Log-uniform over 1e-3..1e6; repr writes a float that parses back to the drawn value.
_POSITIVE = st.floats(-3.0, 6.0).map(lambda e: repr(10.0**e))
# The same over 1e-150..1e150, where some products of the scales overflow.
_EXTREME = st.floats(-150.0, 150.0).map(lambda e: repr(10.0**e))
# Radii over 1e-3..1e200, where the squared diameter can overflow.
_HUGE_RADII = st.floats(-3.0, 200.0).map(lambda e: repr(10.0**e))


@st.composite
def _valid_configs(draw, scale=_POSITIVE, radius=None):
    """Small configs that parse: every set kind and algo/loss pair, dim 1 to
    20, T <= 64, p anywhere in [1 + 1e-6, 2]; ``set.r`` drawn from
    ``radius`` (by default ``scale``) and the loss constant from ``scale``."""
    set_kind = draw(st.sampled_from(["l2_ball", "lp_ball", "l1_ball", "simplex"]))
    algo, loss_kind = draw(st.sampled_from(_ALGO_LOSS_PAIRS))
    T = draw(st.integers(1, 64))
    # A one-point simplex has diameter 0, which every certificate refuses.
    min_dim = 2 if set_kind == "simplex" else 1
    entries = {"set.kind": set_kind, "set.dim": draw(st.integers(min_dim, 20))}
    if set_kind != "simplex":
        entries["set.r"] = draw(scale if radius is None else radius)
    if set_kind == "lp_ball":
        ends = st.sampled_from([1.0 + 1e-6, 1.5, 2.0])
        entries["set.p"] = repr(draw(st.one_of(ends, st.floats(1.0 + 1e-6, 2.0))))
    entries["loss.kind"] = loss_kind
    entries["loss.G" if loss_kind == "linear" else "loss.lambda"] = draw(scale)
    entries.update(algo=algo, T=T, seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        entries.update(gap_check="true", gap_cap=draw(st.integers(1, T)))
    horizons = draw(st.lists(st.integers(1, T), min_size=1, max_size=4, unique=True))
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    return text, ",".join(str(h) for h in sorted(horizons))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    case=_valid_configs(),
    command=st.sampled_from(["run", "sweep", "bounds"]),
    to_file=st.booleans(),
)
def test_main_runs_valid_small_configs_without_internal_errors(
    tmp_path_factory, case, command, to_file
):
    # RuntimeWarning is an error under main, so a numpy warning anywhere in
    # these runs, the Lp projection's Newton solve included, fails here.
    text, horizons = case
    parse_config(text)
    folder = tmp_path_factory.mktemp("valid")
    config = folder / "valid.cfg"
    config.write_text(text, encoding="utf-8")
    argv = [command, str(config)]
    if command == "sweep":
        argv += ["--horizons", horizons]
    if to_file and command != "bounds":
        argv += ["--out", str(folder / "out.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    assert "internal error" not in err.getvalue()
    if command != "bounds":
        text = (folder / "out.csv").read_text(encoding="utf-8") if to_file else out.getvalue()
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            assert all(c == "" or "%.17g" % float(c) == c for c in row), row


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_valid_configs(scale=_EXTREME), command=st.sampled_from(["run", "sweep", "bounds"]))
def test_main_exits_zero_or_two_on_valid_configs_at_extreme_scales(
    tmp_path_factory, case, command
):
    # Every algorithm and set at scales over 1e-150..1e150: a config whose
    # losses or ceilings a float cannot hold is refused with one line
    # (exit 2), and none fails inside a run (exit 1).
    text, horizons = case
    config = tmp_path_factory.mktemp("extreme") / "extreme.cfg"
    config.write_text(text, encoding="utf-8")
    argv = [command, str(config)] + (["--horizons", horizons] if command == "sweep" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error") and err.getvalue().count("\n") == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    case=_valid_configs(scale=_EXTREME, radius=_HUGE_RADII),
    command=st.sampled_from(["run", "sweep", "bounds"]),
)
def test_main_exits_zero_or_two_on_valid_configs_with_radii_up_to_1e200(
    tmp_path_factory, case, command
):
    # The extreme-scale check above, with radii whose squares a float cannot
    # hold: such a config is refused (exit 2), never failed in a run (exit 1).
    inner = test_main_exits_zero_or_two_on_valid_configs_at_extreme_scales.hypothesis.inner_test
    inner(tmp_path_factory, case, command)
