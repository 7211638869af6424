import csv
import json

import pytest

import ofwkit.cli
import ofwkit.harness
from ofwkit.cli import main
from ofwkit.harness import ConfigError

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


def test_run_and_sweep_let_run_failures_surface_alike(config_path, tmp_path, monkeypatch):
    # Only a bad config maps to exit 2; a failure inside a run is not
    # relabelled by sweep.
    def broken(spec, rounds=None):
        raise ValueError("injected failure")

    monkeypatch.setattr(ofwkit.harness, "run_experiment", broken)
    monkeypatch.setattr(ofwkit.cli, "run_experiment", broken)
    out = ["--out", str(tmp_path / "out.csv")]
    for argv in (["run", config_path], ["sweep", config_path, "--horizons", "16,32"]):
        with pytest.raises(ValueError, match="injected failure") as exc:
            main(argv + out)
        assert not isinstance(exc.value, ConfigError)
