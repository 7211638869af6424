"""The names the traced benchmark wraps must exist and keep their meaning.

``perfbench/tracing.py`` replaces ofwkit's functions by name from outside
the package, so a refactor that renames one breaks the benchmark without
failing any other test. This installs the tracer as the benchmark's worker
does, in a fresh interpreter, and runs one T = 64 config per learner the
benchmark reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
T = 64

SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
from tracing import Tracer

from ofwkit import cli, core, learners, losses, oracle, sets

tracer = Tracer()
tracer.install()
wrapped = {
    learners: ("ofw_update", "scofw_update", "baseline_update"),
    losses: ("make_round",),
    core: ("as_vector", "line_search_quadratic"),
    oracle: ("surrogate_argmin", "offline_comparator"),
}
missing = [f"{m.__name__}.{n}" for m, names in wrapped.items() for n in names
           if not hasattr(getattr(m, n), "__wrapped__")]
for cls in (sets.L2Ball, sets.LpBall, sets.L1Ball, sets.Simplex):
    if getattr(cls.lmo, "__wrapped__", None) is not sets.FeasibleSet.lmo:
        missing.append(f"{cls.__name__}.lmo")
    if not hasattr(cls.project, "__wrapped__"):
        missing.append(f"{cls.__name__}.project")
tasks = json.loads(sys.argv[2])
codes = []
for i, (algo, config, out) in enumerate(tasks):
    tracer.task = i
    codes.append(cli.main(["run", config, "--out", out]))
_, counts = tracer.summary([algo for algo, _, _ in tasks], [int(sys.argv[3])] * len(tasks))
print(json.dumps({"missing": missing, "codes": codes, "counts": counts}))
"""

LOSSES = {"ofw_ls": "linear", "sc_ofw": "quadratic", "ogd": "linear"}


def test_tracer_wraps_every_name_and_counts_learner_calls(tmp_path):
    tasks = []
    for algo, loss in LOSSES.items():
        constant = "loss.G = 1" if loss == "linear" else "loss.lambda = 1"
        config = tmp_path / f"{algo}.cfg"
        config.write_text(
            f"set.kind = l2_ball\nset.dim = 10\nset.r = 1\nloss.kind = {loss}\n{constant}\n"
            f"algo = {algo}\nT = {T}\nseed = 1\n"
        )
        tasks.append((algo, str(config), str(tmp_path / f"{algo}.csv")))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), json.dumps(tasks), str(T)],
        capture_output=True,
        text=True,
        timeout=120,
        # No bytecode cache is written into perfbench/.
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["codes"] == [0, 0, 0]
    # The paper's one linear-oracle call and no projection per round, and
    # OGD's one projection per round, all seen under the learner's update.
    assert report["counts"] == [
        {"lmo": T, "project": 0},
        {"lmo": T, "project": 0},
        {"lmo": 0, "project": T},
    ]


SWEEP_SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
from tracing import Tracer

from ofwkit import cli

tracer = Tracer()
tracer.install()
tasks, horizons = json.loads(sys.argv[2]), sys.argv[3]
codes = []
for i, (algo, config, out) in enumerate(tasks):
    tracer.task = i
    codes.append(cli.main(["sweep", config, "--horizons", horizons, "--out", out]))
rounds = sum(int(h) for h in horizons.split(","))
_, counts = tracer.summary([algo for algo, _, _ in tasks], [rounds] * len(tasks))
print(json.dumps({"codes": codes, "counts": counts}))
"""


def test_traced_lockstep_sweep_makes_one_learner_lmo_call_per_requested_round(tmp_path):
    # The learners of a sweep play in lockstep, each through the update
    # names the tracer rebinds, so a sweep counts one lmo call and no
    # projection per round of every horizon, as separate runs would.
    horizons = [16, 64, 1030]
    tasks = []
    for algo in ("ofw_ls", "sc_ofw"):
        loss = LOSSES[algo]
        constant = "loss.G = 1" if loss == "linear" else "loss.lambda = 1"
        config = tmp_path / f"{algo}.cfg"
        config.write_text(
            f"set.kind = l2_ball\nset.dim = 10\nset.r = 1\nloss.kind = {loss}\n{constant}\n"
            f"algo = {algo}\nT = {horizons[-1]}\nseed = 1\n"
        )
        tasks.append((algo, str(config), str(tmp_path / f"{algo}.csv")))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_SCRIPT, str(ROOT / "perfbench"), json.dumps(tasks),
         ",".join(map(str, horizons))],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    assert report["counts"] == [{"lmo": sum(horizons), "project": 0}] * 2
