"""Workloads of the ofwkit benchmark and the checks on their outputs.

A workload is a list of tasks. A task is one flat ``key = value`` config
plus the CLI subcommand that runs it (``run`` or ``sweep``). Every task is
at dimension 100. Which layers each workload stresses, and why it exists,
is written next to its definition in ``tasks``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DIM = 100
RUN_T = 2**14
SWEEP_HORIZONS = tuple(2**k for k in range(8, 15))  # 256 .. 16384
CERTIFY_T = 2**12
PROJECTED_T = 2**8

# Config seeds of the reference pass, the one whose outputs are compared
# with GOLDENS_PATH. Timed passes use seeds derived from the workload seed.
REFERENCE_SEED = 1
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"
GOLDEN_REL_TOL = 1e-9
GAP_SLACK = 1e-7

WORKLOADS = ("run_pf", "sweep_pf", "certify", "projected_lp")


@dataclass(frozen=True)
class Task:
    """One CLI invocation of a pass, named by its learner (the config's algo)."""

    command: str
    config: dict
    horizons: tuple

    @property
    def algo(self) -> str:
        return self.config["algo"]

    @property
    def rounds(self) -> int:
        """Requested rounds: the horizon of a run, the sum of a sweep's horizons."""
        return sum(self.horizons)

    @property
    def gap_check(self) -> bool:
        return self.config.get("gap_check") == "true"

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    def argv(self, config_path: str, out_path: str) -> list:
        argv = [self.command, config_path]
        if self.command == "sweep":
            argv += ["--horizons", ",".join(str(h) for h in self.horizons)]
        return argv + ["--out", out_path]


def _config(set_kind: str, loss_kind: str, algo: str, T: int, seed: int, **extra) -> dict:
    config = {"set.kind": set_kind, "set.dim": DIM}
    if set_kind != "simplex":
        config["set.r"] = 1
    if set_kind == "lp_ball":
        config["set.p"] = 1.5
    config["loss.kind"] = loss_kind
    config["loss.G" if loss_kind == "linear" else "loss.lambda"] = 1
    config.update(algo=algo, T=T, seed=seed, **extra)
    return {k: str(v) for k, v in config.items()}


def tasks(workload: str, seed: int, shrink: int = 1) -> list:
    """The tasks of one pass; task i uses config seed ``seed + i``.

    ``shrink`` divides every horizon, for the self-test's tiny passes.
    """
    if workload == "run_pf":
        # The projection-free hot loop: adversary rounds, lmo, learner
        # update, comparator bookkeeping, offline_comparator and emit_csv.
        # Never projects for the learner and never calls the gap oracle.
        T = RUN_T // shrink
        return [
            Task("run", _config("l2_ball", "linear", "ofw_ls", T, seed), (T,)),
            Task("run", _config("l2_ball", "quadratic", "sc_ofw", T, seed + 1), (T,)),
        ]
    if workload == "sweep_pf":
        # The same layers as run_pf, but each shorter horizon regenerates a
        # prefix of the longest run: about half the rounds are repeated work.
        hs = tuple(h // shrink for h in SWEEP_HORIZONS)
        return [
            Task("sweep", _config("l2_ball", "linear", "ofw_ls", hs[-1], seed), hs),
            Task("sweep", _config("l2_ball", "quadratic", "sc_ofw", hs[-1], seed + 1), hs),
        ]
    if workload == "certify":
        # The only workload that measures surrogate gaps, so the only one
        # that runs oracle.surrogate_argmin; also covers the Lp and simplex
        # linear oracles.
        T = CERTIFY_T // shrink
        gaps = {"gap_check": "true", "gap_cap": T}
        return [
            Task("run", _config("lp_ball", "linear", "ofw_ls", T, seed, **gaps), (T,)),
            Task("run", _config("simplex", "quadratic", "sc_ofw", T, seed + 1, **gaps), (T,)),
        ]
    if workload == "projected_lp":
        # The only workload on the slow LpBall.project path: projected OGD,
        # the baseline side of the paper's comparison.
        T = max(1, PROJECTED_T // shrink)
        return [Task("run", _config("lp_ball", "linear", "ogd", T, seed), (T,))]
    raise ValueError(f"unknown workload {workload!r}")


def pass_seed(seed: int, k: int) -> int:
    """Config seed of timed pass k >= 1, derived from the workload seed."""
    return random.Random(f"{seed}:{k}").randrange(2, 2**31)


# -- output checks ------------------------------------------------------------


def _num(cell: str):
    return float(cell) if cell else None


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def golden_values(task: Task, rows: list) -> list:
    """Values pinned for the reference seed: final regret, or sweep regrets and slope."""
    if task.command == "run":
        return [float(rows[-1]["regret"])]
    return [float(r["regret"]) for r in rows] + [float(rows[0]["slope"])]


def check_task(task: Task, exit_code, out_path: Path, golden=None):
    """Why the task's output is wrong, or None when every check passes."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        rows = read_csv(out_path)
    except (OSError, csv.Error) as exc:
        return f"unreadable output: {exc}"
    expected = task.horizons[0] if task.command == "run" else len(task.horizons)
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    try:
        for i, row in enumerate(rows):
            regret, bound = _num(row["regret"]), _num(row["theorem_bound"])
            if regret is None or not math.isfinite(regret):
                return f"row {i + 1}: regret {row['regret']!r}"
            if bound is not None and regret > bound:
                return f"row {i + 1}: regret {regret!r} > theorem_bound {bound!r}"
        if task.gap_check:
            measured = [(_num(r["gap"]), _num(r["gap_bound"])) for r in rows]
            if all(gap is None for gap, _ in measured):
                return "no surrogate gap measured"
            for i, (gap, bound) in enumerate(measured):
                if gap is not None and bound is not None and not gap <= bound + GAP_SLACK:
                    return f"row {i + 1}: gap {gap!r} > gap_bound {bound!r} + {GAP_SLACK}"
            if task.algo == "ofw_ls" and measured[0][0] != 0.0:
                return f"h_1 = {measured[0][0]!r}, expected 0"
        values = golden_values(task, rows)
    except (KeyError, ValueError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    if golden is not None:
        if len(values) != len(golden):
            return f"{len(values)} pinned values, expected {len(golden)}"
        for got, want in zip(values, golden):
            if not abs(got - want) <= GOLDEN_REL_TOL * max(abs(want), 1e-12):
                return f"pinned value {got!r} differs from {want!r} by more than rel {GOLDEN_REL_TOL}"
    return None


def load_goldens() -> dict:
    """{shrink: {workload: {task: values}}} as recorded by record_goldens.py."""
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh).items()}
