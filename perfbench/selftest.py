"""Fast self-test of the benchmark, on tiny passes of every workload.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metric
names listed in BENCHMARK.json with no failed task; that corrupted outputs
are counted as failed tasks rather than passing; and that the benchmark
refuses to run without the ofwkit sources. Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys

import run
import workloads as wl

TINY = 64
SEED = 7


def check_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in wl.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.report(workload, SEED, 0, trace, shrink=TINY)
            names = {m["name"] for m in spec[key]}
            assert set(result["metrics"]) == names, (workload, key, set(result["metrics"]) ^ names)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)


def _perturb_final_regret(rows):
    rows[-1]["regret"] = repr(float(rows[-1]["regret"]) * (1 + 1e-6))


def _regret_above_bound(rows):
    rows[1]["regret"] = repr(2 * float(rows[1]["theorem_bound"]))


def check_corruption_is_counted():
    """Corrupt copies of ofw_ls's CSV on run_pf; each must show in pass_ratio."""
    original = wl.check_task
    # perturbation -> failed ofw_ls tasks out of 2 tasks x MIN_PASSES passes:
    # the pinned value is only checked on the reference pass.
    cases = ((_perturb_final_regret, 1), (_regret_above_bound, run.MIN_PASSES))
    try:
        for corrupt, want_failed in cases:
            def corrupting(task, code, path, golden, corrupt=corrupt):
                if task.algo != "ofw_ls":
                    return original(task, code, path, golden)
                rows = wl.read_csv(path)
                corrupt(rows)
                copy = path.with_name("corrupted.csv")
                copy.write_text(
                    "\n".join([",".join(rows[0])] + [",".join(r.values()) for r in rows]) + "\n",
                    encoding="utf-8",
                )
                return original(task, code, copy, golden)

            wl.check_task = corrupting
            result = run.report("run_pf", SEED, 0, False, shrink=TINY)
            attempted = result["attempted"]
            assert not result["correct"] and result["failed"] == want_failed, result
            ratio = result["metrics"]["pass_ratio"]["value"]
            assert ratio == 1 - want_failed / attempted, result
    finally:
        wl.check_task = original


def check_refuses_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "run_pf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    check_metric_names()
    check_corruption_is_counted()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
