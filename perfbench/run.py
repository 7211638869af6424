"""Benchmark of ofwkit's command line on four config-driven workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload run_pf --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Load model: a closed loop with one caller. A pass writes one flat config
per task and runs the tasks one after the other through ``ofwkit.cli.main``
in one fresh interpreter (worker.py), so every pass pays what a command
line user pays. Passes repeat until ``--seconds`` is used up; pass 0 uses
the reference config seed and its outputs are compared with goldens.json,
pass k >= 1 uses a config seed derived from ``--seed`` and k. BLAS and
OpenMP run one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn until
ofwkit is imported and the configs are parsed; median over every process,
including set-up-only probes), ``rounds_per_s`` (requested rounds over the
summed task times of a pass; median over passes), ``peak_rss_mb``
(ru_maxrss of the pass process) and ``pass_ratio`` (tasks whose outputs
pass every check, over tasks attempted; it is 1 - failed_ratio, reported
this way round so that it is never 0).

The machine this runs on shares its cores, and its speed drifts by up to
a third over tens of seconds. Each process therefore runs a fixed
calibration loop (worker.calibrate) after set-up and after every task, and
its set-up and pass times are scaled by the mean of those loop times to a
machine on which the loop takes CALIBRATION_REFERENCE_S. The unscaled
medians are printed and kept in the record.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of tracing.py, the import times and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics. Lines before it give each metric with its sample count, the
machine record and every failed check. The full record is written to
perfbench/out/<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 1
MIN_PASSES = 3
PROCESS_TIMEOUT_S = 120
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROJECTION_FREE = ("ofw_ls", "sc_ofw")
# Times are scaled to a machine on which worker.calibrate() takes this long
# (about its median on the 2-vCPU Intel Xeon this benchmark was tuned on).
CALIBRATION_REFERENCE_S = 0.125

END_TO_END = {"setup_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
SETUP_LAYERS = ("import_numpy_s", "import_scipy_s", "import_ofwkit_s")
TRACED = {
    **PER_LAYER,
    **{f"setup.{name}": "s" for name in SETUP_LAYERS},
    "trace.overhead_ratio": "ratio",
}


def spawn(job: dict, job_dir: Path):
    """Run worker.py on ``job``; its report, or None if it did not finish."""
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    # A fixed hash seed keeps set and dict ordering inside ofwkit the same on every pass.
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED="0", **THREAD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {PROCESS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    report = json.loads(proc.stdout.splitlines()[-1])
    scale = CALIBRATION_REFERENCE_S / statistics.mean(report["calibration_s"])
    report["raw_setup_s"] = report["setup_end"] - started
    report["setup_s"] = report["raw_setup_s"] * scale
    if "task_s" in report:
        report["raw_pass_s"] = sum(report["task_s"])
        report["pass_s"] = report["raw_pass_s"] * scale
    return report


def run_pass(workload: str, config_seed: int, shrink: int, trace: bool, golden, run=True):
    """One pass (or, with run=False, a set-up-only probe); returns (tasks, report, reasons).

    ``reasons[i]`` says why task i failed its checks, or is None.
    """
    tasks = wl.tasks(workload, config_seed, shrink)
    pass_dir = OUT / workload
    pass_dir.mkdir(parents=True, exist_ok=True)
    job_tasks = []
    for task in tasks:
        config, out = pass_dir / f"{task.algo}.cfg", pass_dir / f"{task.algo}.csv"
        config.write_text(task.config_text(), encoding="utf-8")
        out.unlink(missing_ok=True)
        job_tasks.append({
            "algo": task.algo, "rounds": task.rounds, "config": str(config),
            "argv": task.argv(str(config), str(out)),
        })
    job = {"tasks": job_tasks, "run": run, "trace": trace, "spans": str(pass_dir / "spans.npz")}
    report = spawn(job, pass_dir)
    if not run:
        return tasks, report, []
    codes = report["exit_codes"] if report else ["no report"] * len(tasks)
    reasons = [
        wl.check_task(task, code, pass_dir / f"{task.algo}.csv", golden and golden.get(task.algo))
        for task, code in zip(tasks, codes)
    ]
    if trace and report:
        for i, (task, counts) in enumerate(zip(tasks, report["task_counts"])):
            if task.algo in PROJECTION_FREE and reasons[i] is None and (
                counts["lmo"] != task.rounds or counts["project"] != 0
            ):
                reasons[i] = (
                    f"learner made {counts['lmo']} lmo calls and {counts['project']} "
                    f"projections in {task.rounds} rounds; expected 1 and 0 per round"
                )
    return tasks, report, reasons


def measure(workload: str, seed: int, seconds: float, trace: bool, shrink: int = 1) -> dict:
    """Every sample of one benchmark run, as a plain record."""
    golden = wl.load_goldens().get(shrink, {}).get(workload)
    probes = [run_pass(workload, wl.REFERENCE_SEED, shrink, False, None, run=False)[1]
              for _ in range(PROBES)]
    passes, attempted, failures = [], 0, []
    start = time.monotonic()
    k = 0
    while True:
        config_seed = wl.REFERENCE_SEED if k == 0 else wl.pass_seed(seed, k)
        traced = trace and k % 2 == 1
        tasks, report, reasons = run_pass(
            workload, config_seed, shrink, traced, golden if k == 0 else None
        )
        attempted += len(tasks)
        failures += [f"pass {k} (config seed {config_seed}) {t.algo}: {r}"
                     for t, r in zip(tasks, reasons) if r is not None]
        if report is not None:
            passes.append({**report, "traced": traced, "rounds": sum(t.rounds for t in tasks)})
        k += 1
        elapsed = time.monotonic() - start
        if k >= MIN_PASSES and elapsed + elapsed / k > seconds:  # the next pass would overrun
            break
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "shrink": shrink, "probes": [p for p in probes if p is not None], "passes": passes,
        "attempted": attempted, "failures": failures,
    }


def _median(values: list) -> float:
    return float(statistics.median(values))


def _samples(record: dict) -> tuple:
    """(untraced passes, traced passes, every process) of a record."""
    plain = [p for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    return plain, traced, record["probes"] + record["passes"]


def summarize(record: dict) -> dict:
    """Metrics of a record as {name: (median, sample count)}."""
    plain, traced, processes = _samples(record)
    if not plain or (record["trace"] and not traced):
        raise RuntimeError("no pass finished, so nothing was measured")
    if not record["trace"]:
        attempted = record["attempted"]
        return {
            "setup_s": (_median([p["setup_s"] for p in processes]), len(processes)),
            "rounds_per_s": (_median([p["rounds"] / p["pass_s"] for p in plain]), len(plain)),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in plain]), len(plain)),
            "pass_ratio": (1.0 - len(record["failures"]) / attempted, attempted),
        }
    metrics = {name: (_median([p["layers"][name] for p in traced]), len(traced)) for name in PER_LAYER}
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}"] = (_median([p[name] for p in processes]), len(processes))
    overhead = _median([p["pass_s"] for p in traced]) / _median([p["pass_s"] for p in plain]) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, len(traced) + len(plain))
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(record: dict) -> dict:
    first = (record["probes"] + record["passes"])[0]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "blas_threads": " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()),
        "seed": record["seed"],
    }


def report(workload: str, seed: int, seconds: float, trace: bool, shrink: int = 1) -> dict:
    """Run one workload, print its human-readable lines; return the result object."""
    record = measure(workload, seed, seconds, trace, shrink)
    metrics = summarize(record)
    units = TRACED if trace else END_TO_END
    failed = len(record["failures"])
    record["machine"] = machine(record)
    record["metrics"] = {
        name: {"value": value, "unit": units[name], "samples": n} for name, (value, n) in metrics.items()
    }
    plain, _, processes = _samples(record)
    record["uncalibrated"] = {
        "setup_s": _median([p["raw_setup_s"] for p in processes]),
        "rounds_per_s": _median([p["rounds"] / p["raw_pass_s"] for p in plain]),
        "calibration_s": _median([c for p in processes for c in p["calibration_s"]]),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, (value, n) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]} (n={n})")
    print(f"{workload} uncalibrated {json.dumps(record['uncalibrated'])}")
    print(f"{workload} failed_ratio = {failed}/{record['attempted']} tasks")
    for line in record["failures"]:
        print(f"{workload} FAILED {line}")
    print(f"{workload} machine {json.dumps(record['machine'])}")
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ofwkit" / "cli.py").is_file():
        print(f"no ofwkit sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: report(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
