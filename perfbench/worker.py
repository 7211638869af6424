"""One benchmark process: import ofwkit, parse the configs, run the tasks.

Usage: python3 worker.py JOB.json, where JOB.json is written by run.py.

Start-up is split into the imports of numpy, scipy.optimize and ofwkit,
in that order, then the config parse; run.py times the process from
spawn to the end of that parse. A calibration loop follows, then each task
goes through ``ofwkit.cli.main`` exactly as the command line would run it,
and the calibration loop runs again after every task. The report is one
JSON line on stdout.
"""

import time

t_numpy = time.monotonic()
import numpy  # noqa: E402

t_scipy = time.monotonic()
import scipy.optimize  # noqa: E402

t_ofwkit = time.monotonic()
from ofwkit import cli, harness  # noqa: E402

t_parse = time.monotonic()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


CALIBRATION_ROUNDS = 4000


def calibrate() -> float:
    """Seconds taken by a fixed loop of small numpy operations on dim-100 vectors.

    The loop mixes the same kinds of calls as ofwkit's round loop (a fresh
    generator per round, a norm, a dot product, vector arithmetic), so its
    time tracks how fast this machine runs that kind of code right now.
    """
    x = numpy.zeros(100)
    start = time.monotonic()
    for i in range(CALIBRATION_ROUNDS):
        g = numpy.random.default_rng(i).standard_normal(100)
        g = g / float(numpy.linalg.norm(g))
        x = x + 0.5 * (g - x)
        float(numpy.dot(x, g))
    return time.monotonic() - start


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    for task in job["tasks"]:
        with open(task["config"], encoding="utf-8") as fh:
            harness.parse_config(fh.read())
    setup_end = time.monotonic()
    report = {
        "setup_end": setup_end,
        "import_numpy_s": t_scipy - t_numpy,
        "import_scipy_s": t_ofwkit - t_scipy,
        "import_ofwkit_s": t_parse - t_ofwkit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    calibration = [calibrate()]
    if job["run"]:
        tracer = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        exit_codes, task_s = [], []
        for i, task in enumerate(job["tasks"]):
            if tracer is not None:
                tracer.task = i
            start = time.monotonic()
            try:
                exit_codes.append(cli.main(task["argv"]))
            except Exception:  # a crashing task is a failed task; the pass goes on
                traceback.print_exc()
                exit_codes.append("exception")
            task_s.append(time.monotonic() - start)
            calibration.append(calibrate())
        report["task_s"] = task_s
        report["exit_codes"] = exit_codes
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["layers"], report["task_counts"] = tracer.summary(
                [t["algo"] for t in job["tasks"]], [t["rounds"] for t in job["tasks"]]
            )
            tracer.write_spans(job["spans"])
    report["calibration_s"] = calibration
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
