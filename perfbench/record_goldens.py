"""Record the pinned outputs of the reference passes into goldens.json.

Usage (from the repository root): python3 perfbench/record_goldens.py

Runs the reference-seed pass of every workload at full size and at the
self-test's tiny size, checks it like any other pass, and stores each
task's final regret (or sweep regrets and slope). Only rerun this when a
change is meant to alter the adversary stream or the learners' outputs.
"""

import json
import sys

import run
import workloads as wl
from selftest import TINY


def main() -> int:
    goldens = {}
    for shrink in (1, TINY):
        for workload in wl.WORKLOADS:
            tasks, _, reasons = run.run_pass(workload, wl.REFERENCE_SEED, shrink, False, None)
            for task, reason in zip(tasks, reasons):
                if reason is not None:
                    print(f"{workload} {task.algo}: {reason}", file=sys.stderr)
                    return 1
                rows = wl.read_csv(run.OUT / workload / f"{task.algo}.csv")
                goldens.setdefault(str(shrink), {}).setdefault(workload, {})[task.algo] = (
                    wl.golden_values(task, rows)
                )
    wl.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
