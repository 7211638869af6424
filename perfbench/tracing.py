"""Spans around every public call into ofwkit's layers, from outside the package.

``Tracer.install`` replaces module attributes and set methods with wrappers
that record one span per call: name, role, task, parent span, start, end,
and the time covered by child spans. A span's self time is its duration
minus that child time. Spans stay in memory until ``write_spans``.

The role says on whose behalf a set call ran: ``learner`` under a learner
update, ``oracle`` under ``surrogate_argmin``, and ``comparator`` for any
other call under ``run_experiment``. Spans inherit the nearest role above.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

ROLES = ("none", "learner", "comparator", "oracle")
SET_KINDS = ("l2_ball", "lp_ball", "l1_ball", "simplex")
REPORTED_SETS = ("l2_ball", "lp_ball", "simplex")
REPORTED_ALGOS = ("ofw_ls", "sc_ofw", "ogd")
# Columns of one span record.
SEQ, NAME, ROLE, TASK, PARENT, START, END, CHILD = range(8)

# Per-layer metrics a traced pass reports, with their units.
PER_LAYER = {
    "losses.make_round.calls": "count",
    "losses.make_round.us_per_call": "us",
    "losses.make_round.useful_ratio": "ratio",
    **{f"sets.{op}.calls_per_round.{r}": "calls/round" for op in ("lmo", "project") for r in ROLES[1:]},
    **{f"sets.{op}.us_per_call.{k}": "us" for op in ("lmo", "project") for k in REPORTED_SETS},
    **{f"learners.update.self_us_per_call.{a}": "us" for a in REPORTED_ALGOS},
    "core.as_vector.calls_per_round": "calls/round",
    "core.as_vector.us_per_call": "us",
    "core.line_search_quadratic.calls_per_round": "calls/round",
    "oracle.surrogate_argmin.calls": "count",
    "oracle.surrogate_argmin.self_us_per_call": "us",
    "oracle.surrogate_argmin.iters_per_call.mean": "lmo/call",
    "oracle.surrogate_argmin.iters_per_call.max": "lmo/call",
    "oracle.offline_comparator.s": "s",
    "harness.run_experiment.self_us_per_round": "us",
    "harness.emit_csv.s": "s",
    "harness.emit_csv.bytes": "bytes",
    "cli.main.self_s": "s",
}


class Tracer:
    """Records spans for the calls it wraps; one tracer per process."""

    def __init__(self):
        self.task = -1
        self.names: list = []
        self._records = array("q")
        self._stack: list = []
        self._seq = 0
        self._distinct: dict = {}
        self._result_size: dict = {}

    def wrap(self, fn, name: str, role: str | None = None, key=None, size=None):
        """``fn`` recording a span named ``name`` per call.

        ``key(*args)`` collects distinct call arguments; ``size(result)``
        sums a size of the results.
        """
        name_id = len(self.names)
        self.names.append(name)
        role_id = None if role is None else ROLES.index(role)
        stack, record, clock = self._stack, self._records.extend, time.perf_counter_ns
        distinct = self._distinct.setdefault(name, set()) if key is not None else None
        if size is not None:
            self._result_size[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            r = role_id if role_id is not None else (parent[1] if parent else 0)
            seq = self._seq
            self._seq = seq + 1
            frame = [seq, r, 0]
            stack.append(frame)
            if distinct is not None:
                distinct.add(key(*args))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                record((seq, name_id, r, self.task, parent[0] if parent else -1, start, end, frame[2]))
            if size is not None:
                self._result_size[name] += size(result)
            return result

        return wrapper

    def install(self):
        """Wrap each layer's public calls wherever ofwkit's modules bind them."""
        from ofwkit import cli, core, harness, learners, losses, oracle, sets

        modules = [m for n, m in sys.modules.items() if n == "ofwkit" or n.startswith("ofwkit.")]

        def everywhere(fn, name, **kw):
            wrapped = self.wrap(fn, name, **kw)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    setattr(module, attr, wrapped)

        everywhere(cli.main, "cli.main")
        everywhere(harness.run_experiment, "harness.run_experiment", role="comparator")
        everywhere(harness.emit_csv, "harness.emit_csv", size=len)
        everywhere(
            losses.make_round, "losses.make_round",
            key=lambda spec, t, domain: (spec.kind, spec.seed, t),
        )
        everywhere(oracle.surrogate_argmin, "oracle.surrogate_argmin", role="oracle")
        everywhere(oracle.offline_comparator, "oracle.offline_comparator")
        everywhere(core.as_vector, "core.as_vector")
        everywhere(core.line_search_quadratic, "core.line_search_quadratic")
        for update in (learners.ofw_update, learners.scofw_update, learners.baseline_update):
            everywhere(update, "learners.update", role="learner")
        classes = (sets.L2Ball, sets.LpBall, sets.L1Ball, sets.Simplex)
        for cls, kind in zip(classes, SET_KINDS):
            cls.lmo = self.wrap(sets.FeasibleSet.lmo, f"sets.lmo.{kind}")
            cls.project = self.wrap(cls.project, f"sets.project.{kind}")

    def spans(self) -> np.ndarray:
        """All closed spans, one row each, row i being the i-th span opened."""
        a = np.frombuffer(self._records, dtype=np.int64).reshape(-1, 8)
        return a[np.argsort(a[:, SEQ], kind="stable")]

    def write_spans(self, path: str):
        np.savez(path, spans=self.spans(), names=np.array(self.names), roles=np.array(ROLES))

    def summary(self, algos: list, rounds: list) -> tuple:
        """(per-layer metrics of the pass, per-task learner lmo/project counts).

        ``algos`` and ``rounds`` give each task's learner and requested rounds.
        """
        a = self.spans()
        name, role, task, parent = a[:, NAME], a[:, ROLE], a[:, TASK], a[:, PARENT]
        dur = a[:, END] - a[:, START]
        own = dur - a[:, CHILD]
        total_rounds = float(sum(rounds))

        def named(*names):
            return np.isin(name, [i for i, n in enumerate(self.names) if n in names])

        def mean_us(ns):
            return float(ns.mean()) / 1e3 if ns.size else 0.0

        m = {}
        make_round = named("losses.make_round")
        calls = int(make_round.sum())
        m["losses.make_round.calls"] = calls
        m["losses.make_round.us_per_call"] = mean_us(dur[make_round])
        m["losses.make_round.useful_ratio"] = (
            len(self._distinct["losses.make_round"]) / calls if calls else 0.0
        )
        ops = {}
        for op in ("lmo", "project"):
            ops[op] = named(*(f"sets.{op}.{k}" for k in SET_KINDS))
            for r in ROLES[1:]:
                hits = ops[op] & (role == ROLES.index(r))
                m[f"sets.{op}.calls_per_round.{r}"] = float(hits.sum()) / total_rounds
            for k in REPORTED_SETS:
                m[f"sets.{op}.us_per_call.{k}"] = mean_us(dur[named(f"sets.{op}.{k}")])
        update = named("learners.update")
        for algo in REPORTED_ALGOS:
            of_algo = np.isin(task, [i for i, x in enumerate(algos) if x == algo])
            m[f"learners.update.self_us_per_call.{algo}"] = mean_us(own[update & of_algo])
        as_vector = named("core.as_vector")
        m["core.as_vector.calls_per_round"] = float(as_vector.sum()) / total_rounds
        m["core.as_vector.us_per_call"] = mean_us(dur[as_vector])
        line_search = named("core.line_search_quadratic")
        m["core.line_search_quadratic.calls_per_round"] = float(line_search.sum()) / total_rounds
        argmin = named("oracle.surrogate_argmin")
        lmo_parents = parent[ops["lmo"] & (parent >= 0)]
        iters = np.bincount(lmo_parents[argmin[lmo_parents]], minlength=len(a))[argmin]
        m["oracle.surrogate_argmin.calls"] = int(argmin.sum())
        m["oracle.surrogate_argmin.self_us_per_call"] = mean_us(own[argmin])
        m["oracle.surrogate_argmin.iters_per_call.mean"] = float(iters.mean()) if iters.size else 0.0
        m["oracle.surrogate_argmin.iters_per_call.max"] = int(iters.max()) if iters.size else 0
        m["oracle.offline_comparator.s"] = float(dur[named("oracle.offline_comparator")].sum()) / 1e9
        m["harness.run_experiment.self_us_per_round"] = (
            float(own[named("harness.run_experiment")].sum()) / 1e3 / total_rounds
        )
        m["harness.emit_csv.s"] = float(dur[named("harness.emit_csv")].sum()) / 1e9
        m["harness.emit_csv.bytes"] = self._result_size["harness.emit_csv"]
        m["cli.main.self_s"] = float(own[named("cli.main")].sum()) / 1e9

        learner = role == ROLES.index("learner")
        counts = [
            {
                "lmo": int((ops["lmo"] & learner & (task == i)).sum()),
                "project": int((ops["project"] & learner & (task == i)).sum()),
            }
            for i in range(len(algos))
        ]
        return m, counts
