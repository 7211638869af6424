"""Reference bookkeeping for tests: the round-by-round comparator and CSV.

These are the loops the harness and the offline oracle ran before they
worked a block of rounds at a time with the sets' row-wise oracles, kept
unchanged as the oracle that the block versions must equal bit for bit.
"""

import math

import numpy as np

from ofwkit.core import dot
from ofwkit.harness import CSV_HEADER
from ofwkit.losses import LINEAR


def prefix_comparators(domain, rounds):
    """Best-in-hindsight total loss of each prefix, one round at a time."""
    comp_v = np.empty(len(rounds))
    grad_prefix = np.zeros(domain.dim)
    target_prefix = np.zeros(domain.dim)
    target_sq_prefix = 0.0
    for i, rnd in enumerate(rounds):
        t = i + 1
        if rnd.kind == LINEAR:
            grad_prefix = grad_prefix + rnd.gradient
            x_best = domain.lmo(grad_prefix)
            comp = float(grad_prefix.dot(x_best))
        else:
            target_prefix = target_prefix + rnd.target
            target_sq_prefix += float(rnd.target.dot(rnd.target))
            x_best = domain.project(target_prefix / t)
            comp = 0.5 * rnd.lam * (
                t * float(x_best.dot(x_best))
                - 2.0 * float(target_prefix.dot(x_best))
                + target_sq_prefix
            )
        comp_v[i] = comp
    return comp_v


def running_sum(values):
    """Running totals of ``values`` in a Python float, as the round loop kept them."""
    out = np.empty(len(values))
    total = 0.0
    for i, v in enumerate(values):
        total += v
        out[i] = total
    return out


def offline_comparator(domain, rounds):
    """The offline comparator's point and total, summed one round at a time."""
    if rounds[0].kind == LINEAR:
        total_grad = np.zeros(domain.dim)
        for r in rounds:
            total_grad = total_grad + r.gradient
        x_star = domain.lmo(total_grad)
        return x_star, dot(total_grad, x_star)
    target_sum = np.zeros(domain.dim)
    for r in rounds:
        target_sum = target_sum + r.target
    x = domain.project(target_sum / len(rounds))
    total = 0.0
    for r in rounds:
        total += r.value_at(x)
    return x, total


def _cell(value):
    if value is None or math.isnan(value):
        return ""
    return format(value, ".17g")


def emit_csv(trace):
    """The trace's CSV, formatted one cell at a time."""
    lines = [CSV_HEADER]
    for i in range(trace.rounds.shape[0]):
        lines.append(
            ",".join(
                (
                    str(int(trace.rounds[i])),
                    _cell(trace.loss[i]),
                    _cell(trace.cum_loss[i]),
                    _cell(trace.comparator_cum[i]),
                    _cell(trace.regret[i]),
                    _cell(trace.theorem_bound[i]),
                    _cell(trace.gap[i]),
                    _cell(trace.gap_bound[i]),
                )
            )
        )
    return "\n".join(lines) + "\n"
