"""Reference bookkeeping for tests: the round-by-round comparator and CSV.

These are the loops the harness and the offline oracle ran before they
worked a block of rounds at a time with the sets' row-wise oracles, kept
as the oracle that the block versions must equal bit for bit.
"""

import math

import numpy as np

from ofwkit.core import dot
from ofwkit.harness import CSV_HEADER
from ofwkit.losses import LINEAR


def prefix_comparators(domain, kind, lam, rows):
    """Best-in-hindsight total loss of each prefix of the rounds of ``kind``
    and ``lam`` whose gradients or targets are ``rows``, one round at a time."""
    comp_v = np.empty(len(rows))
    prefix = np.zeros(domain.dim)
    target_sq_prefix = 0.0
    for i, row in enumerate(rows):
        t = i + 1
        prefix = prefix + row
        if kind == LINEAR:
            x_best = domain.lmo(prefix)
            comp = float(prefix.dot(x_best))
        else:
            target_sq_prefix += float(row.dot(row))
            x_best = domain.project(prefix / t)
            comp = 0.5 * lam * (
                t * float(x_best.dot(x_best))
                - 2.0 * float(prefix.dot(x_best))
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


def offline_comparator(domain, kind, lam, rows):
    """The offline comparator's point and total, summed one round at a time.

    Quadratic rounds are scored in the prefix comparators' closed form.
    """
    total = np.zeros(domain.dim)
    target_sq = 0.0
    for row in rows:
        total = total + row
        target_sq += float(row.dot(row))
    if kind == LINEAR:
        x_star = domain.lmo(total)
        return x_star, dot(total, x_star)
    n = len(rows)
    x = domain.project(total / n)
    return x, 0.5 * lam * (n * dot(x, x) - 2.0 * dot(total, x) + target_sq)


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
