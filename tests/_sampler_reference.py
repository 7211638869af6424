"""Reference samplers for tests: one feasible point per generator.

These are the one-point samplers the sets had before ``sample_rows`` became
each set's only sampler, kept as the oracle that ``sample_rows(1, rng)[0]``
must equal bit for bit: the quadratic adversary's targets are drawn by it.
"""

import numpy as np

from ofwkit import sets
from ofwkit.core import l2_norm, lp_norm


def _ball_norm(ball, x):
    if isinstance(ball, sets.L2Ball):
        return l2_norm(x)
    if isinstance(ball, sets.LpBall):
        return lp_norm(x, ball.p)
    return float(np.abs(x).sum())


def feasible_point(domain, rng):
    """One feasible point of ``domain`` drawn from the generator ``rng``.

    A ball draws a direction, draws it again while its norm is below
    ``sets._MIN_DIRECTION_NORM`` (read at each call), then one uniform u,
    and scales the direction by radius * u**(1/dim) / norm. The simplex
    divides standard exponentials by their sum.
    """
    if isinstance(domain, sets.Simplex):
        rows = np.empty((1, domain.dim))
        rng.standard_exponential(out=rows[0])
        rows /= rows.sum(axis=1, keepdims=True)
        return rows[0]
    z = rng.standard_normal((1, domain.dim))
    n = _ball_norm(domain, z[0])
    while n < sets._MIN_DIRECTION_NORM:
        z = rng.standard_normal((1, domain.dim))
        n = _ball_norm(domain, z[0])
    u = rng.random()
    z *= np.array([domain.radius * u ** (1.0 / domain.dim) / n])[:, None]
    return z[0]


def simplex_batch(domain, n, rng):
    """``n`` points of the simplex ``domain``, the rows of one batch from ``rng``."""
    e = rng.exponential(size=(n, domain.dim))
    return e / e.sum(axis=1, keepdims=True)
