"""Reference linear oracles for tests: the Lp, l1 and simplex ``_lmo`` and
``_lmo_rows`` steps as they stood before their numpy calls were trimmed.

The Lp steps take the p-norm of the scaled powers through the whole
``lp_norm`` (absolute values, max, division by it, ``np.sum``) and, row by
row, through the whole ``norm_rows``. Each function takes the set and
finite gradients with no tie, as the hooks do; the oracles must equal
them bit for bit.
"""

import numpy as np

from ofwkit.core import l2_norm, row_l2_norms


def _lp_norm(v, p):
    if p == 2:
        return l2_norm(v)
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


def _lp_norm_rows(x, p):
    if p == 2:
        return row_l2_norms(x)
    a = np.abs(x)
    m = a.max(axis=1)
    a /= np.where(m > 0.0, m, 1.0)[:, None]
    a **= p
    sums = a.sum(axis=1)
    return m * np.array([s ** (1.0 / p) for s in sums.tolist()])


def lp_lmo(ball, g):
    q = ball.p / (ball.p - 1.0)
    w = np.abs(g)
    w /= float(w.max())
    w **= q - 1.0
    w /= _lp_norm(w, ball.p)
    out = np.sign(g)
    out *= -ball.radius
    out *= w
    return out


def lp_lmo_rows(ball, g):
    q = ball.p / (ball.p - 1.0)
    w = np.abs(g)
    w /= w.max(axis=1, keepdims=True)
    w **= q - 1.0
    w /= _lp_norm_rows(w, ball.p)[:, None]
    out = np.sign(g)
    out *= -ball.radius
    out *= w
    return out


def l1_lmo(ball, g):
    j = int(np.argmax(np.abs(g)))
    out = np.zeros(ball.dim)
    out[j] = -ball.radius * float(np.sign(g[j]))
    return out


def l1_lmo_rows(ball, g):
    rows = np.arange(g.shape[0])
    j = np.argmax(np.abs(g), axis=1)
    out = np.zeros_like(g)
    out[rows, j] = -ball.radius * np.sign(g[rows, j])
    return out


def simplex_lmo(simplex, g):
    out = np.zeros(simplex.dim)
    out[int(np.argmin(g))] = 1.0
    return out


def simplex_lmo_rows(simplex, g):
    out = np.zeros_like(g)
    out[np.arange(g.shape[0]), np.argmin(g, axis=1)] = 1.0
    return out
