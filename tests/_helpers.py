"""Test-only helpers: a brute-force line-search oracle, all-zero loss rounds,
the seeded adversary's rounds in one array, one seeded feasible point and
one round's loss and gradient."""

import numpy as np

from ofwkit.losses import as_rounds, gradient_at, loss_rows, round_chunks


def grid_line_search(a: float, b: float, grid_size: int) -> float:
    """Brute-force minimizer of sigma*a + sigma**2*b over a uniform grid.

    Test oracle for the closed-form line search; returns the best grid
    point in [0, 1].
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    sigma = np.linspace(0.0, 1.0, grid_size)
    values = a * sigma + b * sigma * sigma
    return float(sigma[int(np.argmin(values))])


def zero_rounds(T: int, dim: int) -> np.ndarray:
    """T identically-zero linear losses, a read-only (T, dim) array; handy
    for fixed-point tests."""
    return as_rounds(np.zeros((T, dim)))


def seeded_rounds(spec, T: int, domain) -> np.ndarray:
    """Rounds 1..T of the adversary ``spec`` as one read-only (T, dim) array.

    Each of ``round_chunks``' chunks is copied before the next is drawn,
    since the next one reuses its buffer.
    """
    data = np.concatenate([chunk.copy() for chunk in round_chunks(spec, T, domain)])
    return as_rounds(data)


def feasible_point(domain, seed: int) -> np.ndarray:
    """The feasible point ``domain`` draws from ``np.random.default_rng(seed)``."""
    return domain.sample_rows(1, np.random.default_rng(seed))[0]


def loss_at(kind: str, lam: float, row: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(f(x), gradient at x) of the round of ``kind`` whose gradient or target
    is ``row``: the one-row case of ``loss_rows``, and ``gradient_at``."""
    value = loss_rows(kind, lam, np.atleast_2d(row), np.atleast_2d(x))[0]
    return float(value), gradient_at(kind, lam, row, x)
