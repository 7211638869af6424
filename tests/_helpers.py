"""Test-only helpers: a brute-force line-search oracle, all-zero loss rounds and
one seeded feasible point."""

import numpy as np

from ofwkit.losses import LINEAR, Rounds, as_rounds


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


def zero_rounds(T: int, dim: int) -> Rounds:
    """T identically-zero linear losses; handy for fixed-point tests."""
    return as_rounds(LINEAR, 0.0, np.zeros((T, dim)))


def feasible_point(domain, seed: int) -> np.ndarray:
    """The feasible point ``domain`` draws from ``np.random.default_rng(seed)``."""
    return domain.sample_rows(1, np.random.default_rng(seed))[0]
