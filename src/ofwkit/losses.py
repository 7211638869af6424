"""Seeded adversarial loss sequences with certified regularity constants.

Two kinds of per-round loss:

* ``linear``: f_t(x) = <g_t, x> with g_t drawn uniformly from the radius-G
  Euclidean sphere, so G is an exact Lipschitz constant.
* ``quadratic``: f_t(x) = (lam/2) * ||x - theta_t||^2 with theta_t a random
  feasible point, so the loss is lam-strongly convex and (lam * diameter)-
  Lipschitz over the set.

Rounds are generated independently per index from a counter-mixed seed, so
round t can be reproduced without replaying rounds 1..t-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import as_vector, l2_norm
from .sets import FeasibleSet

__all__ = [
    "LINEAR",
    "QUADRATIC",
    "mix64",
    "round_seed",
    "LossSpec",
    "LossRound",
    "make_linear_round",
    "make_quadratic_round",
    "make_round",
    "certify_constants",
    "zero_round",
]

LINEAR = "linear"
QUADRATIC = "quadratic"

_MASK64 = (1 << 64) - 1
_STRIDE = 0x9E3779B9  # golden-ratio increment decorrelates consecutive t


def mix64(z: int) -> int:
    """Finalizing 64-bit mixer (splitmix64); bijective on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def round_seed(seed: int, t: int) -> int:
    """Stream seed for round t: stride the counter, xor, and mix."""
    return mix64((seed & _MASK64) ^ ((t * _STRIDE) & _MASK64))


@dataclass(frozen=True)
class LossSpec:
    """Declares one adversary: kind, dimension, base seed, and constants.

    ``G`` is the gradient norm for linear losses (must be positive and
    finite there, unused otherwise). ``lam`` is the strong-convexity modulus
    for quadratic losses (must be positive and finite there, unused
    otherwise).
    """

    kind: str
    dim: int
    seed: int
    G: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in (LINEAR, QUADRATIC):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.kind == LINEAR and not (0.0 < self.G < math.inf):
            raise ValueError(f"linear losses need a finite G > 0, got {self.G!r}")
        if self.kind == QUADRATIC and not (0.0 < self.lam < math.inf):
            raise ValueError(f"quadratic losses need a finite lam > 0, got {self.lam!r}")


@dataclass(frozen=True)
class LossRound:
    """One revealed loss: callables plus the data defining them.

    ``gradient`` is the constant gradient of a linear round; ``target`` is
    the minimizer of a quadratic round. Exactly one of them is set.
    """

    t: int
    kind: str
    value_at: Callable[[np.ndarray], float]
    grad_at: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[np.ndarray] = None
    target: Optional[np.ndarray] = None
    lam: float = 0.0


def make_linear_round(spec: LossSpec, t: int) -> LossRound:
    """Round t of a linear adversary; the gradient has norm exactly G."""
    if spec.kind != LINEAR:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {LINEAR!r}")
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    rng = np.random.default_rng(round_seed(spec.seed, t))
    z = rng.standard_normal(spec.dim)
    n = l2_norm(z)
    while n < 1e-12:
        z = rng.standard_normal(spec.dim)
        n = l2_norm(z)
    g = (spec.G / n) * z

    def value_at(x):
        return float(g.dot(x))

    def grad_at(x):
        return g

    return LossRound(t=t, kind=LINEAR, value_at=value_at, grad_at=grad_at, gradient=g)


def make_quadratic_round(spec: LossSpec, t: int, domain: FeasibleSet) -> LossRound:
    """Round t of a quadratic adversary with a feasible minimizer."""
    if spec.kind != QUADRATIC:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {QUADRATIC!r}")
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if spec.dim != domain.dim:
        raise ValueError(f"loss dim {spec.dim} does not match set dim {domain.dim}")
    theta = domain.random_feasible(round_seed(spec.seed, t))
    lam = spec.lam

    def value_at(x):
        d = x - theta
        return 0.5 * lam * float(d.dot(d))

    def grad_at(x):
        return lam * (x - theta)

    return LossRound(
        t=t, kind=QUADRATIC, value_at=value_at, grad_at=grad_at, target=theta, lam=lam
    )


def make_round(spec: LossSpec, t: int, domain: FeasibleSet) -> LossRound:
    """Dispatch on the spec kind."""
    if spec.kind == LINEAR:
        return make_linear_round(spec, t)
    return make_quadratic_round(spec, t, domain)


def certify_constants(spec: LossSpec, domain: FeasibleSet) -> tuple[float, float]:
    """(Lipschitz constant over the set, strong-convexity modulus).

    Both hold exactly for every round the spec can emit: linear rounds
    are (G, 0); quadratic rounds have gradient norm at most
    lam * diameter because the minimizer is feasible.
    """
    if spec.dim != domain.dim:
        raise ValueError(f"loss dim {spec.dim} does not match set dim {domain.dim}")
    if spec.kind == LINEAR:
        return spec.G, 0.0
    return spec.lam * domain.diameter, spec.lam


def zero_round(t: int, dim: int) -> LossRound:
    """An identically-zero loss; handy for fixed-point tests."""
    g = np.zeros(dim)

    def value_at(x):
        as_vector(x, dim)
        return 0.0

    def grad_at(x):
        return g

    return LossRound(t=t, kind=LINEAR, value_at=value_at, grad_at=grad_at, gradient=g)
