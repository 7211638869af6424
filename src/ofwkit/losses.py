"""Seeded adversarial loss sequences with certified regularity constants.

Two kinds of per-round loss:

* ``linear``: f_t(x) = <g_t, x> with g_t drawn uniformly from the radius-G
  Euclidean sphere, so G is an exact Lipschitz constant.
* ``quadratic``: f_t(x) = (lam/2) * ||x - theta_t||^2 with theta_t a random
  feasible point, so the loss is lam-strongly convex and (lam * diameter)-
  Lipschitz over the set.

Rounds are generated independently per index from a counter-mixed seed, so
round t can be reproduced without replaying rounds 1..t-1. ``make_round``
draws round t's gradient or target from ``default_rng(round_seed(seed, t))``;
``round_chunks`` streams rounds 1..T bit-identical to it, a chunk of rows
at a time. It computes a chunk's PCG64 state and inc words in one
vectorised pass and writes each round's into one generator through
``ctypes.state_address``; a probe checks the words' order, and a mismatch
raises. ``as_rounds`` checks rounds given from outside and holds them in
one read-only (n, dim) array, played with a spec's kind and lam.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_ROWS, as_int, l2_norm, row_dots, row_l2_norms
from . import sets
from .sets import FeasibleSet

__all__ = [
    "LINEAR",
    "QUADRATIC",
    "mix64",
    "round_seed",
    "LossSpec",
    "loss_rows",
    "gradient_at",
    "make_round",
    "round_chunks",
    "as_rounds",
    "certify_constants",
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
    """Stream seed for round t: stride the counter, xor, and mix.

    ``t`` may also be a uint64 array, which gives one seed per entry: NumPy
    wraps uint64 arithmetic modulo 2^64, as the masks do for ints.
    """
    return mix64((seed & _MASK64) ^ ((t * _STRIDE) & _MASK64))


@dataclass(frozen=True)
class LossSpec:
    """Declares one adversary: kind, dimension, base seed, and constants.

    ``seed`` is an integer in [-2**63, 2**64); a negative seed s plays the
    adversary of seed s + 2**64. ``G`` is the gradient norm for linear
    losses (must be positive and finite there, unused otherwise). ``lam``
    is the strong-convexity modulus for quadratic losses (must be positive
    and finite there, unused otherwise).
    """

    kind: str
    dim: int
    seed: int
    G: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in (LINEAR, QUADRATIC):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        object.__setattr__(self, "dim", as_int(self.dim, "dim", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if not -(2**63) <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [-2**63, 2**64), got {self.seed!r}")
        if self.kind == LINEAR and not (0.0 < self.G < math.inf):
            raise ValueError(f"linear losses need a finite G > 0, got {self.G!r}")
        if self.kind == QUADRATIC and not (0.0 < self.lam < math.inf):
            raise ValueError(f"quadratic losses need a finite lam > 0, got {self.lam!r}")


def loss_rows(kind: str, lam: float, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """f_i(xs[i]) for the rounds of ``kind`` whose gradients or targets are
    the rows of ``rows``; ``rows`` and ``xs`` are (n, dim) arrays.

    <g, x> if linear, (lam/2) * ||x - theta||^2 if quadratic, each row
    rounded as the dot product of its vectors is (see ``core.row_dots``).
    """
    if kind == LINEAR:
        return row_dots(rows, xs)
    d = xs - rows
    return 0.5 * lam * row_dots(d, d)


def gradient_at(kind: str, lam: float, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient at ``x`` of the round of ``kind`` whose gradient or target is
    ``row``: ``row`` itself if linear, lam * (x - row) if quadratic."""
    return row if kind == LINEAR else lam * (x - row)


def make_round(spec: LossSpec, t: int, domain: FeasibleSet) -> np.ndarray:
    """Round t's (dim,) gradient or target, from ``default_rng(round_seed(seed, t))``.

    A linear round's gradient has norm exactly G; a quadratic round's
    target is a feasible point of ``domain``.
    """
    t = as_int(t, "round index")
    if not 1 <= t < 2**64:
        # round_seed keeps t * stride to 64 bits, so round t + 2**64 would be round t.
        raise ValueError(f"round index must lie in [1, 2**64), got {t}")
    if spec.dim != domain.dim:
        raise ValueError(f"loss dim {spec.dim} does not match set dim {domain.dim}")
    rng = np.random.default_rng(round_seed(spec.seed, t))
    if spec.kind == LINEAR:
        z = rng.standard_normal(spec.dim)
        n = l2_norm(z)
        while n < sets._MIN_DIRECTION_NORM:
            z = rng.standard_normal(spec.dim)
            n = l2_norm(z)
        return (spec.G / n) * z
    return domain.sample_rows(1, rng)[0]


# Constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx) and of
# the 128-bit LCG behind PCG64 (numpy/random/src/pcg64/pcg64.h).
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Rounds per chunk of the stream: whole blocks of the harness's bookkeeping.
# Bounds the kernel's temporary arrays and the rounds a run holds at once.
_CHUNK = 16 * BLOCK_ROWS


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.PCG64(s).state["state"]`` for each uint64 seed, as the
    row (state high, state low, inc high, inc low) of an (n, 4) uint64 array.

    ``SeedSequence(s)`` hashes the seed's two 32-bit words, padded with
    zeros to its pool of four (the algorithm hashes absent words as 0, so
    the padding is exact), and ``generate_state(4, np.uint64)`` gives
    (initstate, initseq) as two 128-bit numbers. PCG64 then sets
    ``inc = (initseq << 1) | 1`` and steps the LCG from 0 twice, adding
    initstate after the first step. The mixing runs on uint32 arrays, one
    lane per seed, where NumPy wraps modulo 2^32 as the C code does; the
    128-bit steps run on 32-bit limbs held in uint64 arrays.
    """
    words = [(seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * 2
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    hash_const = _INIT_B
    state = []
    for i_dst in range(8):
        value = pool[i_dst % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Little-endian uint32 pairs make four uint64 words, high word first;
    # as 32-bit limbs, lowest first:
    initstate = [state[2], state[3], state[0], state[1]]
    initseq = [state[6], state[7], state[4], state[5]]
    inc = [((initseq[k] << 1) | (initseq[k - 1] >> 31 if k else 1)) & _M32 for k in range(4)]
    total, carry = [], 0
    for k in range(4):
        carry = inc[k] + initstate[k] + carry
        total.append(carry & _M32)
        carry >>= 32
    # state = total * _PCG64_MULT + inc mod 2^128, one limb column at a
    # time: a column sums at most four low and three high halves of limb
    # products, a limb of inc and a carry, well inside 64 bits.
    mult = [np.uint64((_PCG64_MULT >> (32 * k)) & _M32) for k in range(4)]
    limbs, carry = [], 0
    for k in range(4):
        column = inc[k] + carry
        for i in range(k + 1):
            column = column + ((total[i] * mult[k - i]) & _M32)
            if i < k:
                column = column + ((total[i] * mult[k - 1 - i]) >> 32)
        limbs.append(column & _M32)
        carry = column >> 32
    return np.stack([(w[high] << 32) | w[high - 1] for w in (limbs, inc) for high in (3, 1)], axis=1)


# The orders of _pcg64_states' columns in which NumPy's pcg64_random_t may
# store them: a little-endian __uint128_t state and inc, low word first, or
# NumPy's {high, low} struct. The probe's words in column order are 1..4.
_WORD_ORDERS = ([1, 0, 3, 2], [0, 1, 2, 3])
_PROBE = {"state": (1 << 64) | 2, "inc": (3 << 64) | 4}


def _state_view(bitgen: np.random.PCG64) -> np.ndarray:
    """A 4-word uint64 view of the ``pcg64_random_t`` that ``bitgen`` draws
    from, whose address is the first field of the ``pcg64_state`` at
    ``bitgen.ctypes.state_address``. The view does not keep ``bitgen`` alive."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))


def round_chunks(spec: LossSpec, T: int, domain: FeasibleSet):
    """Rounds 1..T, ``_CHUNK`` at a time: yields each chunk's (n, dim) rows,
    written into one buffer that the next chunk reuses. Round t is
    bit-identical to ``make_round(spec, t, domain)``.

    ``_pcg64_states`` computes a chunk's PCG64 state and inc words; each
    round's are written into one reused generator through its
    ``ctypes.state_address``, and the round draws into its row. A probe
    state set through ``bitgen.state`` and read back fixes the words'
    order. Linear rows are scaled to norm G a chunk at a time; quadratic
    rows are the domain's ``feasible_rows``. A row whose first draw
    ``make_round`` would redraw is ``make_round``'s. A ``RuntimeError``
    naming the NumPy version says that NumPy's PCG64 no longer matches the
    kernel: the probe read back neither order, or round 1 is not
    ``make_round``'s.
    """
    T = as_int(T, "T")
    if T < 1:
        raise ValueError(f"need at least one round, got T = {T}")
    reference = make_round(spec, 1, domain)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    view = _state_view(bitgen)
    bitgen.state = {"bit_generator": "PCG64", "state": _PROBE, "has_uint32": 0, "uinteger": 0}
    seen = view.tolist()
    order = next((o for o in _WORD_ORDERS if seen == [i + 1 for i in o]), None)
    if order is None:
        raise RuntimeError(
            f"NumPy {np.__version__} stores PCG64's state words in neither order "
            f"round_chunks' kernel knows; its probe read back {seen}"
        )

    def generators(states):
        # The one generator, set to each round's state in turn.
        for words in states:
            view[...] = words
            yield rng

    linear = spec.kind == LINEAR
    buffer = np.empty((min(T, _CHUNK), spec.dim))
    for start in range(0, T, _CHUNK):
        rows = buffer[: T - start]
        seeds = round_seed(spec.seed, np.arange(start + 1, start + len(rows) + 1, dtype=np.uint64))
        rngs = generators(_pcg64_states(seeds)[:, order])
        if linear:
            for row, gen in zip(rows, rngs):
                gen.standard_normal(out=row)
            norms = row_l2_norms(rows)
            # A first draw too short to scale is redrawn by make_round, whose
            # row has norm G already: G / G is exactly 1.
            redrawn = np.flatnonzero(norms < sets._MIN_DIRECTION_NORM)
            norms[redrawn] = spec.G
            rows *= (spec.G / norms)[:, None]
        else:
            redrawn = domain.feasible_rows(rows, rngs)
        for i in redrawn.tolist():
            rows[i] = make_round(spec, start + i + 1, domain)
        if start == 0 and not np.array_equal(rows[0], reference):
            raise RuntimeError(
                f"NumPy {np.__version__} seeds PCG64 differently from round_chunks' kernel; "
                "round 1 does not match make_round"
            )
        yield rows


def as_rounds(data) -> np.ndarray:
    """A checked, read-only, C-ordered float64 copy of ``data``, rounds from outside.

    ``data`` is an (n, dim) array, n, dim >= 1, whose row i is round i + 1's
    gradient (linear losses) or target (quadratic ones). Anything else raises
    ``ValueError`` naming it; a non-finite row is named by its round number.
    """
    if np.iscomplexobj(data):
        raise ValueError("rounds have complex data")
    # C order keeps each round a contiguous row, which the learner takes as is.
    rows = np.array(data, dtype=np.float64, order="C")
    if rows.ndim != 2 or 0 in rows.shape:
        raise ValueError(f"expected an (n, dim) array, n, dim >= 1, got shape {rows.shape}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"round {bad[0] + 1} has non-finite data")
    rows.flags.writeable = False
    return rows


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
