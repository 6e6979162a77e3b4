"""Laplace-mechanism differential privacy over the encoded integer domain.

Two deployment models:

* local (LDP): each sensor perturbs its own encoded value before it is
  published, so no downstream party ever sees the raw reading. Noise is
  rounded to the nearest integer because the wire format carries integers;
  rounding is symmetric, so sums stay unbiased.
* global (GDP): a trusted aggregator computes the exact aggregate first and
  adds a single real-valued Laplace draw to the terminal result.

A k-ary randomized-response mechanism over {0..q} is provided as an
alternative local mechanism for categorical treatment of the encoded domain.

Noise scales live in encoded units: scale b = sensitivity / epsilon, where
the sensitivity defaults to the encoded-domain width q for sum queries.
Noisy values are never clamped back into [0, q] -- clamping biases sums.
Every draw flows through an injected numpy Generator so runs reproduce
exactly from a seed; parallel runs use independently seeded generators
(seed = master_seed + run_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .codec import EncodingParams

if TYPE_CHECKING:
    import numpy as np

#: The two deployment models, as configs and reports name them.
LDP_MODEL = "ldp"
GDP_MODEL = "gdp"

#: Elements per block of the array noise kernels: 8192 float64 are 64 KiB,
#: so a block's scratch stays in cache and its size does not grow with the
#: array.
BLOCK = 8192


@dataclass(frozen=True)
class PrivacyBudget:
    """Privacy parameter epsilon plus query sensitivity in encoded units."""

    epsilon: float
    sensitivity: int

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.sensitivity < 1:
            raise ValueError(f"sensitivity must be a positive integer, got {self.sensitivity}")

    @property
    def scale(self) -> float:
        """Laplace scale b = sensitivity / epsilon."""
        return self.sensitivity / self.epsilon


def sample_laplace(scale: float, rng: np.random.Generator, size=None):
    """Draw from Laplace(0, scale) by inverse CDF.

    With u uniform on (-1/2, 1/2): draw = -scale * sgn(u) * ln(1 - 2|u|).
    Returns a float when size is None, otherwise an ndarray of shape size.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"Laplace scale must be positive and finite, got {scale}")
    if size is None:
        u = rng.random()
        while u == 0.0:  # u - 1/2 == -1/2 would hit log(0)
            u = rng.random()
        u -= 0.5
        return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))
    import numpy as np

    u = rng.random(size)
    while np.count_nonzero(u) != u.size:
        zero = u == 0.0
        u[zero] = rng.random(int(zero.sum()))
    u -= 0.5
    # the log term of each block goes through one block-sized scratch array;
    # -scale * ln(1 - 2|u|) is never negative, so u's sign copied onto it
    # gives the bits of the formula above, +0.0 at u == 0 included
    flat = u.reshape(-1)  # a view, so a 0-d u is written in place too
    scratch = np.empty(min(flat.size, BLOCK))
    for start in range(0, flat.size, BLOCK):
        block = flat[start : start + BLOCK]
        log_term = scratch[: block.size]
        np.abs(block, out=log_term)
        log_term *= -2.0
        np.log1p(log_term, out=log_term)
        log_term *= -scale
        np.copysign(log_term, block, out=block)
    return u


def ldp_perturb(x: int, budget: PrivacyBudget, rng: np.random.Generator) -> int:
    """Perturb one freshly encoded value at the sensor: x + round(Lap(b)).

    The result may leave [0, q]; it is intentionally not clamped.
    """
    return x + round(sample_laplace(budget.scale, rng))


def ldp_perturb_array(xs, budget: PrivacyBudget, rng: np.random.Generator) -> np.ndarray:
    """Vector form of ldp_perturb for batch experiments (int64 output)."""
    import numpy as np

    xs = np.asarray(xs, dtype=np.int64)
    noise = sample_laplace(budget.scale, rng, size=xs.shape)
    np.rint(noise, out=noise)
    out = noise.astype(np.int64)
    out += xs
    return out


def gdp_aggregate(xs: Sequence[int], budget: PrivacyBudget, rng: np.random.Generator) -> float:
    """Sum exactly, then add a single Laplace draw at the trusted node.

    The sum is computed in exact integer arithmetic before the one noise
    draw is added, so every value must be a Python int: a float or numpy
    scalar raises TypeError rather than being truncated.
    """
    if len(xs) == 0:
        raise ValueError("gdp_aggregate needs at least one value")
    exact = sum(xs)  # a float or numpy scalar anywhere makes the total one too
    if type(exact) is not int:
        bad = next((v for v in xs if not isinstance(v, int)), exact)
        raise TypeError(f"gdp_aggregate sums Python ints, got {bad!r} ({type(bad).__name__})")
    return exact + sample_laplace(budget.scale, rng)


def krr_perturb(x: int, epsilon: float, p: EncodingParams, rng: np.random.Generator) -> int:
    """k-ary randomized response over the encoded domain {0..q}.

    Keeps x with probability e^eps / (e^eps + q), otherwise reports a uniform
    draw from the other q values; this satisfies epsilon-LDP on the encoded
    domain. The keep probability is evaluated as 1 / (1 + q * e^-eps) so very
    large epsilon cannot overflow.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    q = p.q
    if not 0 <= x <= q:
        raise ValueError(f"encoded value {x} outside [0, {q}]")
    keep = 1.0 / (1.0 + q * math.exp(-epsilon))
    if rng.random() < keep:
        return x
    other = int(rng.integers(0, q))
    return other if other < x else other + 1
