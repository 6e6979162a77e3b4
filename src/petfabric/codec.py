"""Fixed-point codec between real-valued sensor readings and a non-negative
integer domain {0..q}.

A reading x is stored as offset + floor(x * k), where the precision k counts
encoded units per real unit and the offset |q_min| shifts the scaled domain
minimum up to zero or above. Decoding subtracts the offset and divides by k,
so the only information loss is the one-sided floor quantization, strictly
less than 1/k.

Encoded values are plain ints. Freshly encoded values land in [0, q]; values
that re-enter the codec after noise addition may lie outside that range and
decode() accepts them unchanged, because clamping would bias aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


class DomainError(ValueError):
    """Input value or domain bounds outside what the codec accepts."""


def _floor_scaled(x: float, k: int) -> int:
    # Exact rational floor: float multiplication can round across an integer
    # boundary and silently break the one-sided quantization bound.
    num, den = x.as_integer_ratio()
    return num * k // den


@dataclass(frozen=True)
class EncodingParams:
    """Fixed-point configuration: precision plus the closed input domain.

    Only k, x_lo and x_hi are fields: they alone are compared, hashed and
    written to configs. q_min, offset and q are derived from them on first
    use and cached on the instance, so they can never fall out of sync: the
    instance is frozen, and dataclasses.replace builds a new one with an
    empty cache.
    """

    k: int
    x_lo: float
    x_hi: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"precision k must be a positive integer, got {self.k}")
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise DomainError("domain bounds must be finite")
        if self.x_lo > self.x_hi:
            raise DomainError(f"inverted domain: x_lo={self.x_lo} > x_hi={self.x_hi}")

    @cached_property
    def q_min(self) -> int:
        """floor(x_lo * k), the smallest scaled value in the domain."""
        return _floor_scaled(self.x_lo, self.k)

    @cached_property
    def offset(self) -> int:
        """|q_min|, added to every scaled value before transmission."""
        return abs(self.q_min)

    @cached_property
    def q(self) -> int:
        """Encoded-domain width |q_min| + floor(x_hi * k); always >= 0."""
        return self.offset + _floor_scaled(self.x_hi, self.k)


def encode(x: float, p: EncodingParams) -> int:
    """Encode a reading as offset + floor(x * k).

    Out-of-domain input is rejected rather than clamped: silent clamping
    would bias downstream aggregates and hide sensor faults.
    """
    if not (p.x_lo <= x <= p.x_hi):
        raise DomainError(f"value {x!r} outside encoding domain [{p.x_lo}, {p.x_hi}]")
    return p.offset + _floor_scaled(x, p.k)


def decode(y: int | float, p: EncodingParams) -> float:
    """Invert encode(): (y - offset) / k.

    y may lie outside [0, q]; differentially private noise legitimately
    pushes encoded values out of range.
    """
    return (y - p.offset) / p.k


def decode_sum(total: int | float, n: int, p: EncodingParams) -> float:
    """Decode a sum of n encoded values: (total - n * offset) / k."""
    if n < 1:
        raise DomainError(f"sum must cover at least one value, got n={n}")
    return (total - n * p.offset) / p.k
