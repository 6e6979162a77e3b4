"""(m, m) additive secret sharing over a prime field with exact aggregate
reconstruction.

Each sensor splits its encoded value into m shares: the first m-1 are drawn
uniformly from Z_Q and the last is chosen so that all m sum to the secret
mod Q. Any proper subset of a bundle's shares is itself uniform, so an
observer short of full channel coverage learns nothing about the secret.

Choosing a prime modulus Q > n_max * q guarantees the modular sum of all
n*m shares never wraps, so it equals the exact integer sum of the secrets;
the decoded average is then off from the true average only by the codec's
quantization, i.e. by less than 1/k.

There is deliberately no redundancy: a missing share is a hard error, not
something to interpolate around.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

#: n_max * q at or beyond this cannot be represented safely in the 64-bit
#: share arithmetic used on the wire; config loading refuses such encodings.
MAX_FIELD_BOUND = 1 << 62

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class MissingShareError(ValueError):
    """Reconstruction aborted because shares were lost in transit.

    (m, m) additive sharing has no redundancy: the loss of even a single
    share makes the aggregate unrecoverable. `missing` lists the absent
    (sensor_id, channel) pairs, channels 1-based.
    """

    def __init__(self, missing: Iterable[tuple[str, int]]):
        self.missing = list(missing)
        pairs = ", ".join(f"({sid}, channel {ch})" for sid, ch in self.missing)
        super().__init__(f"cannot reconstruct, missing shares: {pairs}")

    def __reduce__(self):
        # default pickling would feed the message string back into __init__
        return (MissingShareError, (self.missing,))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Prime field sized so that aggregate sums cannot wrap.

    modulus: prime Q; n_max: most sensors a reconstruction may cover;
    width: encoded-domain width q (every secret lies in [0, width]).
    """

    modulus: int
    n_max: int
    width: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        if self.modulus <= self.n_max * self.width:
            raise ValueError(
                f"modulus {self.modulus} must exceed n_max * width = "
                f"{self.n_max * self.width} to rule out wraparound"
            )


@lru_cache(maxsize=256)
def choose_modulus(n_max: int, q: int) -> FieldParams:
    """Smallest prime strictly greater than n_max * q.

    Deterministic, so independently configured parties agree on the field.
    """
    if n_max < 1 or q < 1:
        raise ValueError(f"need n_max >= 1 and q >= 1, got ({n_max}, {q})")
    bound = n_max * q
    if bound >= MAX_FIELD_BOUND:
        raise OverflowError(
            f"n_max * q = {bound} exceeds the 62-bit safety bound for share arithmetic"
        )
    candidate = bound + 1
    while not is_prime(candidate):
        candidate += 1
    return FieldParams(modulus=candidate, n_max=n_max, width=q)


@dataclass(frozen=True, init=False)
class ShareBundle:
    """The m shares of one encoded secret.

    Share j is published to broadcast channel j (1-based); the assignment is
    deterministic so eavesdropper coverage is well defined. A None entry
    marks a share lost in transit; such a bundle can never be reconstructed.
    As in Envelope, the hand-written __init__ validates, then stores the
    fields straight into the instance dict: the generated one of a frozen
    dataclass makes one object.__setattr__ call per field, on every split.
    """

    sensor_id: str
    shares: tuple[Optional[int], ...]
    modulus: int

    def __init__(self, sensor_id: str, shares: tuple[Optional[int], ...], modulus: int) -> None:
        if not shares:
            raise ValueError("a bundle needs at least one share")
        for s in shares:
            if s is not None and not 0 <= s < modulus:
                # the first share equal to s is the first one out of range
                raise ValueError(
                    f"share {shares.index(s) + 1} of {sensor_id!r} is {s}, outside [0, {modulus})"
                )
        d = self.__dict__
        d["sensor_id"] = sensor_id
        d["shares"] = shares
        d["modulus"] = modulus

    @property
    def m(self) -> int:
        return len(self.shares)


def draw_prefixes(count: int, m: int, fp: FieldParams, rng: np.random.Generator) -> list:
    """The first m-1 shares of `count` secrets, one row each, uniform on Z_Q."""
    if m < 1:
        raise ValueError(f"share count m must be >= 1, got {m}")
    # Lemire rejection keeps each share exactly uniform, as secrecy needs; a
    # block takes the same stream words as `count` rows of scalar draws
    return rng.integers(0, fp.modulus, size=(count, m - 1)).tolist()


def split(
    secret: int, prefix: Sequence[int], fp: FieldParams, sensor_id: str = "sensor"
) -> ShareBundle:
    """Close a drawn prefix with the share that makes all m sum to the secret mod Q."""
    if not 0 <= secret <= fp.width:
        raise ValueError(f"secret {secret} outside encoded domain [0, {fp.width}]")
    # a sum of Python ints: it cannot overflow even with Q near 2^62
    last = (secret - sum(prefix)) % fp.modulus
    return ShareBundle(sensor_id, (*prefix, last), fp.modulus)


def draw_lost_share(n: int, m: int, rng: np.random.Generator) -> tuple[int, int]:
    """Which share an injected loss removes: (victim sensor index, channel).

    The victim is drawn uniformly from the n sensors, then the channel
    uniformly from 1..m (1-based, as in ShareBundle), in that order.
    """
    victim = int(rng.integers(0, n))
    return victim, int(rng.integers(1, m + 1))


def lose_share(bundle: ShareBundle, channel: int) -> ShareBundle:
    """The bundle with its share on `channel` (1-based) lost in transit."""
    shares = bundle.shares
    return replace(bundle, shares=shares[: channel - 1] + (None,) + shares[channel:])


def reconstruct_sum(bundles: Sequence[ShareBundle], fp: FieldParams) -> int:
    """Sum all n*m shares mod Q, which equals the exact sum of the secrets.

    Every bundle is checked for the field's modulus and the first bundle's
    share count, in order, before a lost share raises MissingShareError
    naming every absent (sensor_id, channel) pair.
    """
    if not bundles:
        raise ValueError("no bundles to reconstruct from")
    if len(bundles) > fp.n_max:
        raise ValueError(f"{len(bundles)} bundles exceed the field's n_max={fp.n_max}")
    modulus, m = fp.modulus, len(bundles[0].shares)
    total, missing = 0, []
    for b in bundles:
        shares = b.shares
        if b.modulus != modulus:
            raise ValueError(
                f"modulus mismatch: bundle {b.sensor_id!r} uses {b.modulus}, field uses {modulus}"
            )
        if len(shares) != m:
            raise ValueError(
                f"share-count mismatch: {b.sensor_id!r} has {b.m} shares, expected {m}"
            )
        if None in shares:
            missing += [(b.sensor_id, ch) for ch, s in enumerate(shares, start=1) if s is None]
        else:
            total += sum(shares)
    if missing:
        raise MissingShareError(missing)
    return total % modulus
