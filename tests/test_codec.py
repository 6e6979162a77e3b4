"""Fixed-point codec: exact formulas, round-trip bound, strict domain checks."""

import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from petfabric.codec import (
    DomainError,
    EncodingParams,
    decode,
    decode_sum,
    encode,
)


@pytest.mark.parametrize(
    "lo,hi,k,q_min,q",
    [
        (50, 120, 1, 50, 170),  # weight domain: offset 50, width 170
        (-10, 20, 1, -10, 30),
        (0.0, 1.0, 100, 0, 100),
    ],
)
def test_encoding_params_examples(lo, hi, k, q_min, q):
    p = EncodingParams(k, lo, hi)
    assert p.q_min == q_min
    assert p.q == q
    assert p.offset == abs(q_min)


def test_encode_examples():
    p = EncodingParams(1, 50, 120)
    assert encode(72.4, p) == 122  # 50 + floor(72.4)
    assert encode(50, p) == 100
    assert encode(120, p) == 170
    p2 = EncodingParams(1, -10, 20)
    assert encode(-10, p2) == 0  # lower domain edge
    assert encode(20, p2) == 30


def test_decode_examples():
    assert decode(122, EncodingParams(1, 50, 120)) == 72.0
    assert decode(0, EncodingParams(1, -10, 20)) == -10.0


def test_decode_accepts_out_of_range_values():
    p = EncodingParams(1, 50, 120)
    # noise pushes encoded values outside [0, q]; decode must not clamp
    assert decode(-20, p) == -70.0
    assert decode(p.q + 100, p) == 220.0


def test_derived_fields_are_not_stored():
    # only {k, x_lo, x_hi} are fields; q_min, offset and q are derived from them
    assert [f.name for f in fields(EncodingParams)] == ["k", "x_lo", "x_hi"]


def test_cached_derived_values_keep_identity_semantics():
    warm = EncodingParams(1, 50, 120)
    assert (warm.q_min, warm.offset, warm.q) == (50, 50, 170)  # fills the cache
    cold = EncodingParams(1, 50, 120)
    assert warm == cold and hash(warm) == hash(cold)
    assert warm != EncodingParams(2, 50, 120)
    assert {warm: "a"}[cold] == "a"

    for p in (warm, cold):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p)
        assert (back.q_min, back.offset, back.q) == (50, 50, 170)

    with pytest.raises(FrozenInstanceError):
        warm.k = 2
    finer = replace(warm, k=10)  # must not reuse warm's cached width
    assert (finer.q_min, finer.offset, finer.q) == (500, 500, 1700)
    shifted = replace(warm, x_lo=-10.0)
    assert (shifted.q_min, shifted.offset, shifted.q) == (-10, 10, 130)


def test_domain_errors():
    with pytest.raises(DomainError):
        EncodingParams(1, 120, 50)
    with pytest.raises(DomainError):
        EncodingParams(0, 0, 1)
    with pytest.raises(DomainError):
        EncodingParams(1, float("nan"), 1.0)
    p = EncodingParams(1, 50, 120)
    with pytest.raises(DomainError):
        encode(49.999, p)
    with pytest.raises(DomainError):
        encode(120.001, p)
    with pytest.raises(DomainError):
        encode(float("nan"), p)
    with pytest.raises(DomainError):
        decode_sum(100, 0, p)


def _exact_roundtrip_error(x: float, p: EncodingParams) -> Fraction:
    y = encode(x, p)
    return Fraction(x) - Fraction(y - p.offset, p.k)


def test_roundtrip_bound_random_sweep():
    # quantization error is one-sided: 0 <= x - decode(encode(x)) < 1/k,
    # checked in exact rational arithmetic
    rng = np.random.default_rng(7)
    for lo, hi, k in [(50, 120, 1), (-10, 20, 7), (-3.5, 2.25, 100)]:
        p = EncodingParams(k, lo, hi)
        bound = Fraction(1, k)
        for x in rng.uniform(lo, hi, 10_000):
            err = _exact_roundtrip_error(float(x), p)
            assert 0 <= err < bound


@st.composite
def domain_and_point(draw):
    lo = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    width = draw(st.floats(0, 1e6, allow_nan=False, allow_infinity=False))
    k = draw(st.integers(1, 1000))
    hi = lo + width
    x = draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    return lo, hi, k, x


@given(domain_and_point())
def test_roundtrip_bound_property(case):
    lo, hi, k, x = case
    p = EncodingParams(k, lo, hi)
    assert 0 <= _exact_roundtrip_error(x, p) < Fraction(1, k)


@given(domain_and_point(), st.floats(0, 1, allow_nan=False))
def test_encode_monotone_and_in_range(case, frac):
    lo, hi, k, x = case
    p = EncodingParams(k, lo, hi)
    y = lo + (hi - lo) * frac
    a, b = sorted((x, y))
    ea, eb = encode(a, p), encode(b, p)
    assert ea <= eb
    assert 0 <= ea <= p.q and 0 <= eb <= p.q


def test_decode_sum_matches_elementwise_decoding():
    p = EncodingParams(7, -10, 20)
    xs = [-10, -3.2, 0.0, 11.5, 19.99]
    encoded = [encode(x, p) for x in xs]
    assert decode_sum(sum(encoded), len(xs), p) == pytest.approx(
        sum(decode(e, p) for e in encoded)
    )
