"""Canonical CBOR subset: reference vectors, bijection, strict decoding."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from petfabric.fabric.cbor import CborDecodeError, CborEncodeError, _decode_item, decode, encode
from petfabric.fabric.envelope import Scheme

# reference byte strings from the CBOR specification's integer/string tables
VECTORS = [
    (0, "00"),
    (1, "01"),
    (10, "0a"),
    (23, "17"),
    (24, "1818"),
    (25, "1819"),
    (100, "1864"),
    (122, "187a"),
    (1000, "1903e8"),
    (1_000_000, "1a000f4240"),
    (1_000_000_000_000, "1b000000e8d4a51000"),
    (18_446_744_073_709_551_615, "1bffffffffffffffff"),
    (-1, "20"),
    (-10, "29"),
    (-24, "37"),
    (-25, "3818"),
    (-100, "3863"),
    (-1000, "3903e7"),
    ("", "60"),
    ("a", "6161"),
    ("s1", "627331"),
    ("IETF", "6449455446"),
    ("ü", "62c3bc"),
    ({}, "a0"),
    ({1: 2, 3: 4}, "a201020304"),
    (1.1, "fb3ff199999999999a"),
    (1.0e300, "fb7e37e43c8800759c"),
    (-4.1, "fbc010666666666666"),
]


@pytest.mark.parametrize("value,hexbytes", VECTORS)
def test_reference_vectors(value, hexbytes):
    assert encode(value).hex() == hexbytes
    assert decode(bytes.fromhex(hexbytes)) == value


def test_float_is_always_eight_bytes():
    assert encode(1.0) == b"\xfb" + struct.pack(">d", 1.0)
    assert encode(0.0).hex() == "fb0000000000000000"


def test_nan_round_trips():
    out = decode(encode(float("nan")))
    assert isinstance(out, float) and math.isnan(out)


def test_map_keys_sorted_regardless_of_insertion_order():
    forward = encode({0: "s1", 3: 122, 1: 0})
    backward = encode({3: 122, 1: 0, 0: "s1"})
    assert forward == backward
    assert decode(forward) == {0: "s1", 1: 0, 3: 122}


def test_same_value_same_bytes():
    payload = {0: "sensor-9", 1: 7, 2: 1, 3: -39, 5: 0.5, 6: 123456}
    assert encode(payload) == encode(dict(payload))


class Text(str):
    pass


@pytest.mark.parametrize(
    "value",
    [True, False, None, b"bytes", [1, 2], {"str": 1}, {-1: 2}, {1.5: 2}, {True: 1}, 2**64, -(2**64) - 1,
     # only the exact types encode: a subclass is refused, not cast to its base
     Scheme.LDP, np.float64(0.5), Text("s1")],
)
def test_encode_rejects_out_of_subset(value):
    with pytest.raises(CborEncodeError):
        encode(value)


@pytest.mark.parametrize(
    "hexbytes,reason",
    [
        ("1800", "non-minimal one-byte head"),
        ("1817", "non-minimal one-byte head"),
        ("190001", "non-minimal two-byte head"),
        ("1a00000001", "non-minimal four-byte head"),
        ("1b0000000000000001", "non-minimal eight-byte head"),
        ("3800", "non-minimal negative head"),
        ("9f01ff", "indefinite array"),
        ("bf0101ff", "indefinite map"),
        ("f93c00", "half-precision float"),
        ("fa3f800000", "single-precision float"),
        ("f4", "false simple value"),
        ("f5", "true simple value"),
        ("f6", "null simple value"),
        ("5f41614161ff", "byte string"),
        ("4100", "byte string major type"),
        ("8101", "array major type"),
        ("c101", "tag major type"),
        ("a2010001 00".replace(" ", ""), "descending keys"),
        ("a201000100", "duplicate keys"),
        ("a2000001", "truncated map"),
        ("a16161 01".replace(" ", ""), "text key"),
        ("a1200101", "negative key"),
        ("18", "truncated head"),
        ("fb00000000000000", "truncated float"),
        ("62c3", "truncated text"),
        ("62fffe", "invalid utf-8"),
        ("0000", "trailing bytes"),
        ("1c", "reserved additional info"),
        ("", "empty input"),
        ("a1001800", "non-minimal one-byte head in a map value"),
        ("a100190001", "non-minimal two-byte head in a map value"),
        ("a1001b0000000000000001", "non-minimal eight-byte head in a map value"),
        ("a100f93c00", "half-precision float in a map value"),
        ("a100fb0000", "truncated float in a map value"),
        ("a1001c", "reserved additional info in a map value"),
        ("a10018", "truncated head in a map value"),
        ("a200002000", "negative key after a valid map value"),
    ],
)
def test_decode_rejects_malformed_or_noncanonical(hexbytes, reason):
    with pytest.raises(CborDecodeError):
        decode(bytes.fromhex(hexbytes))


scalars = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
)


# the first st.text() draw of a fresh checkout builds Hypothesis's unicode
# cache, which takes about 2 s; only that slowness is let through
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.integers(0, 2**17), scalars, max_size=12))
def test_map_round_trip_property(payload):
    assert decode(encode(payload)) == payload


@given(scalars)
def test_scalar_round_trip_property(value):
    assert decode(encode(value)) == value


# a map value must be accepted and refused exactly as the same item at
# the top level
# heads with an argument, followed by bytes that are often small (non-minimal)
heads = st.sampled_from([0x18, 0x19, 0x1A, 0x1B, 0x1C, 0x38, 0x3B, 0x63, 0xF9, 0xFB])
tails = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 255)), max_size=9).map(bytes)
raw_items = st.builds(lambda head, tail: bytes([head]) + tail, heads | st.integers(0, 255), tails)


@given(st.one_of(raw_items, scalars.map(encode)))
def test_map_values_decode_like_top_level_items(item):
    # parse a prefix, so that trailing bytes cannot hide a difference
    framed = b"\xa1\x00" + item
    try:
        _, end = _decode_item(item, 0, len(item))
    except CborDecodeError:
        with pytest.raises(CborDecodeError):
            _decode_item(framed, 0, len(framed))
    else:
        value, stop = _decode_item(framed, 0, len(framed))
        assert stop == end + 2 and encode(value) == framed[:stop]
