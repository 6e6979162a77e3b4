"""Envelope wire format: construction rules, round trips, decode errors."""

import pytest
from hypothesis import given, strategies as st

from petfabric.fabric.envelope import Envelope, EnvelopeError, Scheme, cbor_decode, cbor_encode
from petfabric.fabric.cbor import CborDecodeError, encode as raw_cbor_encode


def make_env(**overrides):
    base = dict(
        topic="cabin/sim/s1/value",
        sensor_id="s1",
        sequence=0,
        scheme=Scheme.RAW,
        value=122,
        timestamp_us=0,
    )
    base.update(overrides)
    return Envelope(**base)


def test_minimal_raw_round_trip():
    env = make_env()
    data = cbor_encode(env)
    assert cbor_decode(data, topic=env.topic) == env


def test_round_trip_every_scheme():
    envs = [
        make_env(),
        make_env(scheme=Scheme.LDP, value=-39, epsilon=0.5),
        make_env(scheme=Scheme.GDP, value=61184, epsilon=1.0),
        make_env(scheme=Scheme.ASS_SHARE, value=84733, share_index=2),
        make_env(scheme=Scheme.KRR, value=46, epsilon=2.0),
    ]
    for env in envs:
        assert cbor_decode(cbor_encode(env), topic=env.topic) == env


# one per scheme, hand-checked against RFC 8949: heads of every width, a
# negative value, and timestamps on both sides of 2**32
REFERENCE_VECTORS = [
    (
        dict(sensor_id="s1", sequence=0, scheme=Scheme.RAW, value=122, timestamp_us=0),
        "a5006273310100020003187a0600",
    ),
    (
        dict(sensor_id="s12", sequence=7, scheme=Scheme.LDP, value=-39, epsilon=0.5,
             timestamp_us=4_294_967_296),
        "a600637331320107020103382605fb3fe0000000000000061b0000000100000000",
    ),
    (
        dict(sensor_id="vnode", sequence=300, scheme=Scheme.GDP, value=61184, epsilon=1.0,
             timestamp_us=5_000_123_456),
        "a60065766e6f64650119012c02020319ef0005fb3ff0000000000000061b000000012a07d440",
    ),
    (
        dict(sensor_id="s0", sequence=65536, scheme=Scheme.ASS_SHARE, value=8_500_000,
             share_index=3, timestamp_us=4_294_967_295),
        "a600627330011a000100000203031a0081b3200403061affffffff",
    ),
    (
        dict(sensor_id="sensor-9", sequence=23, scheme=Scheme.KRR, value=-1000, epsilon=2.0,
             timestamp_us=1_000_000),
        "a6006873656e736f722d3901170204033903e705fb4000000000000000061a000f4240",
    ),
]


@pytest.mark.parametrize(
    "fields,hexbytes", REFERENCE_VECTORS, ids=[f["scheme"].name for f, _ in REFERENCE_VECTORS]
)
def test_reference_vectors(fields, hexbytes):
    env = Envelope(topic="cabin/t", **fields)
    assert cbor_encode(env).hex() == hexbytes
    assert cbor_decode(bytes.fromhex(hexbytes), topic="cabin/t") == env


def test_encoding_is_stable():
    env = make_env(scheme=Scheme.LDP, value=-39, epsilon=0.5, sequence=7)
    assert cbor_encode(env) == cbor_encode(env)


def test_share_index_only_with_ass_scheme():
    with pytest.raises(EnvelopeError):
        make_env(share_index=1)  # raw + share index
    with pytest.raises(EnvelopeError):
        make_env(scheme=Scheme.ASS_SHARE)  # missing share index
    with pytest.raises(EnvelopeError):
        make_env(scheme=Scheme.ASS_SHARE, share_index=0)
    with pytest.raises(EnvelopeError):
        make_env(scheme=Scheme.ASS_SHARE, share_index=1, value=-5)  # negative share


def test_epsilon_only_with_dp_schemes():
    with pytest.raises(EnvelopeError):
        make_env(epsilon=1.0)  # raw + epsilon
    for scheme in (Scheme.LDP, Scheme.GDP, Scheme.KRR):
        with pytest.raises(EnvelopeError):
            make_env(scheme=scheme)  # missing epsilon
        with pytest.raises(EnvelopeError):
            make_env(scheme=scheme, epsilon=0.0)


def test_unknown_scheme_tag_rejected():
    with pytest.raises(EnvelopeError):
        make_env(scheme=99)


def test_field_validation():
    with pytest.raises(EnvelopeError):
        make_env(sequence=-1)
    with pytest.raises(EnvelopeError):
        make_env(timestamp_us=-1)
    with pytest.raises(EnvelopeError):
        make_env(sensor_id=7)


def payload_bytes(payload: dict) -> bytes:
    return raw_cbor_encode(payload)


GOOD_RAW = {0: "s1", 1: 0, 2: 0, 3: 122, 6: 0}


@pytest.mark.parametrize("drop", [0, 1, 2, 3, 6])
def test_decode_missing_mandatory_key(drop):
    payload = {k: v for k, v in GOOD_RAW.items() if k != drop}
    with pytest.raises(EnvelopeError, match="missing mandatory"):
        cbor_decode(payload_bytes(payload))


def test_decode_rejects_unknown_keys():
    with pytest.raises(EnvelopeError, match="unknown payload keys"):
        cbor_decode(payload_bytes({**GOOD_RAW, 9: 1}))


def test_decode_rejects_bad_scheme_tag():
    with pytest.raises(EnvelopeError, match="unknown scheme tag"):
        cbor_decode(payload_bytes({**GOOD_RAW, 2: 99}))


def test_decode_rejects_inconsistent_conditionals():
    # scheme 3 without its share index
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 2: 3}))
    # raw scheme with an epsilon
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 5: 1.0}))
    # ldp scheme without epsilon
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 2: 1}))


def test_decode_rejects_wrong_types():
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 0: 5}))  # sensor id not text
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 3: "x"}))  # value not int
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 2: 1, 5: 1}))  # epsilon not float
    with pytest.raises(EnvelopeError):
        cbor_decode(payload_bytes({**GOOD_RAW, 1: -1}))  # negative sequence


GOOD_SHARE = {**GOOD_RAW, 2: 3, 4: 1}
GOOD_LDP = {**GOOD_RAW, 2: 1, 5: 1.0}

#: (id, payload, a pattern its refusal message must match): every payload a
#: constructed Envelope would refuse, the decoder refuses too
DECODE_REFUSALS = [
    ("sensor-id-int", {**GOOD_RAW, 0: 5}, r"sensor.id"),
    ("sequence-negative", {**GOOD_RAW, 1: -1}, r"sequence"),
    ("sequence-float", {**GOOD_RAW, 1: 1.5}, r"sequence"),
    ("sequence-text", {**GOOD_RAW, 1: "1"}, r"sequence"),
    ("timestamp-negative", {**GOOD_RAW, 6: -1}, r"timestamp"),
    ("timestamp-float", {**GOOD_RAW, 6: 2.0}, r"timestamp"),
    ("value-text", {**GOOD_RAW, 3: "x"}, r"value"),
    ("value-float", {**GOOD_RAW, 3: 1.5}, r"value"),
    ("tag-unknown", {**GOOD_RAW, 2: 99}, r"scheme"),
    ("tag-negative", {**GOOD_RAW, 2: -1}, r"scheme"),
    ("tag-float", {**GOOD_RAW, 2: 1.0}, r"scheme"),
    ("tag-float-with-epsilon", {**GOOD_LDP, 2: 1.0}, r"scheme"),
    ("share-index-zero", {**GOOD_SHARE, 4: 0}, r"share.index"),
    ("share-index-negative", {**GOOD_SHARE, 4: -1}, r"share.index"),
    ("share-index-float", {**GOOD_SHARE, 4: 1.0}, r"share.index"),
    ("share-index-on-raw", {**GOOD_RAW, 4: 1}, r"share.index"),
    ("share-without-index", {**GOOD_RAW, 2: 3}, r"share.index"),
    ("share-value-negative", {**GOOD_SHARE, 3: -5}, r"share value"),
    ("epsilon-int", {**GOOD_LDP, 5: 1}, r"epsilon"),
    ("epsilon-text", {**GOOD_LDP, 5: "x"}, r"epsilon"),
    ("epsilon-zero", {**GOOD_LDP, 5: 0.0}, r"epsilon"),
    ("epsilon-negative", {**GOOD_LDP, 5: -1.0}, r"epsilon"),
    ("epsilon-nan", {**GOOD_LDP, 5: float("nan")}, r"epsilon"),
    ("epsilon-on-raw", {**GOOD_RAW, 5: 1.0}, r"epsilon"),
    ("ldp-without-epsilon", {**GOOD_RAW, 2: 1}, r"epsilon"),
]


@pytest.mark.parametrize(
    "payload,pattern",
    [row[1:] for row in DECODE_REFUSALS],
    ids=[row[0] for row in DECODE_REFUSALS],
)
def test_decode_refusals_name_the_field(payload, pattern):
    with pytest.raises(EnvelopeError, match=pattern):
        cbor_decode(payload_bytes(payload))


def test_decode_rejects_non_map_payload():
    with pytest.raises(EnvelopeError, match="CBOR map"):
        cbor_decode(raw_cbor_encode(42))


def test_decode_malformed_bytes_raises_cbor_error():
    with pytest.raises(CborDecodeError):
        cbor_decode(b"\xa2\x00")


@given(
    sensor=st.text(min_size=1, max_size=16),
    sequence=st.integers(0, 2**32),
    scheme=st.sampled_from(sorted(Scheme)),
    value=st.integers(-(2**40), 2**40),
    share_index=st.integers(1, 8),
    epsilon=st.floats(0.001, 1e6, allow_nan=False),
    ts=st.integers(0, 2**48),
)
def test_round_trip_property(sensor, sequence, scheme, value, share_index, epsilon, ts):
    env = Envelope(
        topic="t",
        sensor_id=sensor,
        sequence=sequence,
        scheme=scheme,
        value=abs(value) if scheme is Scheme.ASS_SHARE else value,
        share_index=share_index if scheme is Scheme.ASS_SHARE else None,
        epsilon=epsilon if scheme in (Scheme.LDP, Scheme.GDP, Scheme.KRR) else None,
        timestamp_us=ts,
    )
    assert cbor_decode(cbor_encode(env), topic="t") == env
