"""The envelope's fixed-layout codec against the generic CBOR path.

`cbor_encode` writes the payload in key order without building a map, and
`cbor_decode` reads that layout in one pass, handing anything off it to
`_decode_generic`. Both must agree with the generic codec byte for byte and
fault for fault: the same bytes for every envelope, and for any byte string
the same Envelope or the same exception type and message.
"""

import random

import pytest

from petfabric.fabric import cbor
from petfabric.fabric.envelope import Envelope, Scheme, _decode_generic, cbor_decode, cbor_encode

SEED = 4093
ENVELOPES = 5_000
MUTATIONS = 20_000

HEAD_BOUNDARIES = [0, 23, 24, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1]
NEGATIVE = [-1 - b for b in HEAD_BOUNDARIES] + [-2, -100]
SENSOR_IDS = ["", "s1", "x" * 23, "x" * 24, "ü" * 12, "é", "日本語", "x" * 255, "x" * 256]
EPSILONS = [float("inf"), 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 0.05, 0.5, 1.0, 1e308, 2]


def payload(env: Envelope) -> dict:
    """The int-keyed map a generic encoder would be given for `env`."""
    out = {0: env.sensor_id, 1: env.sequence, 2: int(env.scheme), 3: env.value, 6: env.timestamp_us}
    if env.share_index is not None:
        out[4] = env.share_index
    if env.epsilon is not None:
        out[5] = float(env.epsilon)
    return out


def uint(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.choice(HEAD_BOUNDARIES)
    return rng.getrandbits(rng.randrange(1, 65))


def random_envelope(rng: random.Random) -> Envelope:
    scheme = rng.choice(list(Scheme))
    value = uint(rng)
    if scheme is not Scheme.ASS_SHARE and rng.random() < 0.5:
        value = rng.choice(NEGATIVE) if rng.random() < 0.5 else -1 - value
    sensor = rng.choice(SENSOR_IDS) if rng.random() < 0.5 else f"s{rng.randrange(10**6)}"
    return Envelope(
        topic="cabin/t",
        sensor_id=sensor,
        sequence=uint(rng),
        scheme=scheme,
        value=value,
        share_index=max(1, uint(rng)) if scheme is Scheme.ASS_SHARE else None,
        epsilon=(
            rng.choice(EPSILONS) if rng.random() < 0.5 else rng.uniform(1e-6, 1e6)
        ) if scheme in (Scheme.LDP, Scheme.GDP, Scheme.KRR) else None,
        timestamp_us=uint(rng),
    )


def outcome(decode, data: bytes):
    try:
        return decode(data, "cabin/t")
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_encode_writes_the_generic_bytes_and_decode_reads_them_back():
    rng = random.Random(SEED)
    for _ in range(ENVELOPES):
        env = random_envelope(rng)
        data = cbor_encode(env)
        assert data == cbor.encode(payload(env))
        assert cbor_decode(data, "cabin/t") == env == _decode_generic(data, "cabin/t")


@pytest.mark.parametrize("boundary", HEAD_BOUNDARIES)
def test_every_head_width_of_every_field(boundary):
    for sensor in SENSOR_IDS:
        for env in (
            Envelope("t", sensor, boundary, Scheme.RAW, boundary, timestamp_us=boundary),
            Envelope("t", sensor, 1, Scheme.LDP, -1 - boundary, epsilon=0.5, timestamp_us=2),
            Envelope("t", sensor, 1, Scheme.ASS_SHARE, boundary, share_index=max(1, boundary)),
        ):
            data = cbor_encode(env)
            assert data == cbor.encode(payload(env))
            assert cbor_decode(data, "t") == env


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_every_epsilon_round_trips(epsilon):
    env = Envelope("t", "s1", 1, Scheme.GDP, 7, epsilon=epsilon)
    data = cbor_encode(env)
    assert data == cbor.encode(payload(env))
    assert cbor_decode(data, "t") == env


@pytest.mark.parametrize(
    "fields",
    [
        dict(sequence=2**64),
        dict(value=2**64),
        dict(value=-(2**64) - 1),
        dict(timestamp_us=2**70),
        dict(scheme=Scheme.ASS_SHARE, share_index=2**64),
        dict(sequence=2**64, timestamp_us=2**65),  # the lower key is named first
    ],
)
def test_an_argument_past_64_bits_raises_the_generic_message(fields):
    env = Envelope(**{**dict(topic="t", sensor_id="s1", sequence=0, scheme=Scheme.RAW, value=1), **fields})
    with pytest.raises(cbor.CborEncodeError) as generic:
        cbor.encode(payload(env))
    with pytest.raises(cbor.CborEncodeError) as layout:
        cbor_encode(env)
    assert str(layout.value) == str(generic.value)


#: payloads off the layout, and layouts an Envelope refuses: the generic path
#: names each fault
OFF_LAYOUT = [
    "a5 00 627331 01 1800 02 00 03 187a 06 00",  # non-minimal sequence
    "a5 00 627331 01 00 02 00 03 19007a 06 00",  # non-minimal value
    "a5 00 78027331 01 00 02 00 03 01 06 00",  # non-minimal text length
    "a6 00 627331 01 00 02 03 03 01 04 1801 06 00",  # non-minimal share index
    "a5 00 627331 01 00 02 1800 03 01 06 00",  # scheme tag as a non-minimal head
    "a5 00 627331 01 00 02 00 03 01 06 1800",  # non-minimal timestamp
    "a5 00 627331 01 00 02 00 03 01 1806 00",  # key 6 as a two-byte head
    "a5 00 627331 01 00 02 00 03 1b00000000ffffffff 06 00",  # non-minimal eight-byte value
    "a6 00 627331 01 00 02 01 03 01 05 fa3f000000 06 00",  # single-precision epsilon
    "a6 00 627331 01 00 02 01 03 01 05 f93c00 06 00",  # half-precision epsilon
    "a6 00 627331 01 00 02 01 03 01 05 01 06 00",  # integer epsilon
    "a7 00 627331 01 00 02 03 03 01 04 01 05 fb3fe0000000000000 06 00",  # both optional keys
    "a5 00 627331 02 00 01 00 03 01 06 00",  # keys 1 and 2 swapped
    "a5 00 627331 01 00 02 00 03 01 06 00 00",  # a trailing byte
    "a4 00 627331 01 00 02 00 03 01",  # no timestamp
    "bf 00 627331 01 00 02 00 03 01 06 00 ff",  # indefinite-length map
    "a5 00 627331 01 00 02 1818 03 01 06 00",  # scheme tag 24
    "a5 00 62fffe 01 00 02 00 03 01 06 00",  # invalid UTF-8 sensor id
    "a5 00 01 01 00 02 00 03 01 06 00",  # sensor id an integer
    "a5 00 627331 01 20 02 00 03 01 06 00",  # negative sequence
    "a6 00 627331 01 00 02 03 03 20 04 01 06 00",  # negative share value
    "a6 00 627331 01 00 02 03 03 01 04 00 06 00",  # share index 0
    "a6 00 627331 01 00 02 01 03 01 05 fb0000000000000000 06 00",  # zero epsilon
    "a6 00 627331 01 00 02 01 03 01 05 fb7ff8000000000000 06 00",  # NaN epsilon
    "a5 00 627331 01 00 02 03 03 01 06 00",  # share scheme without its index
    "a5 00 627331 01 00 02 01 03 01 06 00",  # ldp scheme without epsilon
    "a6 00 627331 01 00 02 00 03 01 05 fb3fe0000000000000 06 00",  # raw scheme with epsilon
]


@pytest.mark.parametrize("hexbytes", OFF_LAYOUT)
def test_off_layout_payloads_take_the_generic_path(hexbytes):
    data = bytes.fromhex(hexbytes.replace(" ", ""))
    assert outcome(cbor_decode, data) == outcome(_decode_generic, data)


def mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        kind = rng.randrange(4)
        at = rng.randrange(len(out) + (kind == 2)) if out else 0
        if kind == 0 and out:  # flip
            out[at] ^= 1 << rng.randrange(8) if rng.random() < 0.5 else rng.randrange(1, 256)
        elif kind == 1:  # truncate
            del out[at:]
        elif kind == 2:  # insert
            out.insert(at, rng.choice((0x00, 0x17, 0x18, 0x19, 0x1A, 0x1B, 0xFB, rng.randrange(256))))
        elif out:  # delete
            del out[at]
    return bytes(out)


def test_mutated_payloads_decode_or_fail_as_the_generic_path_does():
    rng = random.Random(SEED + 1)
    valid = [cbor_encode(random_envelope(rng)) for _ in range(500)]
    decoded = 0
    for _ in range(MUTATIONS):
        data = mutate(rng, rng.choice(valid))
        result = outcome(cbor_decode, data)
        assert result == outcome(_decode_generic, data), data.hex()
        decoded += isinstance(result, Envelope)
    # both sides of the fast path are exercised
    assert 0.05 * MUTATIONS < decoded < 0.95 * MUTATIONS
