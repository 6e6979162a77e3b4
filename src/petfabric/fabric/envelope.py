"""Envelope wire format: one sensor message as a canonical CBOR map.

Payload keys (unsigned integers, fixed meaning):

====  =======================================================
key   field
====  =======================================================
0     sensor id (text)
1     sequence number (uint)
2     scheme tag (uint): 0 raw, 1 ldp, 2 gdp, 3 ass-share, 4 krr
3     value (int; share value for scheme 3, then non-negative)
4     share channel index (uint >= 1; present iff scheme 3)
5     epsilon (float; present iff scheme in {1, 2, 4})
6     origin timestamp, microseconds (uint)
====  =======================================================

The topic travels in the transport frame, not the payload, mirroring how a
broker routes on the topic without parsing the body.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from . import cbor
from .cbor import _FLOAT64_HEAD, _HEAD_FORMS, _UNPACK_FLOAT64, _append_head
from .cbor import _MAJOR_NEGINT, _MAJOR_TEXT, _MAJOR_UINT


class Scheme(IntEnum):
    """How the value in the payload was produced."""

    RAW = 0
    LDP = 1
    GDP = 2
    ASS_SHARE = 3
    KRR = 4


_KEY_SENSOR = 0
_KEY_SEQUENCE = 1
_KEY_SCHEME = 2
_KEY_VALUE = 3
_KEY_SHARE_INDEX = 4
_KEY_EPSILON = 5
_KEY_TIMESTAMP = 6

_MANDATORY_KEYS = (_KEY_SENSOR, _KEY_SEQUENCE, _KEY_SCHEME, _KEY_VALUE, _KEY_TIMESTAMP)
_MANDATORY_KEY_SET = frozenset(_MANDATORY_KEYS)
_ALL_KEYS = frozenset(range(7))
_SCHEME_BY_TAG = {int(scheme): scheme for scheme in Scheme}
_SCHEMES_WITH_EPSILON = frozenset({Scheme.LDP, Scheme.GDP, Scheme.KRR})
_SCHEME_BY_BYTE = tuple(Scheme)  # a tag below 24 is its own head byte
_TEXT_BITS = _MAJOR_TEXT << 5
_NEGINT_BITS = _MAJOR_NEGINT << 5
_PACK_EPSILON = struct.Struct(">BBd").pack


class EnvelopeError(ValueError):
    """Payload violates the wire-format contract."""


@dataclass(frozen=True, init=False)
class Envelope:
    """One pub/sub message: routing topic plus the CBOR payload fields.

    The hand-written __init__ validates, then stores the fields straight
    into the instance dict: the generated one of a frozen dataclass makes
    one object.__setattr__ call per field, on every message.
    """

    topic: str
    sensor_id: str
    sequence: int
    scheme: Scheme
    value: int
    share_index: Optional[int] = None
    epsilon: Optional[float] = None
    timestamp_us: int = 0

    def __init__(
        self,
        topic: str,
        sensor_id: str,
        sequence: int,
        scheme: Scheme,
        value: int,
        share_index: Optional[int] = None,
        epsilon: Optional[float] = None,
        timestamp_us: int = 0,
    ) -> None:
        if type(sensor_id) is not str:
            raise EnvelopeError(f"sensor_id must be text, got {sensor_id!r}")
        # the wire carries only plain ints: no float, bool or numpy integer
        if type(sequence) is not int:
            raise EnvelopeError(f"sequence must be an integer, got {sequence!r}")
        if sequence < 0:
            raise EnvelopeError(f"sequence must be >= 0, got {sequence}")
        if type(timestamp_us) is not int:
            raise EnvelopeError(f"timestamp_us must be an integer, got {timestamp_us!r}")
        if timestamp_us < 0:
            raise EnvelopeError(f"timestamp_us must be >= 0, got {timestamp_us}")
        if type(value) is not int:
            raise EnvelopeError(f"value must be an integer, got {value!r}")
        if type(scheme) is not Scheme:
            # only a plain int is a tag: Scheme(1.0), Scheme(True) and
            # Scheme(np.int64(1)) would each make LDP
            if type(scheme) is not int or scheme not in _SCHEME_BY_TAG:
                raise EnvelopeError(f"unknown scheme tag {scheme!r}")
            scheme = _SCHEME_BY_TAG[scheme]
        if scheme is Scheme.ASS_SHARE:
            if share_index is None:
                raise EnvelopeError("ass-share envelope requires a share_index")
            if type(share_index) is not int:
                raise EnvelopeError(f"share_index must be an integer, got {share_index!r}")
            if share_index < 1:
                raise EnvelopeError(f"share_index must be >= 1, got {share_index}")
            if value < 0:
                raise EnvelopeError(f"share values are field elements, got {value}")
        elif share_index is not None:
            raise EnvelopeError(f"share_index is only valid for ass-share, not {scheme.name}")
        if scheme in _SCHEMES_WITH_EPSILON:
            if epsilon is None:
                raise EnvelopeError(f"{scheme.name} envelope requires epsilon")
            if not epsilon > 0:
                raise EnvelopeError(f"epsilon must be positive, got {epsilon}")
        elif epsilon is not None:
            raise EnvelopeError(f"epsilon is only valid for ldp/gdp/krr, not {scheme.name}")
        d = self.__dict__
        d["topic"] = topic
        d["sensor_id"] = sensor_id
        d["sequence"] = sequence
        d["scheme"] = scheme
        d["value"] = value
        d["share_index"] = share_index
        d["epsilon"] = epsilon
        d["timestamp_us"] = timestamp_us


def cbor_encode(env: Envelope) -> bytes:
    """Serialize the payload map canonically; same envelope, same bytes.

    Writes the fixed layout in key order: the map head counts the optional
    keys 4 and 5, and every key is its own head byte."""
    share_index = env.share_index
    epsilon = env.epsilon
    head = 0xA5
    if share_index is not None:
        head += 1
    if epsilon is not None:
        epsilon = float(epsilon)
        head += 1
    sensor = env.sensor_id.encode("utf-8")
    buf = bytearray((head, _KEY_SENSOR))
    _append_head(buf, _MAJOR_TEXT, len(sensor))
    buf += sensor
    buf.append(_KEY_SEQUENCE)
    _append_head(buf, _MAJOR_UINT, env.sequence)
    buf.append(_KEY_SCHEME)
    buf.append(env.scheme)
    buf.append(_KEY_VALUE)
    value = env.value
    if value >= 0:
        _append_head(buf, _MAJOR_UINT, value)
    else:
        _append_head(buf, _MAJOR_NEGINT, -1 - value)
    if share_index is not None:
        buf.append(_KEY_SHARE_INDEX)
        _append_head(buf, _MAJOR_UINT, share_index)
    if epsilon is not None:
        buf += _PACK_EPSILON(_KEY_EPSILON, _FLOAT64_HEAD, epsilon)
    buf.append(_KEY_TIMESTAMP)
    _append_head(buf, _MAJOR_UINT, env.timestamp_us)
    return bytes(buf)


class _OffLayout(ValueError):
    """The bytes are not an envelope in its fixed key order."""


def _arg(data: bytes, i: int, major_bits: int) -> tuple[int, int]:
    """(argument, next offset) of a minimal head of one major type at i."""
    info = data[i] - major_bits
    if 0 <= info < 24:
        return info, i + 1
    unpack, width, minimum = _HEAD_FORMS[info]
    (arg,) = unpack(data, i + 1)
    if arg < minimum:
        raise _OffLayout
    return arg, i + 1 + width


def cbor_decode(data: bytes, topic: str = "") -> Envelope:
    """Parse and validate payload bytes; the topic is supplied out-of-band.

    Reads the fixed layout in one pass. Bytes off that layout, or fields an
    Envelope refuses, go to the generic path, which names the fault."""
    try:
        head = data[0]
        if head != 0xA5 and head != 0xA6 or data[1] != _KEY_SENSOR:
            raise _OffLayout
        size, i = _arg(data, 2, _TEXT_BITS)
        sensor = data[i : i + size].decode("utf-8")
        i += size
        if data[i] != _KEY_SEQUENCE:
            raise _OffLayout
        sequence, i = _arg(data, i + 1, 0)
        if data[i] != _KEY_SCHEME or data[i + 2] != _KEY_VALUE:
            raise _OffLayout
        scheme = _SCHEME_BY_BYTE[data[i + 1]]
        if data[i + 3] < _NEGINT_BITS:
            value, i = _arg(data, i + 3, 0)
        else:
            value, i = _arg(data, i + 3, _NEGINT_BITS)
            value = -1 - value
        share_index = epsilon = None
        if head == 0xA6:
            key = data[i]
            if key == _KEY_SHARE_INDEX:
                share_index, i = _arg(data, i + 1, 0)
            elif key == _KEY_EPSILON and data[i + 1] == _FLOAT64_HEAD:
                (epsilon,) = _UNPACK_FLOAT64(data, i + 2)
                i += 10
            else:
                raise _OffLayout
        if data[i] != _KEY_TIMESTAMP:
            raise _OffLayout
        timestamp_us, i = _arg(data, i + 1, 0)
        if i != len(data):
            raise _OffLayout
        return Envelope(topic, sensor, sequence, scheme, value, share_index, epsilon, timestamp_us)
    except (LookupError, ValueError, struct.error):
        pass
    return _decode_generic(data, topic)


def _decode_generic(data: bytes, topic: str) -> Envelope:
    """Decode through cbor.decode; every refusal of a payload is named here.

    A decoded payload passes the same checks as a constructed Envelope."""
    payload = cbor.decode(data)
    if not isinstance(payload, dict):
        raise EnvelopeError(f"payload must be a CBOR map, got {type(payload).__name__}")
    if not _MANDATORY_KEY_SET.issubset(payload):
        missing = [k for k in _MANDATORY_KEYS if k not in payload]
        raise EnvelopeError(f"missing mandatory payload keys {missing}")
    if not _ALL_KEYS.issuperset(payload):
        unknown = sorted(set(payload) - _ALL_KEYS)
        raise EnvelopeError(f"unknown payload keys {unknown}")

    epsilon = payload.get(_KEY_EPSILON)
    # Envelope takes an int epsilon; the wire carries only a float
    if epsilon is not None and not isinstance(epsilon, float):
        raise EnvelopeError(f"key 5 (epsilon) must be a float, got {epsilon!r}")
    try:
        return Envelope(
            topic,
            payload[_KEY_SENSOR],
            payload[_KEY_SEQUENCE],
            payload[_KEY_SCHEME],
            payload[_KEY_VALUE],
            payload.get(_KEY_SHARE_INDEX),
            epsilon,
            payload[_KEY_TIMESTAMP],
        )
    except EnvelopeError as exc:
        raise EnvelopeError(f"inconsistent payload: {exc}") from None
