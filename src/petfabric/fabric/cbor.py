"""Canonical CBOR for the envelope wire format.

Deliberately a narrow subset of RFC 8949: unsigned and negative integers,
UTF-8 text strings, IEEE-754 double floats, and definite-length maps keyed
by unsigned integers in strictly ascending order. Integer heads always use
the shortest form and floats are always 8 bytes, so every representable
value has exactly one encoding. The decoder rejects everything else
(indefinite lengths, non-minimal heads, unsorted or duplicate keys, other
major types), which keeps encode/decode a bijection and makes golden byte
fixtures meaningful.
"""

from __future__ import annotations

import struct


class CborEncodeError(ValueError):
    """Value cannot be represented in the canonical subset."""


class CborDecodeError(ValueError):
    """Bytes are malformed or not in canonical form."""


_MAJOR_UINT = 0
_MAJOR_NEGINT = 1
_MAJOR_TEXT = 3
_MAJOR_MAP = 5
_MAJOR_SIMPLE = 7

_FLOAT64_HEAD = 0xFB

_PACK_HEAD16 = struct.Struct(">BH").pack
_PACK_HEAD32 = struct.Struct(">BI").pack
_PACK_HEAD64 = struct.Struct(">BQ").pack
_PACK_FLOAT64 = struct.Struct(">Bd").pack
_UNPACK_FLOAT64 = struct.Struct(">d").unpack_from

# additional-info value -> (unpacker, width, minimal argument for that width)
_HEAD_FORMS = {
    24: (struct.Struct(">B").unpack_from, 1, 24),
    25: (struct.Struct(">H").unpack_from, 2, 1 << 8),
    26: (struct.Struct(">I").unpack_from, 4, 1 << 16),
    27: (struct.Struct(">Q").unpack_from, 8, 1 << 32),
}


def _append_head(buf: bytearray, major: int, arg: int) -> None:
    """Append the shortest head for (major, arg) to buf."""
    mt = major << 5
    if arg < 24:
        buf.append(mt | arg)
    elif arg < 1 << 8:
        buf.append(mt | 24)
        buf.append(arg)
    elif arg < 1 << 16:
        buf += _PACK_HEAD16(mt | 25, arg)
    elif arg < 1 << 32:
        buf += _PACK_HEAD32(mt | 26, arg)
    elif arg < 1 << 64:
        buf += _PACK_HEAD64(mt | 27, arg)
    else:
        raise CborEncodeError(f"integer argument {arg} exceeds 64 bits")


def _encode_into(buf: bytearray, value) -> None:
    kind = type(value)
    if kind is int:
        if value >= 0:
            _append_head(buf, _MAJOR_UINT, value)
        else:
            _append_head(buf, _MAJOR_NEGINT, -1 - value)
    elif kind is str:
        data = value.encode("utf-8")
        _append_head(buf, _MAJOR_TEXT, len(data))
        buf += data
    elif kind is float:
        buf += _PACK_FLOAT64(_FLOAT64_HEAD, value)
    elif kind is dict:
        for key in value:
            if type(key) is not int or key < 0:
                raise CborEncodeError(f"map keys must be unsigned integers, got {key!r}")
        _append_head(buf, _MAJOR_MAP, len(value))
        for key in sorted(value):
            _append_head(buf, _MAJOR_UINT, key)
            _encode_into(buf, value[key])
    else:
        raise CborEncodeError(f"unsupported type {kind.__name__}")


def encode(value) -> bytes:
    """Serialize an int, float, str, or int-keyed map canonically."""
    buf = bytearray()
    _encode_into(buf, value)
    return bytes(buf)


def _decode_item(data: bytes, i: int, end: int):
    """Parse one item at offset i; returns (value, next offset)."""
    if i >= end:
        raise CborDecodeError("truncated input")
    initial = data[i]
    major = initial >> 5
    if major == _MAJOR_SIMPLE:
        if initial != _FLOAT64_HEAD:
            raise CborDecodeError(
                f"major type 7 byte 0x{initial:02x}: only 64-bit floats are accepted"
            )
        if i + 9 > end:
            raise CborDecodeError("truncated float")
        return _UNPACK_FLOAT64(data, i + 1)[0], i + 9
    arg = initial & 0x1F
    j = i + 1
    if arg >= 24:
        if arg > 27:
            raise CborDecodeError(
                f"additional info {arg} at offset {i} (reserved or indefinite length)"
            )
        unpack, width, minimum = _HEAD_FORMS[arg]
        if j + width > end:
            raise CborDecodeError("truncated integer head")
        (arg,) = unpack(data, j)
        if arg < minimum:
            raise CborDecodeError(f"non-minimal head for argument {arg} at offset {i}")
        j += width
    if major == _MAJOR_UINT:
        return arg, j
    if major == _MAJOR_NEGINT:
        return -1 - arg, j
    if major == _MAJOR_TEXT:
        if j + arg > end:
            raise CborDecodeError("truncated text string")
        try:
            text = data[j : j + arg].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CborDecodeError(f"invalid UTF-8 in text string: {exc}") from None
        return text, j + arg
    if major == _MAJOR_MAP:
        out: dict[int, object] = {}
        prev = -1
        for _ in range(arg):
            key, j = _decode_item(data, j, end)
            if type(key) is not int or key < 0:
                raise CborDecodeError(f"map keys must be unsigned integers, got {key!r}")
            if key <= prev:
                raise CborDecodeError(
                    "map keys must be strictly ascending (canonical form)"
                )
            prev = key
            out[key], j = _decode_item(data, j, end)
        return out, j
    raise CborDecodeError(f"unsupported major type {major}")


def decode(data: bytes):
    """Inverse of encode(); rejects malformed or non-canonical bytes."""
    value, end = _decode_item(data, 0, len(data))
    if end != len(data):
        raise CborDecodeError(f"{len(data) - end} trailing bytes after value")
    return value
