"""LEB128 varints and zigzag signed-integer mapping.

Container headers throughout this project store lengths and counts as
unsigned LEB128 varints so small values cost one byte while 64-bit
values remain representable.  Signed quantities are first mapped to
unsigned via the zigzag transform (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...),
the same scheme protobuf uses.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.errors import CodecError

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarints",
    "decode_uvarints",
    "zigzag_encode",
    "zigzag_decode",
]


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128 bytes."""
    value = int(value)
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes | memoryview, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 varint starting at ``offset``.

    Returns ``(value, next_offset)``.  Raises
    :class:`~repro.errors.CodecError` if the buffer ends mid-varint or
    the encoding exceeds 10 bytes (more than 64 bits of payload).
    """
    value = 0
    shift = 0
    pos = offset
    view = memoryview(data)
    while True:
        if pos >= len(view):
            raise CodecError("truncated uvarint")
        byte = view[pos]
        pos += 1
        if shift == 63 and byte > 1:
            raise CodecError("uvarint too long (exceeds 64 bits)")
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


#: Most bytes a 64-bit LEB128 value takes.
_MAX_UVARINT_BYTES = 10


def encode_uvarints(values: NDArray[Any]) -> bytes:
    """:func:`encode_uvarint` of every value, concatenated.

    Vectorized over the array: one pass per byte position (at most
    10), each writing that byte of every value long enough to have it.
    """
    v = np.asarray(values)
    if v.dtype.kind == "i" and v.size and v.min() < 0:
        raise CodecError(f"uvarint cannot encode negative value {v.min()}")
    v = v.reshape(-1).astype(np.uint64)
    if v.size == 0:
        return b""
    nbytes = np.ones(v.size, dtype=np.int64)
    for k in range(1, _MAX_UVARINT_BYTES):
        nbytes += v >= np.uint64(1) << np.uint64(7 * k)
    start = np.cumsum(nbytes) - nbytes
    out = np.empty(int(nbytes.sum()), dtype=np.uint8)
    for k in range(int(nbytes.max())):
        has = np.flatnonzero(nbytes > k)
        byte = (v[has] >> np.uint64(7 * k)) & np.uint64(0x7F)
        byte |= (nbytes[has] > k + 1).astype(np.uint64) << np.uint64(7)
        out[start[has] + k] = byte
    return out.tobytes()


def decode_uvarints(data: bytes | memoryview, count: int,
                    offset: int = 0) -> tuple[NDArray[np.uint64], int]:
    """Decode ``count`` consecutive LEB128 varints from ``offset``.

    Returns ``(values, next_offset)``, the values as uint64.  Raises
    :class:`~repro.errors.CodecError` where a :func:`decode_uvarint`
    loop would, and also for a count the buffer cannot hold (every
    varint takes a byte) or a value past 64 bits, before allocating
    anything per value.
    """
    buf = np.frombuffer(data, dtype=np.uint8)[offset:]
    if count < 0 or count > buf.size:
        raise CodecError("truncated uvarint")
    if count == 0:
        return np.zeros(0, dtype=np.uint64), offset
    # A varint ends at the first byte without the continuation bit.
    last = np.flatnonzero(buf < 0x80)[:count]
    if last.size < count:
        raise CodecError("truncated uvarint")
    start = np.empty(count, dtype=np.int64)
    start[0] = 0
    start[1:] = last[:-1] + 1
    nbytes = last - start + 1
    longest = int(nbytes.max())
    if longest > _MAX_UVARINT_BYTES or (
            longest == _MAX_UVARINT_BYTES
            and int(buf[last[nbytes == longest]].max()) > 1):
        raise CodecError("uvarint too long (exceeds 64 bits)")
    values = np.zeros(count, dtype=np.uint64)
    for k in range(longest):
        has = np.flatnonzero(nbytes > k)
        values[has] |= ((buf[start[has] + k] & 0x7F).astype(np.uint64)
                        << np.uint64(7 * k))
    return values, offset + int(last[-1]) + 1


def zigzag_encode(values: NDArray[Any] | int) -> NDArray[np.uint64] | int:
    """Map signed integers to unsigned: 0,-1,1,-2,... -> 0,1,2,3,...

    Accepts a scalar or an integer array; arrays are mapped elementwise
    to ``uint64``.
    """
    if isinstance(values, (int, np.integer)):
        v = int(values)
        return (v << 1) ^ (v >> 63) if v >= 0 else ((-v) << 1) - 1
    arr = np.asarray(values).astype(np.int64, copy=False)
    out: NDArray[np.uint64] = arr.astype(np.uint64)
    out <<= np.uint64(1)
    out ^= (arr >> np.int64(63)).view(np.uint64)
    return out


def zigzag_decode(values: NDArray[Any] | int) -> NDArray[np.int64] | int:
    """Inverse of :func:`zigzag_encode`."""
    if isinstance(values, (int, np.integer)):
        v = int(values)
        return (v >> 1) ^ -(v & 1)
    arr = np.asarray(values).astype(np.uint64, copy=False)
    out: NDArray[np.int64] = (
        (arr >> np.uint64(1)).astype(np.int64)
        ^ -(arr & np.uint64(1)).astype(np.int64)
    )
    return out
