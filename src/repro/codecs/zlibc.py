"""Framed zlib compression.

DPZ applies zlib as its final lossless add-on stage (paper, Section
IV-C).  This module wraps the stdlib implementation with a small frame
-- ``uvarint(raw_length) || deflate_payload`` -- so decoders can
pre-allocate and validate, and so an *incompressible* payload can be
stored raw (flag byte 0) instead of growing.
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.errors import CodecError
from repro.observability import counter_inc, observe

__all__ = ["zlib_compress", "zlib_decompress", "DEFAULT_LEVEL"]

#: zlib level used across the project; 6 is zlib's own default and the
#: speed/ratio tradeoff the paper's "zlib add-on" implies.
DEFAULT_LEVEL = 6

_RAW = 0
_DEFLATE = 1


def zlib_compress(data: bytes | bytearray | memoryview | NDArray[Any],
                  level: int = DEFAULT_LEVEL) -> bytes:
    """Compress ``data`` with zlib inside a self-describing frame.

    Falls back to storing the payload raw when deflate would expand it,
    so the frame never costs more than ``len(data) + ~11`` bytes.
    """
    if isinstance(data, np.ndarray):
        raw = data.tobytes()
    else:
        raw = bytes(data)
    data = raw
    packed = zlib.compress(data, level)
    counter_inc("zlib.compress.calls")
    counter_inc("zlib.compress.bytes_in", len(data))
    observe("zlib.compress.frame_bytes",
            min(len(packed), len(data)), lo=1.0, hi=1e12)
    if data:
        observe("zlib.compress.ratio",
                len(data) / max(min(len(packed), len(data)), 1),
                lo=1e-3, hi=1e6)
    if len(packed) < len(data):
        counter_inc("zlib.compress.bytes_out", len(packed))
        return bytes([_DEFLATE]) + encode_uvarint(len(data)) + packed
    counter_inc("zlib.compress.bytes_out", len(data))
    counter_inc("zlib.compress.stored_raw")
    return bytes([_RAW]) + encode_uvarint(len(data)) + data


def zlib_decompress(frame: bytes | memoryview) -> bytes:
    """Inverse of :func:`zlib_compress`."""
    frame = bytes(frame)
    if not frame:
        raise CodecError("empty zlib frame")
    counter_inc("zlib.decompress.calls")
    counter_inc("zlib.decompress.bytes_in", len(frame))
    mode = frame[0]
    raw_len, pos = decode_uvarint(frame, 1)
    payload = frame[pos:]
    if mode == _RAW:
        if len(payload) != raw_len:
            raise CodecError(
                f"raw zlib frame length mismatch: header {raw_len}, "
                f"payload {len(payload)}"
            )
        return payload
    if mode == _DEFLATE:
        try:
            out = zlib.decompress(payload)
        except zlib.error as exc:  # pragma: no cover - corrupt input path
            raise CodecError(f"zlib decompression failed: {exc}") from exc
        if len(out) != raw_len:
            raise CodecError(
                f"zlib frame length mismatch: header {raw_len}, got {len(out)}"
            )
        return out
    raise CodecError(f"unknown zlib frame mode {mode}")
