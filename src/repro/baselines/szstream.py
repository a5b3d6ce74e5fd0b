"""Symbol coding and container format for the SZ-style baseline.

Residual coding
---------------
Lattice residuals are signed integers sharply peaked at zero.  They are
zigzag-mapped to unsigned, values below the escape threshold become
Huffman symbols, and rarer large values are replaced by a reserved
escape symbol whose true magnitudes travel in a zlib-framed uvarint
side stream -- the same "unpredictable data" split real SZ performs.

Container
---------
A tiny section-based format: ``magic || version ||
uvarint(n_sections) || (uvarint(len) || bytes)*``.  Sections are
opaque byte strings whose meaning is positional, defined by
:mod:`repro.baselines.sz`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codecs.huffman import (
    HuffmanTable,
    huffman_decode_many,
    huffman_encode,
)
from repro.codecs.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
    zigzag_decode,
    zigzag_encode,
)
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.codecs.container import pack_sections, unpack_sections
from repro.errors import CodecError

__all__ = [
    "encode_residuals",
    "decode_residuals",
    "decode_residuals_many",
    "pack_sections",
    "unpack_sections",
    "DEFAULT_ALPHABET",
]

#: Symbol alphabet size (including the escape symbol).  65536 mirrors
#: SZ's default of 65536 quantization intervals.
DEFAULT_ALPHABET = 65536


def encode_residuals(residuals: np.ndarray,
                     alphabet: int = DEFAULT_ALPHABET) -> bytes:
    """Entropy-code an int64 residual array.

    Layout: ``uvarint(alphabet) || huffman_table || huffman_payload ||
    uvarint(len(escapes_frame)) || escapes_frame``.  Past the zigzag
    map, every per-residual array is held at its narrowest dtype: the
    symbols at the smallest unsigned type that holds the escape symbol
    (uint16 at the default alphabet).
    """
    if alphabet < 2:
        raise CodecError(f"alphabet must be >= 2, got {alphabet}")
    flat = np.asarray(residuals, dtype=np.int64).reshape(-1)
    unsigned = zigzag_encode(flat)
    escape = np.uint64(alphabet - 1)
    escapes = unsigned[unsigned >= escape]
    symbols = np.minimum(unsigned, escape, out=unsigned).astype(
        np.min_scalar_type(escape))
    del unsigned

    side = encode_uvarint(int(escapes.size)) + encode_uvarints(escapes)
    side_frame = zlib_compress(side)

    used = int(symbols.max()) + 1 if symbols.size else 1
    table = HuffmanTable.from_symbols(symbols, alphabet_size=used)
    payload = huffman_encode(symbols, table)
    return (encode_uvarint(used) + table.to_bytes() + payload
            + encode_uvarint(len(side_frame)) + bytes(side_frame))


def decode_residuals(data: bytes, count: int,
                     alphabet: int = DEFAULT_ALPHABET) -> np.ndarray:
    """Inverse of :func:`encode_residuals`; ``count`` is the residual count."""
    return decode_residuals_many([(data, count, alphabet)])[0]


def decode_residuals_many(
        items: Sequence[tuple[bytes, int, int]]) -> list[np.ndarray]:
    """:func:`decode_residuals` of several ``(data, count, alphabet)``
    streams, their Huffman payloads decoded in one lockstep pass."""
    heads = []
    for data, _, _ in items:
        used, pos = decode_uvarint(data, 0)
        table, pos = HuffmanTable.from_bytes(data, pos)
        if table.alphabet_size != used:
            raise CodecError("Huffman table alphabet mismatch")
        heads.append((data, table, pos))
    out = []
    for (data, count, alphabet), (symbols, pos) in zip(
            items, huffman_decode_many(heads)):
        if symbols.size != count:
            raise CodecError(
                f"decoded {symbols.size} residual symbols, expected {count}"
            )
        side_len, pos = decode_uvarint(data, pos)
        side = zlib_decompress(data[pos : pos + side_len])
        n_esc, spos = decode_uvarint(side, 0)
        idx = np.flatnonzero(symbols == alphabet - 1)
        if idx.size != n_esc:
            raise CodecError(
                f"escape count mismatch: {idx.size} markers, {n_esc} values"
            )
        unsigned = symbols.astype(np.uint64)
        if n_esc:
            unsigned[idx] = decode_uvarints(side, n_esc, spos)[0]
        out.append(zigzag_decode(unsigned))
    return out
