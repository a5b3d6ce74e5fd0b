"""The per-block ZFP bit-plane coder, kept as a differential oracle.

This is zfp's ``encode_ints``/``decode_ints`` control flow ported one
block and one bit at a time onto '0'/'1' strings: slow, but a direct
reading of the reference codec.  ``repro.baselines.zfp`` codes every
block at once in numpy; the tests check that both give the same bytes
and the same arrays.  :func:`compress`/:func:`decompress` run the
module's pipeline with this coder swapped in.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.baselines import zfp
from repro.baselines.zfp import _EBIAS, EBITS, INTPREC


def plane_ints(u: np.ndarray) -> np.ndarray:
    """``planes[k, b]`` = bit-plane ``k`` of block ``b`` as an integer."""
    nb, size = u.shape
    weights = (np.uint64(1) << np.arange(size, dtype=np.uint64))
    planes = np.empty((INTPREC, nb), dtype=np.uint64)
    for k in range(INTPREC):
        bits = (u >> np.uint64(k)) & np.uint64(1)
        planes[k] = (bits * weights).sum(axis=1, dtype=np.uint64)
    return planes


def encode_block(planes_col, size: int, budget: int, kmin: int,
                 parts: list[str]) -> None:
    """Emit one block's plane bits (zfp ``encode_ints`` control flow).

    ``planes_col[k]`` is plane ``k`` of this block as a Python int.
    ``budget`` is the remaining bit budget (a huge number for the
    unbounded modes).  Bits are appended to ``parts`` as '0'/'1'
    strings, LSB-of-plane (coefficient 0) first.
    """
    bits_left = budget
    n = 0
    for k in range(INTPREC - 1, kmin - 1, -1):
        if bits_left <= 0:
            break
        x = planes_col[k]
        # Step 2: first n coefficient bits verbatim.
        m = min(n, bits_left)
        if m:
            parts.append(format(x & ((1 << m) - 1), f"0{m}b")[::-1])
            bits_left -= m
        x >>= m
        # Step 3: unary run-length encode the remainder (group testing).
        while n < size and bits_left > 0:
            bits_left -= 1
            if x:
                parts.append("1")
            else:
                parts.append("0")
                break
            while n < size - 1 and bits_left > 0:
                bits_left -= 1
                bit = x & 1
                parts.append("1" if bit else "0")
                if bit:
                    break
                x >>= 1
                n += 1
            else:
                x >>= 1
                n += 1
                continue
            x >>= 1
            n += 1


def decode_block(s: str, pos: int, size: int, budget: int,
                 kmin: int) -> tuple[list[int], int]:
    """Invert :func:`encode_block`; returns (coefficients, next_pos)."""
    bits_left = budget
    n = 0
    u = [0] * size
    for k in range(INTPREC - 1, kmin - 1, -1):
        if bits_left <= 0:
            break
        m = min(n, bits_left)
        if m:
            seg = s[pos : pos + m]
            x = int(seg[::-1], 2) if seg else 0
            pos += m
            bits_left -= m
        else:
            x = 0
        while n < size and bits_left > 0:
            bits_left -= 1
            bit = s[pos]
            pos += 1
            if bit == "0":
                break
            while n < size - 1 and bits_left > 0:
                bits_left -= 1
                b = s[pos]
                pos += 1
                if b == "1":
                    break
                n += 1
            x |= 1 << n
            n += 1
        # Deposit plane k.
        xi = x
        i = 0
        while xi:
            if xi & 1:
                u[i] |= 1 << k
            xi >>= 1
            i += 1
    return u, pos


def encode_planes(u, exps, zero, kmin, block_bits):
    """Drop-in for ``zfp._encode_planes``: one block at a time."""
    nb, size = u.shape
    planes_list = plane_ints(u).T.tolist()
    budget = (block_bits - (1 + EBITS) if block_bits is not None
              else 1 << 60)
    parts: list[str] = []
    for b in range(nb):
        block_parts: list[str] = []
        if zero[b]:
            block_parts.append("0")
        else:
            block_parts.append("1")
            block_parts.append(format(int(exps[b]) + _EBIAS,
                                      f"0{EBITS}b")[::-1])
            encode_block(planes_list[b], size, budget, int(kmin[b]),
                         block_parts)
        if block_bits is not None:
            used = sum(len(p) for p in block_parts)
            assert used <= block_bits
            block_parts.append("0" * (block_bits - used))
        parts.append("".join(block_parts))
    bitstring = "".join(parts)
    arr = np.frombuffer(bitstring.encode("ascii"), dtype=np.uint8)
    return np.packbits(arr - ord("0")).tobytes(), len(bitstring)


def decode_planes(hdr):
    """Drop-in for ``zfp._decode_planes``: one block at a time."""
    nb, size = hdr.n_blocks, 4 ** hdr.ndim
    bits = np.unpackbits(np.frombuffer(hdr.payload, dtype=np.uint8))
    s = bits[: hdr.n_bits].tobytes().translate(
        bytes([48, 49] + [0] * 254)).decode()
    budget = (hdr.block_bits - (1 + EBITS) if hdr.block_bits is not None
              else 1 << 60)
    u = np.zeros((nb, size), dtype=np.uint64)
    exps = np.zeros(nb, dtype=np.int64)
    nonzero = np.zeros(nb, dtype=bool)
    cursor = 0
    for b in range(nb):
        start = cursor
        flag = s[cursor]
        cursor += 1
        if flag == "1":
            nonzero[b] = True
            exps[b] = int(s[cursor : cursor + EBITS][::-1], 2) - _EBIAS
            cursor += EBITS
            coeffs, cursor = decode_block(s, cursor, size, budget,
                                          int(hdr.kmin[b]))
            u[b] = np.asarray(coeffs, dtype=np.uint64)
        if hdr.block_bits is not None:
            cursor = start + hdr.block_bits
    return u, exps, nonzero


def compress(data: np.ndarray, **mode) -> bytes:
    """``zfp_compress`` with the per-block coder."""
    with mock.patch.object(zfp, "_encode_planes", encode_planes):
        return zfp.zfp_compress(data, **mode)


def decompress(blob: bytes) -> np.ndarray:
    """``zfp_decompress`` with the per-block coder."""
    with mock.patch.object(zfp, "_decode_planes", decode_planes):
        return zfp.zfp_decompress(blob)
