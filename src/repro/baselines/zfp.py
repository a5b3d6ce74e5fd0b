"""ZFP-style fixed-rate / fixed-precision / fixed-accuracy compressor.

A from-scratch Python implementation of the transform-coding pipeline
of ZFP v0.5.x, the paper's second baseline:

1. partition the array into 4^d blocks (edge-replicated padding);
2. **block-floating-point**: express each block's values as fixed-point
   integers relative to the block's largest exponent;
3. the **lifted decorrelating transform** along each axis
   (:mod:`repro.baselines.zfptransform`, exact zfp step sequences);
4. reorder coefficients by **total sequency** (smooth first);
5. map to **negabinary** so magnitude ordering survives sign;
6. **embedded bit-plane coding** with group testing -- zfp's
   ``encode_ints``/``decode_ints`` control flow, ported bit-for-bit --
   from the most significant plane down, stopping per the mode:

   * ``fixed-rate``: exactly ``rate`` bits per value per block (random
     access preserved: every block occupies the same bit budget);
   * ``fixed-precision``: the top ``precision`` bit planes per block;
   * ``fixed-accuracy``: all planes above the requested absolute error
     tolerance.

The per-block bit streams are concatenated and stored in a sectioned
container together with the geometry header.

Performance note: the bit-plane coder works on all blocks of a batch
at once.  The encoder is closed form: a block's significance count
``n`` before each plane is the bit length of the OR of the planes
above it, so every plane's length and the offset of every set bit in
the stream follow from the plane's integer value, and the stream is
written by one numpy scatter of its ones (fixed rate: the same stream
cut to the budget, with the plane sweep stopped once every block's
budget is spent).  Fixed-rate decode runs zfp's control flow in
lockstep over blocks at known offsets.  Accuracy and precision streams
store no block offsets, so their decode parses each block in turn --
but only through its significance phase, skipping verbatim bits with
``str.find`` and strided slices -- and numpy gathers every verbatim
plane afterwards.  Block batches bound the working memory
(:data:`_MAX_BATCH_BITS`).  The stream is byte-identical to zfp's
one-bit-at-a-time control flow, which ``tests/baselines/zfp_oracle.py``
keeps as the differential oracle.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.blocking import merge_blocks, split_blocks
from repro.baselines.szstream import pack_sections, unpack_sections
from repro.baselines.zfptransform import (
    fwd_transform,
    inv_transform,
    sequency_order,
)
from repro.codecs.negabinary import int_to_negabinary, negabinary_to_int
from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.errors import CodecError, ConfigError, DataShapeError, FormatError
from repro.observability import counter_inc, gauge_set, observe, span

__all__ = ["ZFPCompressor", "zfp_compress", "zfp_compress_recon",
           "zfp_decompress", "ZFP_MODES"]

_MAGIC = b"ZFR1"
_VERSION = 1

ZFP_MODES = ("rate", "precision", "accuracy")
_MODE_ID = {m: i for i, m in enumerate(ZFP_MODES)}
_DTYPES = {"f4": np.float32, "f8": np.float64}

#: Fixed-point fraction bits for the block-floating-point conversion.
FRAC_BITS = 44
#: Bit planes carried through coding (fraction bits + transform and
#: negabinary growth headroom).
INTPREC = 54
#: Bits used to store each block's common exponent (biased by 1075,
#: covering the full float64 exponent range).
EBITS = 12
_EBIAS = 1075
#: Per dtype tag, the exponents ``np.frexp`` gives a nonzero finite
#: value of that dtype (smallest subnormal .. largest normal): all the
#: encoder can write, so a block outside them is corrupt.
_EXP_RANGE = {"f4": (-148, 128), "f8": (-1073, 1024)}


#: Unpacked bits (one byte each: blocks x 64 planes x coefficients) one
#: batch of the bit-plane coder may hold.  Larger inputs are coded in
#: block batches, so a 128^3 field's working arrays stay in tens of MB
#: (the same kind of bound as ``huffman._MAX_PASS_SYMBOLS``).
_MAX_BATCH_BITS = 1 << 22


def _batches(nb: int, per_block: int) -> list[slice]:
    """Block slices of at most ``_MAX_BATCH_BITS // per_block`` blocks."""
    step = max(1, _MAX_BATCH_BITS // per_block)
    return [slice(b, min(b + step, nb)) for b in range(0, nb, step)]


def _bit_planes(u: np.ndarray) -> np.ndarray:
    """``bits[b, k, i]``: bit ``k`` (0..63) of coefficient ``i`` of block
    ``b``, as a transposed view of the unpacked bytes."""
    nb, size = u.shape
    raw = np.ascontiguousarray(u, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw.reshape(nb, size, 8), axis=2, bitorder="little")
    return bits.transpose(0, 2, 1)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """uint64 per row of a 0/1 array of 4, 16 or 64 columns (column 0 =
    bit 0), packed in one flat pass."""
    rows, width = bits.shape
    packed = np.packbits(bits.reshape(-1), bitorder="little")
    if width == 4:  # two rows a byte
        pairs = np.empty(2 * packed.size, dtype=np.uint8)
        pairs[0::2] = packed & 15
        pairs[1::2] = packed >> 4
        return pairs[:rows].astype(np.uint64)
    return packed.view(f"<u{width // 8}").astype(np.uint64, copy=False)


def _planes_to_coeffs(planes: np.ndarray, size: int) -> np.ndarray:
    """Invert plane extraction: ``planes[b, k]`` bit ``i`` -> bit ``k`` of
    coefficient ``i``; returns ``(n_blocks, size)`` uint64."""
    nb = planes.shape[0]
    u = np.empty((nb, size), dtype=np.uint64)
    for sl in _batches(nb, 64 * 64):
        wide = np.zeros((sl.stop - sl.start, 64), dtype=np.uint64)
        wide[:, :INTPREC] = planes[sl]
        bits = _bit_planes(wide)[:, :size]  # [b, i, k]
        u[sl] = _pack_rows(bits.reshape(-1, 64)).reshape(-1, size)
    return u


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Bit length of each uint64, exactly (32-bit halves convert exactly)."""
    hi = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((x & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(hi > 0, 32 + hi, lo).astype(np.int64)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 (SWAR; ``np.bitwise_count`` needs numpy 2)."""
    c = np.uint64
    x = x - ((x >> c(1)) & c(0x5555555555555555))
    x = (x & c(0x3333333333333333)) + ((x >> c(2)) & c(0x3333333333333333))
    x = (x + (x >> c(4))) & c(0x0F0F0F0F0F0F0F0F)
    return ((x * c(0x0101010101010101)) >> c(56)).astype(np.int64)


def _encode_planes(u: np.ndarray, exps: np.ndarray, zero: np.ndarray,
                   kmin: np.ndarray, block_bits: int | None
                   ) -> tuple[bytes, int]:
    """The bit stream of every block as ``(payload, n_bits)``.

    ``u`` is ``(n_blocks, size)`` negabinary coefficients, ``zero``
    flags the all-zero blocks, ``kmin`` is each block's lowest coded
    plane and ``block_bits`` the fixed-rate block size (None for the
    unbounded modes).
    """
    nb, size = u.shape
    packed: list[bytes] = []
    carry = np.zeros(0, dtype=np.uint8)  # bits past the last full byte
    nbits = 0
    for sl in _batches(nb, 64 * size):
        bits = _encode_batch(u[sl], exps[sl], zero[sl], kmin[sl], block_bits)
        nbits += bits.size
        bits = np.concatenate([carry, bits])
        whole = bits.size & ~7
        packed.append(np.packbits(bits[:whole]).tobytes())
        carry = bits[whole:]
    packed.append(np.packbits(carry).tobytes())
    return b"".join(packed), nbits


def _encode_batch(u: np.ndarray, exps: np.ndarray, zero: np.ndarray,
                  kmin: np.ndarray, block_bits: int | None) -> np.ndarray:
    """One batch of blocks as a 0/1 uint8 bit array, in closed form.

    zfp's ``encode_ints`` sends plane ``k`` of a block whose first
    ``n`` coefficients are already significant (``n`` = bit length of
    the OR of the planes above ``k``) as: the plane's low ``n`` bits
    verbatim; then one group test per set bit at or above ``n`` -- a
    ``1`` marker, then the plane's bits up to and including that set
    bit (a set bit at ``size - 1`` is implied, not sent); then a ``0``
    unless every coefficient is now significant.  So a plane's length
    follows from its integer value and ``n``, and each set bit lands at
    a computable offset: verbatim bit ``i`` at ``i``; a later set bit
    ``i`` preceded by ``c`` others at or above ``n`` at ``i + c + 1``,
    with its marker right after the previous set bit's token (at ``n``
    for the first).  Zeros are never written.  A fixed-rate block is
    the unbounded stream cut to its budget and zero-padded.
    """
    nb, size = u.shape
    head = 1 + EBITS
    live = ~zero
    if live.any():
        occupied = int(np.bitwise_or.reduce(u[live], axis=None))
        k_hi = min(occupied.bit_length(), INTPREC) - 1  # INTPREC planes
        k_lo = int(kmin[live].min())
    else:
        k_hi, k_lo = -1, INTPREC
    # Coded planes above k_hi are empty: one trailing '0' each.
    skip = np.where(live, np.clip(INTPREC - np.maximum(kmin, k_hi + 1),
                                  0, None), 0)
    J = max(k_hi + 1 - k_lo, 0)
    coded = ((k_hi - np.arange(J))[None, :] >= kmin[:, None]) & live[:, None]
    B = np.ascontiguousarray(_bit_planes(u)[:, k_lo : k_hi + 1][:, ::-1])
    B[~coded] = 0  # [b, j, i]: bit i of plane k_hi - j, if coded
    planes = _pack_rows(B.reshape(nb * J, size)).reshape(nb, J)
    top = _bit_length(planes)
    n_after = np.maximum.accumulate(top, axis=1) if J else top
    n = np.zeros_like(n_after)
    n[:, 1:] = n_after[:, :-1]
    cnt = _popcount(planes)
    below = cnt - np.where(
        n < size, _popcount(planes >> np.minimum(n, 63).astype(np.uint64)), 0)
    length = (np.maximum(n, np.minimum(top, size - 1)) + cnt - below
              + (n_after < size)) * coded
    if block_bits is not None and J:
        # Planes past every block's budget are never sent: stop there.
        used = (head + skip)[:, None] + np.cumsum(length, axis=1)
        J = int(min(J, ((used < block_bits).sum(axis=1) + 1).max()))
        B, n, top, cnt, below, length, coded = (
            np.ascontiguousarray(B[:, :J]), n[:, :J], top[:, :J],
            cnt[:, :J], below[:, :J], length[:, :J], coded[:, :J])
    ends = np.cumsum(length, axis=1)
    if block_bits is None:
        total_b = np.where(live, head + skip + (ends[:, -1] if J else 0), 1)
        start = np.cumsum(total_b) - total_b
        total = int(total_b.sum())
    else:
        start = np.arange(nb) * block_bits
        total = nb * block_bits
    off = ((start + head + skip)[:, None] + ends - length).ravel()
    n, top, cnt, below = n.ravel(), top.ravel(), cnt.ravel(), below.ravel()
    first = np.cumsum(cnt) - cnt  # each plane's first set bit, in order

    idx = np.flatnonzero(B.view(bool))
    row = idx >> (size.bit_length() - 1)
    i = idx & (size - 1)
    # c = set bits in [n, i) of the same plane; negative for verbatim.
    c = np.arange(idx.size) - (first + below)[row]
    bit_at = off[row] + i + np.maximum(c + 1, 0)
    # Each marker follows the previous set bit; a plane's first at n.
    marks = [(bit_at[:-1] + 1)[c[1:] > 0],
             (off + n)[(cnt > below) & (n < size)]]
    # A set bit at size - 1 after the verbatim part is implied.
    implied = (top == size) & (n < size) & (cnt > 0)
    bit_at[(first + cnt - 1)[implied]] = total
    out = np.zeros(total + 1, dtype=np.uint8)
    if block_bits is not None:
        # Cut each block at its budget (cut tokens land on a spare bit).
        end = (start + block_bits).repeat(J)
        bit_at = np.where(bit_at < end[row], bit_at, total)
        marks = [m[m < e] for m, e in zip(marks, (
            end[row[1:][c[1:] > 0]], end[(cnt > below) & (n < size)]))]
    out[bit_at] = 1
    for m in marks:
        out[m] = 1
    s0 = start[live]
    out[s0] = 1
    e = exps[live] + _EBIAS
    for t in range(EBITS):
        out[s0 + 1 + t] = (e >> t) & 1
    return out[:total]


def _decode_rate(padded: np.ndarray, blocks: slice, size: int,
                 block_bits: int, exps: np.ndarray, nonzero: np.ndarray
                 ) -> np.ndarray:
    """Fixed-rate blocks sit at known offsets: decode them in lockstep.

    Runs zfp's ``decode_ints`` control flow for every block of the
    slice at once -- per-block cursor, ``n`` and bit budget arrays, one
    numpy step per plane and per group-test round.  Fills ``exps`` and
    ``nonzero`` and returns ``planes[b, k]``, plane ``k`` of block ``b``.
    """
    nb = blocks.stop - blocks.start
    local = padded[blocks.start * block_bits : blocks.stop * block_bits + size]
    ones = np.flatnonzero(local[: nb * block_bits])
    after = np.append(ones, local.size + size)  # past the last one
    ar = np.arange(size)
    start = np.arange(nb) * block_bits
    act = np.flatnonzero(local[start])
    nonzero[blocks.start + act] = True
    ew = np.left_shift(1, np.arange(EBITS))
    exps[blocks.start + act] = (local[start[act, None] + 1 + np.arange(EBITS)]
                                @ ew) - _EBIAS
    planes = np.zeros((nb, INTPREC), dtype=np.uint64)
    pos = start + 1 + EBITS
    left = np.full(nb, block_bits - (1 + EBITS), dtype=np.int64)
    n = np.zeros(nb, dtype=np.int64)
    x = np.zeros(nb, dtype=np.uint64)
    for k in range(INTPREC - 1, -1, -1):
        act = act[left[act] > 0]
        if not act.size:
            break
        m = np.minimum(n[act], left[act])
        x[act] = _pack_rows(local[pos[act, None] + ar] * (ar < m[:, None]))
        pos[act] += m
        left[act] -= m
        g = act[(n[act] < size) & (left[act] > 0)]
        while g.size:
            left[g] -= 1
            pos[g] += 1
            g = g[local[pos[g] - 1] == 1]  # a group test's '1' marker
            if not g.size:
                break
            p = pos[g]
            lim = np.minimum(size - 1 - n[g], left[g])
            run = after[np.searchsorted(ones, p)] - p  # zeros before a one
            step = np.minimum(run, lim)
            used = step + (run < lim)
            pos[g] += used
            left[g] -= used
            n[g] += step
            x[g] |= np.left_shift(np.uint64(1), n[g].astype(np.uint64))
            n[g] += 1
            g = g[(n[g] < size) & (left[g] > 0)]
        planes[act, k] = x[act]
    return planes


def _decode_sequential(s: str, padded: np.ndarray, cur: int, blocks: slice,
                       size: int, kmin: np.ndarray, exps: np.ndarray,
                       nonzero: np.ndarray) -> tuple[np.ndarray, int]:
    """Decode the blocks of an accuracy/precision stream from bit ``cur``.

    These streams store no block offsets, so each block is parsed in
    turn -- but only its group tests.  A plane's ``n`` verbatim bits
    are skipped and gathered later with numpy; ``str.find`` skips runs
    of empty planes, a strided slice skips runs of planes that add no
    significant coefficient (``n`` bits and a ``0`` each), and once all
    ``size`` coefficients are significant the rest of the block is
    ``size`` verbatim bits per plane.  Fills ``exps`` and ``nonzero``
    and returns ``(planes, next_cur)`` as :func:`_decode_rate`.
    """
    find = s.find
    nz: list[int] = []
    ex: list[int] = []
    # Verbatim runs (block, first plane, first bit, n, planes) and the
    # group-test bits (block, plane, bits) of each plane that has them.
    runs: list[int] = []  # flat 5-tuples
    gb: list[int] = []  # flat pairs
    gx: list[int] = []
    kmins = kmin[blocks].tolist()
    b = 0
    try:
        for b in range(blocks.stop - blocks.start):
            if s[cur] == "0":
                cur += 1
                continue
            nz.append(b)
            ex.append(int(s[cur + 1 : cur + 1 + EBITS][::-1], 2))
            cur += 1 + EBITS
            lo = kmins[b]
            k = INTPREC - 1
            n = 0
            while k >= lo:
                left = k - lo + 1
                if n == 0:
                    j = find("1", cur, cur + left)
                    if j < 0:
                        cur += left
                        break
                    k -= j - cur
                    cur = j
                elif n == size:
                    runs += (b, k, cur, n, left)
                    cur += left * size
                    break
                else:
                    if s[cur + n] == "0":
                        q = s[cur + n : cur + (n + 1) * left : n + 1].find("1")
                        quiet = left if q < 0 else q
                        runs += (b, k, cur, n, quiet)
                        cur += quiet * (n + 1)
                        k -= quiet
                        if k < lo:
                            break
                    runs += (b, k, cur, n, 1)
                    cur += n
                x = 0
                while n < size:
                    if s[cur] == "0":
                        cur += 1
                        break
                    cur += 1
                    lim = size - 1 - n
                    j = find("1", cur, cur + lim)
                    if j < 0:
                        n += lim
                        cur += lim
                    else:
                        n += j - cur
                        cur = j + 1
                    x |= 1 << n
                    n += 1
                gb += (b, k)
                gx.append(x)
                k -= 1
    except (IndexError, ValueError) as exc:
        raise FormatError(
            f"ZFP bit stream ends inside block {blocks.start + b}") from exc
    if cur > len(s):
        raise FormatError(
            f"ZFP bit stream ends inside block {blocks.stop - 1}")
    nonzero[blocks.start + np.array(nz, dtype=np.int64)] = True
    exps[blocks.start + np.array(nz, dtype=np.int64)] = (
        np.array(ex, dtype=np.int64) - _EBIAS)
    planes = np.zeros((blocks.stop - blocks.start, INTPREC), dtype=np.uint64)
    if runs:
        rb, rk, rpos, rn, count = np.reshape(runs, (-1, 5)).T
        rec = np.repeat(np.arange(rb.size), count)
        t = np.arange(rec.size) - np.repeat(np.cumsum(count) - count, count)
        first = rpos[rec] + t * (rn + (rn < size))[rec]
        ar = np.arange(size)
        planes[rb[rec], rk[rec] - t] = _pack_rows(
            padded[first[:, None] + ar] * (ar < rn[rec, None]))
    if gb:
        b_, k_ = np.reshape(gb, (-1, 2)).T
        planes[b_, k_] |= np.array(gx, dtype=np.uint64)
    return planes, cur


#: ``bytes.translate`` table turning unpacked 0/1 bytes into '0'/'1'.
_ASCII_BITS = bytes([48, 49] + [0] * 254)


@dataclass(frozen=True)
class _Header:
    """A validated ZFP container header (see FORMATS.md)."""

    mode: str
    dtype_tag: str
    ndim: int
    shape: tuple[int, ...]
    padded: tuple[int, ...]
    n_blocks: int
    n_bits: int
    block_bits: int | None  # fixed-rate only
    kmin: np.ndarray  # lowest coded plane per block
    payload: bytes


def _read_header(sections: list[bytes]) -> _Header:
    """Parse and check a container's sections before any decoding.

    Every field the decoder trusts is checked against the others, so a
    hostile header raises :class:`FormatError` instead of an
    ``IndexError`` or an allocation sized by a forged count.
    """
    if len(sections) != 3:
        raise FormatError(f"ZFP container has {len(sections)} sections, "
                          f"expected 3")
    meta, kmin_bytes, payload = sections
    try:
        mode_id, pos = decode_uvarint(meta, 0)
        dtype_tag = meta[pos : pos + 2].decode("ascii", "replace")
        (param,) = struct.unpack_from("<d", meta, pos + 2)
        d, pos = decode_uvarint(meta, pos + 10)
        dims = []
        for _ in range(2 * min(d, 3)):
            n, pos = decode_uvarint(meta, pos)
            dims.append(n)
        nbits, pos = decode_uvarint(meta, pos)
    except (CodecError, struct.error) as exc:
        raise FormatError(f"truncated ZFP header: {exc}") from exc
    if mode_id >= len(ZFP_MODES):
        raise FormatError(f"unknown ZFP mode id {mode_id}")
    if dtype_tag not in _DTYPES:
        raise FormatError(f"unknown dtype tag {dtype_tag!r}")
    if not 1 <= d <= 3:
        raise FormatError(f"ZFP header has {d} dimensions, expected 1-3")
    shape, padded = tuple(dims[:d]), tuple(dims[d:])
    for n, p in zip(shape, padded):
        if n < 1 or p % 4 or not n <= p <= n + 3:
            raise FormatError(
                f"ZFP header pads shape {shape} to {padded}: each padded "
                f"dim must be the dim rounded up to a multiple of 4")
    mode = ZFP_MODES[mode_id]
    size = 4 ** d
    nb = math.prod(p // 4 for p in padded)
    if nbits < nb:
        raise FormatError(f"ZFP stream holds {nbits} bits for {nb} blocks")
    if len(payload) != (nbits + 7) // 8:
        raise FormatError(f"ZFP payload is {len(payload)} bytes, header "
                          f"says {nbits} bits")
    block_bits = None
    if mode == "rate":
        if not (math.isfinite(param) and param * size >= 1 + EBITS):
            raise FormatError(f"ZFP rate {param} is below the block header")
        block_bits = int(round(param * size))
        if nbits != nb * block_bits:
            raise FormatError(
                f"ZFP fixed-rate stream holds {nbits} bits, expected "
                f"{nb} blocks x {block_bits}")
    elif mode == "precision" and not (math.isfinite(param)
                                      and param == int(param)
                                      and 1 <= param <= INTPREC):
        raise FormatError(f"ZFP precision {param} is not in 1..{INTPREC}")
    if mode == "accuracy":
        if len(kmin_bytes) != nb:
            raise FormatError(f"ZFP kmin section holds {len(kmin_bytes)} "
                              f"bytes for {nb} blocks")
        kmin = np.frombuffer(kmin_bytes, dtype=np.uint8).astype(np.int64)
        if int(kmin.max()) > INTPREC:
            raise FormatError(f"ZFP kmin {int(kmin.max())} exceeds "
                              f"{INTPREC} planes")
    else:
        if kmin_bytes:
            raise FormatError(f"ZFP {mode} stream carries a kmin section")
        low = INTPREC - int(param) if mode == "precision" else 0
        kmin = np.full(nb, low, dtype=np.int64)
    return _Header(mode, dtype_tag, d, shape, padded, nb, nbits, block_bits,
                   kmin, payload)


def _decode_planes(hdr: _Header
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, exps, nonzero)`` for every block of a checked container."""
    nb, size = hdr.n_blocks, 4 ** hdr.ndim
    # The stream's bits, then spare zeros so a verbatim read may gather
    # ``size`` bits from any cursor.
    padded = np.unpackbits(np.frombuffer(
        hdr.payload + bytes(size // 8 + 1), dtype=np.uint8))
    padded[hdr.n_bits :] = 0
    s = ("" if hdr.block_bits is not None else
         padded[: hdr.n_bits].tobytes().translate(_ASCII_BITS).decode())
    u = np.empty((nb, size), dtype=np.uint64)
    exps = np.zeros(nb, dtype=np.int64)
    nonzero = np.zeros(nb, dtype=bool)
    cur = 0
    for sl in _batches(nb, 64 * INTPREC):
        if hdr.block_bits is not None:
            planes = _decode_rate(padded, sl, size, hdr.block_bits, exps,
                                  nonzero)
        else:
            planes, cur = _decode_sequential(s, padded, cur, sl, size,
                                             hdr.kmin, exps, nonzero)
        u[sl] = _planes_to_coeffs(planes, size)
    if hdr.block_bits is None and cur != hdr.n_bits:
        raise FormatError(f"ZFP bit stream holds {hdr.n_bits} bits, its "
                          f"blocks {cur}")
    lo, hi = _EXP_RANGE[hdr.dtype_tag]
    bad = nonzero & ((exps < lo) | (exps > hi))
    if bad.any():
        b = int(np.argmax(bad))
        raise FormatError(f"ZFP block {b} has exponent {int(exps[b])}, "
                          f"outside {lo}..{hi} for {hdr.dtype_tag}")
    return u, exps, nonzero


def _inverse(hdr: _Header, u: np.ndarray, exps: np.ndarray,
             nonzero: np.ndarray) -> np.ndarray:
    """The back half of decoding: every block's negabinary coefficients
    ``u`` and exponent to the output array.

    :meth:`ZFPCompressor.decompress` and
    :meth:`ZFPCompressor.compress_recon` both end here, which is what
    makes the encoder's reconstruction bit-identical to a decode.  A
    block that decodes beyond the dtype's finite range (garbage planes
    under an in-range exponent) raises :class:`FormatError`.
    """
    d, nb = hdr.ndim, hdr.n_blocks
    perm = sequency_order(d)
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(4 ** d)
    coeff_int = negabinary_to_int(u)[:, inv_perm]
    q = inv_transform(coeff_int.reshape((nb,) + (4,) * d))
    with np.errstate(over="ignore"):  # refused below, not returned
        scale = np.ldexp(1.0, (FRAC_BITS - 1) - exps)
        blocks = q.astype(np.float64) / scale.reshape((nb,) + (1,) * d)
        blocks[~nonzero] = 0.0
        out = merge_blocks(blocks, hdr.padded, hdr.shape).astype(
            _DTYPES[hdr.dtype_tag])
    if not np.isfinite(out).all():
        raise FormatError(f"ZFP stream decodes beyond the finite "
                          f"{hdr.dtype_tag} range")
    return out


@dataclass(frozen=True)
class ZFPCompressor:
    """Configured ZFP-style compressor.

    Exactly one of the three mode parameters must be set:

    rate:
        Bits per value (fixed-rate).  Must leave room for the per-block
        header: ``rate * 4**ndim >= 1 + EBITS``.
    precision:
        Bit planes per block (fixed-precision), 1..INTPREC.
    tolerance:
        Absolute error tolerance (fixed-accuracy), > 0.
    """

    rate: float | None = None
    precision: int | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        set_count = sum(p is not None
                        for p in (self.rate, self.precision, self.tolerance))
        if set_count != 1:
            raise ConfigError(
                "set exactly one of rate / precision / tolerance"
            )
        if self.rate is not None and self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.precision is not None and not (
                self.precision == int(self.precision)
                and 1 <= self.precision <= INTPREC):
            raise ConfigError(
                f"precision must be an integer in [1, {INTPREC}], "
                f"got {self.precision}"
            )
        if self.tolerance is not None and self.tolerance <= 0:
            raise ConfigError(
                f"tolerance must be positive, got {self.tolerance}"
            )

    @property
    def mode(self) -> str:
        """Which of the three modes is active."""
        if self.rate is not None:
            return "rate"
        if self.precision is not None:
            return "precision"
        return "accuracy"

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Compress an n-D (1-3) float array."""
        return self._encode(data)[0]

    def compress_recon(self, data: np.ndarray) -> tuple[bytes, np.ndarray]:
        """:meth:`compress`, plus the array the payload decodes to.

        In accuracy and precision modes a block decodes to exactly its
        coded planes (``kmin`` up), so the planes below ``kmin`` are
        masked off and :func:`_inverse` -- the decoder's own back half,
        which also zeroes the zero blocks -- runs on the result: the
        array equals ``decompress(payload)`` bit for bit.  Fixed rate cuts
        blocks at their bit budget, so that mode decodes the payload.
        """
        blob, hdr, u, exps, live = self._encode(data)
        if hdr.block_bits is not None:
            return blob, self.decompress(blob)
        lost = (np.uint64(1) << hdr.kmin.astype(np.uint64)) - np.uint64(1)
        kept = np.uint64((1 << INTPREC) - 1) & ~lost
        with span("zfp.inverse_transform", n_blocks=hdr.n_blocks):
            return blob, _inverse(hdr, u & kept[:, None], exps, live)

    def _encode(self, data: np.ndarray) -> tuple[
            bytes, _Header, np.ndarray, np.ndarray, np.ndarray]:
        """The container, its header, and every block's negabinary
        coefficients, exponent and live (not zero-block) flag."""
        t_start = time.perf_counter()
        data = np.asarray(data)
        if data.dtype.newbyteorder("=") == np.float32:
            dtype_tag = "f4"
        elif data.dtype.newbyteorder("=") == np.float64:
            dtype_tag = "f8"
        else:
            data = data.astype(np.float64)
            dtype_tag = "f8"
        if data.ndim < 1 or data.ndim > 3:
            raise DataShapeError(
                f"this ZFP implementation supports 1-3 dimensions, "
                f"got {data.ndim}"
            )
        if data.size == 0:
            raise DataShapeError("cannot compress an empty array")
        d = data.ndim
        size = 4 ** d
        if self.rate is not None and self.rate * size < 1 + EBITS:
            raise ConfigError(
                f"rate {self.rate} too small for {d}-D blocks: need at least "
                f"{(1 + EBITS) / size:.2f} bits/value for the block header"
            )

        with span("zfp.transform", bytes_in=int(data.nbytes), mode=self.mode):
            blocks, padded_shape = split_blocks(data.astype(np.float64), 4)
            nb = blocks.shape[0]
            flat = blocks.reshape(nb, size)
            maxabs = np.abs(flat).max(axis=1)
            tol = self.tolerance
            zero_block = ((maxabs == 0.0) if tol is None
                          else (maxabs <= tol / 2.0))

            _, exps = np.frexp(maxabs)
            exps = exps.astype(np.int64)  # maxabs in [2**(e-1), 2**e)
            scale = np.ldexp(1.0, (FRAC_BITS - 1) - exps)
            q = np.rint(blocks
                        * scale.reshape((nb,) + (1,) * d)).astype(np.int64)
            coeffs = fwd_transform(q).reshape(nb, size)[:, sequency_order(d)]
            u = int_to_negabinary(coeffs).astype(np.uint64)

        block_bits = (int(round(self.rate * size))
                      if self.rate is not None else None)
        if self.precision is not None:
            kmin_all = np.full(nb, INTPREC - self.precision, dtype=np.int64)
        elif tol is not None:
            # Planes below the tolerance (after accounting for the
            # fixed-point scale and transform gain) are not coded.
            log_tol = math.floor(math.log2(tol))
            kmin_all = log_tol - (exps - (FRAC_BITS - 1)) - 2 * d - 1
            kmin_all = np.clip(kmin_all, 0, INTPREC).astype(np.int64)
        else:
            kmin_all = np.zeros(nb, dtype=np.int64)

        with span("zfp.bitplane_encode", n_blocks=nb, mode=self.mode) as sp:
            payload, nbits = _encode_planes(u, exps, zero_block, kmin_all,
                                            block_bits)
            sp.add(bytes_out=len(payload))

        meta = bytearray()
        meta += encode_uvarint(_MODE_ID[self.mode])
        meta += dtype_tag.encode()
        if self.rate is not None:
            meta += struct.pack("<d", self.rate)
        elif self.precision is not None:
            meta += struct.pack("<d", float(self.precision))
        else:
            meta += struct.pack("<d", tol)
        meta += encode_uvarint(d)
        for nshape in data.shape:
            meta += encode_uvarint(nshape)
        for nshape in padded_shape:
            meta += encode_uvarint(nshape)
        meta += encode_uvarint(nbits)

        kmin_bytes = (kmin_all.astype(np.uint8).tobytes()
                      if tol is not None else b"")
        blob = pack_sections(_MAGIC, _VERSION,
                             [bytes(meta), kmin_bytes, payload])
        counter_inc("zfp.compress.runs")
        counter_inc("zfp.compress.bytes_in", int(data.nbytes))
        counter_inc("zfp.compress.bytes_out", len(blob))
        gauge_set("zfp.last.cr", data.nbytes / max(len(blob), 1))
        observe("zfp.compress.seconds", time.perf_counter() - t_start)
        hdr = _Header(self.mode, dtype_tag, d, data.shape, padded_shape, nb,
                      nbits, block_bits, kmin_all, payload)
        return blob, hdr, u, exps, ~zero_block

    # -- decompression -----------------------------------------------------

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        t_start = time.perf_counter()
        counter_inc("zfp.decompress.runs")
        counter_inc("zfp.decompress.bytes_in", len(blob))
        hdr = _read_header(unpack_sections(blob, _MAGIC, _VERSION))
        with span("zfp.bitplane_decode", bytes_in=len(hdr.payload),
                  n_blocks=hdr.n_blocks, mode=hdr.mode):
            u, exps, nonzero = _decode_planes(hdr)
        with span("zfp.inverse_transform", n_blocks=hdr.n_blocks) as sp:
            out = _inverse(hdr, u, exps, nonzero)
            sp.add(bytes_out=int(out.nbytes))
        observe("zfp.decompress.seconds", time.perf_counter() - t_start)
        return out


def zfp_compress(data: np.ndarray, *, rate: float | None = None,
                 precision: int | None = None,
                 tolerance: float | None = None) -> bytes:
    """One-call ZFP compression; see :class:`ZFPCompressor`."""
    return ZFPCompressor(rate=rate, precision=precision,
                         tolerance=tolerance).compress(data)


def zfp_compress_recon(data: np.ndarray, *, rate: float | None = None,
                       precision: int | None = None,
                       tolerance: float | None = None
                       ) -> tuple[bytes, np.ndarray]:
    """:func:`zfp_compress` plus the array the payload decodes to."""
    return ZFPCompressor(rate=rate, precision=precision,
                         tolerance=tolerance).compress_recon(data)


def zfp_decompress(blob: bytes) -> np.ndarray:
    """One-call ZFP decompression."""
    return ZFPCompressor.decompress(blob)
