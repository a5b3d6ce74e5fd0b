"""SZ-style error-bounded lossy compressor.

A from-scratch Python implementation of the prediction-based compressor
family the paper benchmarks as "SZ v2.0".  The pipeline is the same
four conceptual steps as real SZ:

1. **decorrelation by prediction** -- global Lorenzo prediction, or
   (SZ 2.0-style) a per-block choice between block-local Lorenzo and a
   fitted linear-regression hyperplane;
2. **linear-scaling quantization** honoring a strict absolute error
   bound ``eps`` (via the integer-lattice formulation of
   :mod:`repro.baselines.lorenzo`, which keeps everything vectorized);
3. **canonical Huffman coding** of the quantization codes, with an
   escape channel for unpredictable values;
4. **zlib** on the side streams.

Hard contract, enforced structurally and by the test suite::

    max |x - decompress(compress(x, eps))| <= eps

Usage
-----
>>> from repro.baselines import sz_compress, sz_decompress
>>> blob = sz_compress(data, eps=1e-3)          # absolute bound
>>> blob = sz_compress(data, rel_eps=1e-4)      # range-relative bound
>>> recon = sz_decompress(blob)
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.blocking import merge_blocks as _merge_blocks
from repro.baselines.blocking import split_blocks as _split_blocks
from repro.baselines.lorenzo import (
    lattice_dequantize,
    lattice_quantize,
    lorenzo_forward,
    lorenzo_inverse,
)
from repro.baselines.regression import fit_blocks, predict_blocks
from repro.baselines.szstream import (
    DEFAULT_ALPHABET,
    decode_residuals_many,
    encode_residuals,
    pack_sections,
    unpack_sections,
)
from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.errors import ConfigError, DataShapeError, FormatError
from repro.observability import counter_inc, gauge_set, observe, span

__all__ = ["SZCompressor", "sz_compress", "sz_decompress", "MODES"]

_MAGIC = b"SZR1"
_VERSION = 1

MODES = ("lorenzo", "regression", "auto")
_MODE_ID = {m: i for i, m in enumerate(MODES)}

_DTYPES = {"f4": np.float32, "f8": np.float64}


def _block_lorenzo_forward(blocks: np.ndarray) -> np.ndarray:
    """Lorenzo residuals computed independently inside every block."""
    out = blocks.copy()
    for axis in range(1, out.ndim):
        out = np.concatenate(
            [np.take(out, [0], axis=axis), np.diff(out, axis=axis)],
            axis=axis,
        )
    return out


def _block_lorenzo_inverse(res: np.ndarray) -> np.ndarray:
    out = res.copy()
    for axis in range(out.ndim - 1, 0, -1):
        out = np.cumsum(out, axis=axis)
    return out


def _residual_cost(res: np.ndarray) -> np.ndarray:
    """Per-block entropy proxy: sum of log2(1 + |residual|)."""
    flat = np.abs(res.reshape(res.shape[0], -1)).astype(np.float64)
    return np.log2(1.0 + flat).sum(axis=1)


@dataclass(frozen=True)
class SZCompressor:
    """Configured SZ-style compressor.

    Parameters
    ----------
    eps:
        Absolute error bound (exclusive with ``rel_eps``).
    rel_eps:
        Range-relative error bound; resolved to
        ``rel_eps * (max - min)`` at compression time (SZ's ``-P REL``).
    mode:
        ``'lorenzo'`` (global prediction, any ndim), ``'regression'``
        (per-block hyperplanes), or ``'auto'`` (per-block best of both,
        SZ 2.0 behavior).  ``'auto'`` falls back to ``'lorenzo'`` on
        1-D inputs, where a per-block line fit cannot beat Lorenzo.
    block_size:
        Block edge for the blockwise modes (SZ 2.0 uses 6-8).
    alphabet:
        Huffman symbol budget, including the escape symbol.
    """

    eps: float | None = None
    rel_eps: float | None = None
    mode: str = "auto"
    block_size: int = 8
    alphabet: int = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        if (self.eps is None) == (self.rel_eps is None):
            raise ConfigError("specify exactly one of eps / rel_eps")
        bound = self.eps if self.eps is not None else self.rel_eps
        if bound is None or bound <= 0:
            raise ConfigError(f"error bound must be positive, got {bound}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown SZ mode {self.mode!r}; use {MODES}")
        if self.block_size < 2:
            raise ConfigError(f"block_size must be >= 2, got {self.block_size}")

    # -- helpers -----------------------------------------------------------

    def _resolve_eps(self, data: np.ndarray) -> float:
        if self.eps is not None:
            return float(self.eps)
        rng = float(np.max(data) - np.min(data)) if data.size else 0.0
        if rng == 0.0:
            # Constant data: any positive bound works; pick the rel bound
            # itself so the lattice is well defined.
            return float(self.rel_eps)
        return float(self.rel_eps) * rng

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Compress an n-D float array to a self-describing byte string."""
        t_start = time.perf_counter()
        data = np.asarray(data)
        if data.dtype.newbyteorder("=") == np.float32:
            dtype_tag = "f4"
        elif data.dtype.newbyteorder("=") == np.float64:
            dtype_tag = "f8"
        else:
            data = data.astype(np.float64)
            dtype_tag = "f8"
        if data.ndim < 1 or data.ndim > 4:
            raise DataShapeError(f"SZ supports 1-4 dimensions, got {data.ndim}")
        if data.size == 0:
            raise DataShapeError("cannot compress an empty array")

        eps = self._resolve_eps(data)
        # The pipeline works in float64 but float32 outputs are rounded
        # once more on the final cast (up to one ULP of the largest
        # value).  Shave that off the lattice bound so the error
        # contract holds on the *returned* array, not just internally.
        if dtype_tag == "f4" and data.size:
            ulp = float(np.spacing(np.float32(np.max(np.abs(data)))))
            if eps > 2.0 * ulp:
                eps = eps - ulp
        mode = self.mode
        if mode == "auto" and data.ndim == 1:
            mode = "lorenzo"

        work = data.astype(np.float64, copy=False)
        selectors = b""
        coeffs = b""
        with span("sz.predict", bytes_in=int(work.nbytes), mode=mode):
            if mode == "lorenzo":
                residuals = lorenzo_forward(lattice_quantize(work, eps))
                padded_shape = work.shape
            else:
                blocks, padded_shape = _split_blocks(work, self.block_size)
                coef = fit_blocks(blocks)
                pred = predict_blocks(coef, blocks.shape[1:])
                reg_res = lattice_quantize(blocks - pred, eps)
                if mode == "regression":
                    choose_reg = np.ones(blocks.shape[0], dtype=bool)
                    lor_res = None
                else:
                    lor_res = _block_lorenzo_forward(
                        lattice_quantize(blocks, eps))
                    choose_reg = (_residual_cost(reg_res)
                                  < _residual_cost(lor_res))
                nb = blocks.shape[0]
                res = np.empty_like(reg_res)
                res[choose_reg] = reg_res[choose_reg]
                if lor_res is not None:
                    res[~choose_reg] = lor_res[~choose_reg]
                residuals = res
                selectors = zlib_compress(np.packbits(choose_reg).tobytes())
                # Only regression blocks need their coefficients.
                coeffs = zlib_compress(
                    np.ascontiguousarray(coef[choose_reg], dtype="<f4"))

        meta = bytearray()
        meta += encode_uvarint(_MODE_ID[mode])
        meta += dtype_tag.encode()
        meta += struct.pack("<d", eps)
        meta += encode_uvarint(self.block_size)
        meta += encode_uvarint(data.ndim)
        for n in data.shape:
            meta += encode_uvarint(n)
        for n in padded_shape:
            meta += encode_uvarint(n)
        meta += encode_uvarint(self.alphabet)

        with span("sz.encode", bytes_in=int(residuals.nbytes)) as sp:
            payload = encode_residuals(residuals, self.alphabet)
            blob = pack_sections(_MAGIC, _VERSION,
                                 [bytes(meta), selectors, coeffs, payload])
            sp.add(bytes_out=len(blob))
        counter_inc("sz.compress.runs")
        counter_inc("sz.compress.bytes_in", int(data.nbytes))
        counter_inc("sz.compress.bytes_out", len(blob))
        gauge_set("sz.last.cr", data.nbytes / max(len(blob), 1))
        observe("sz.compress.seconds", time.perf_counter() - t_start)
        return blob

    # -- decompression -----------------------------------------------------

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        return SZCompressor.decompress_many([blob])[0]

    @staticmethod
    def decompress_many(blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress several containers, in order.

        The Huffman payloads of all of them are decoded in one lockstep
        pass (:func:`~repro.codecs.huffman.huffman_decode_many`), which
        costs about what one payload's does: the point for a chunked
        store, whose chunks are small.
        """
        t_start = time.perf_counter()
        heads = [_parse(blob) for blob in blobs]
        with span("sz.decode", bytes_in=sum(len(h.payload) for h in heads),
                  blobs=len(heads)):
            residuals = decode_residuals_many(
                [(h.payload, h.count, h.alphabet) for h in heads])
        with span("sz.reconstruct", blobs=len(heads)):
            out = [_reconstruct(h, res) for h, res in zip(heads, residuals)]
        share = (time.perf_counter() - t_start) / max(len(heads), 1)
        for _ in heads:
            observe("sz.decompress.seconds", share)
        return out


@dataclass(frozen=True)
class _Header:
    """A parsed container: everything but the residuals."""

    mode: str
    dtype_tag: str
    eps: float
    block_size: int
    shape: tuple[int, ...]
    padded: tuple[int, ...]
    alphabet: int
    selectors: bytes
    coeffs: bytes
    payload: bytes

    @property
    def count(self) -> int:
        """Number of residuals the payload holds."""
        if self.mode == "lorenzo":
            return int(np.prod(self.shape))
        nb = int(np.prod([n // self.block_size for n in self.padded]))
        return nb * self.block_size ** len(self.shape)


def _parse(blob: bytes) -> _Header:
    counter_inc("sz.decompress.runs")
    counter_inc("sz.decompress.bytes_in", len(blob))
    meta, selectors, coeffs, payload = unpack_sections(blob, _MAGIC, _VERSION)
    mode_id, pos = decode_uvarint(meta, 0)
    mode = MODES[mode_id]
    dtype_tag = meta[pos : pos + 2].decode()
    pos += 2
    if dtype_tag not in _DTYPES:
        raise FormatError(f"unknown dtype tag {dtype_tag!r}")
    (eps,) = struct.unpack_from("<d", meta, pos)
    pos += 8
    block_size, pos = decode_uvarint(meta, pos)
    ndim, pos = decode_uvarint(meta, pos)
    dims = []
    for _ in range(2 * ndim):
        n, pos = decode_uvarint(meta, pos)
        dims.append(n)
    alphabet, pos = decode_uvarint(meta, pos)
    return _Header(mode, dtype_tag, eps, block_size, tuple(dims[:ndim]),
                   tuple(dims[ndim:]), alphabet, selectors, coeffs, payload)


def _reconstruct(h: _Header, residuals: np.ndarray) -> np.ndarray:
    if h.mode == "lorenzo":
        lattice = lorenzo_inverse(residuals.reshape(h.shape))
        return lattice_dequantize(lattice, h.eps).astype(_DTYPES[h.dtype_tag])
    ndim = len(h.shape)
    nb = int(np.prod([n // h.block_size for n in h.padded]))
    bshape = (nb,) + (h.block_size,) * ndim
    residuals = residuals.reshape(bshape)
    choose_reg = np.unpackbits(
        np.frombuffer(zlib_decompress(h.selectors), dtype=np.uint8)
    )[:nb].astype(bool)
    blocks = np.empty(bshape, dtype=np.float64)
    n_reg = int(choose_reg.sum())
    if n_reg:
        coef = np.frombuffer(zlib_decompress(h.coeffs), dtype="<f4")
        coef = coef.reshape(n_reg, 1 + ndim)
        pred = predict_blocks(coef, bshape[1:])
        blocks[choose_reg] = pred + lattice_dequantize(
            residuals[choose_reg], h.eps
        )
    if n_reg < nb:
        lor = _block_lorenzo_inverse(residuals[~choose_reg])
        blocks[~choose_reg] = lattice_dequantize(lor, h.eps)
    out = _merge_blocks(blocks, h.padded, h.shape)
    return out.astype(_DTYPES[h.dtype_tag])


def sz_compress(data: np.ndarray, eps: float | None = None, *,
                rel_eps: float | None = None, mode: str = "auto",
                block_size: int = 8) -> bytes:
    """One-call SZ compression; see :class:`SZCompressor`."""
    return SZCompressor(eps=eps, rel_eps=rel_eps, mode=mode,
                        block_size=block_size).compress(data)


def sz_decompress(blob: bytes) -> np.ndarray:
    """One-call SZ decompression."""
    return SZCompressor.decompress(blob)
