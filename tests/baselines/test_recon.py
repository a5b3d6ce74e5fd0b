"""The encoders' own reconstruction against a decode of their payload.

``sz_compress_recon`` and ``zfp_compress_recon`` return the payload
together with the array it decodes to, built from what the encoder
already holds.  ``codec="auto"`` trusts that array in place of a
decode, so it must equal ``decompress(payload)`` bit for bit -- dtype,
shape and every value -- and the payload must be what plain
``compress`` writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import zfp
from repro.baselines.sz import (
    MODES,
    SZCompressor,
    sz_compress,
    sz_compress_recon,
    sz_decompress,
)
from repro.baselines.zfp import (
    INTPREC,
    zfp_compress,
    zfp_compress_recon,
    zfp_decompress,
)
from repro.codecs.container import unpack_sections

SHAPES = [(13,), (7, 9), (5, 6, 11), (3, 5, 4, 9)]


def _field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    for ax in range(len(shape)):
        data = np.cumsum(data, axis=ax)
    return (data + 0.1 * rng.normal(size=shape)).astype(dtype)


def _assert_bit_identical(recon, decoded):
    assert recon.dtype == decoded.dtype
    assert recon.shape == decoded.shape
    assert recon.tobytes() == decoded.tobytes()


def _check_sz(data, **kw):
    payload, recon = sz_compress_recon(data, **kw)
    assert payload == sz_compress(data, **kw)
    _assert_bit_identical(recon, sz_decompress(payload))


def _check_zfp(data, **kw):
    payload, recon = zfp_compress_recon(data, **kw)
    assert payload == zfp_compress(data, **kw)
    _assert_bit_identical(recon, zfp_decompress(payload))
    return payload


class TestSZ:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_matches_decode(self, mode, dtype, shape, eps):
        _check_sz(_field(shape, dtype), eps=eps, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_escapes(self, mode):
        """A tiny bound puts residuals past the Huffman alphabet, so
        they travel in the escape side stream."""
        data = np.random.default_rng(1).normal(size=(9, 10))
        assert np.abs(np.diff(np.rint(data / 2e-9))).max() > 2 ** 16
        _check_sz(data, eps=1e-9, mode=mode)

    def test_escapes_small_alphabet(self):
        data = _field((6, 7, 5), "f4")
        codec = SZCompressor(eps=1e-3, alphabet=4)
        payload, recon = codec.compress_recon(data)
        _assert_bit_identical(recon, sz_decompress(payload))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    def test_constant_chunk(self, mode, dtype):
        _check_sz(np.full((10, 6), 3.25, dtype=dtype), eps=1e-3, mode=mode)
        _check_sz(np.zeros((4, 4, 4), dtype=dtype), rel_eps=1e-4, mode=mode)

    def test_range_relative_bound(self):
        _check_sz(_field((12, 10), "f4"), rel_eps=1e-4)


class TestZFP:
    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    @pytest.mark.parametrize("shape", SHAPES[:3], ids=str)
    @pytest.mark.parametrize("mode", [
        {"tolerance": 1e-1}, {"tolerance": 1e-4}, {"precision": 1},
        {"precision": 16}, {"precision": INTPREC}, {"rate": 8.0}])
    def test_matches_decode(self, dtype, shape, mode):
        _check_zfp(_field(shape, dtype), **mode)

    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    @pytest.mark.parametrize("mode", [{"tolerance": 1e-3},
                                      {"precision": 20}])
    def test_all_zero_blocks(self, dtype, mode):
        data = _field((12, 9), dtype)
        data[:4] = 0.0  # the first row of blocks is all zero
        _check_zfp(data, **mode)
        _check_zfp(np.zeros((8, 8), dtype=dtype), **mode)

    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    def test_kmin_clipped_at_both_ends(self, dtype):
        """A bound far below the values clips every live block's
        lowest plane at 0; a bound far above a block's values makes it
        a zero block whose lowest plane clips at ``INTPREC``."""
        data = 1e3 * _field((8, 12), dtype)
        data[:, :4] = 1e-9 * _field((8, 4), dtype)
        for tol, end in ((1e-12, 0), (1e6, INTPREC)):
            payload = _check_zfp(data, tolerance=tol)
            hdr = zfp._read_header(unpack_sections(payload, b"ZFR1", 1))
            assert end in hdr.kmin.tolist()
