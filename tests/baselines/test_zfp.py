"""Tests for the ZFP-style transform coder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import max_abs_error, psnr
from repro.baselines.zfp import (
    EBITS,
    ZFPCompressor,
    zfp_compress,
    zfp_compress_recon,
    zfp_decompress,
)
from repro.errors import ConfigError, DataShapeError


class TestFixedRate:
    def test_container_size_tracks_rate(self, smooth_2d):
        blob8 = zfp_compress(smooth_2d, rate=8)
        blob16 = zfp_compress(smooth_2d, rate=16)
        payload8 = len(blob8)
        payload16 = len(blob16)
        # 16 bits/value is ~2x the 8 bits/value payload (+ small header).
        assert 1.7 < payload16 / payload8 < 2.3

    def test_rate_yields_expected_cr(self, smooth_2d):
        blob = zfp_compress(smooth_2d, rate=8)
        cr = smooth_2d.nbytes / len(blob)
        assert 3.0 < cr <= 4.2  # 32/8 = 4x minus header overhead

    def test_higher_rate_higher_psnr(self, smooth_2d):
        p = [psnr(smooth_2d, zfp_decompress(zfp_compress(smooth_2d, rate=r)))
             for r in (2, 4, 8, 16)]
        assert p == sorted(p)

    def test_quality_at_high_rate(self, smooth_2d):
        recon = zfp_decompress(zfp_compress(smooth_2d, rate=16))
        assert psnr(smooth_2d, recon) > 60.0

    def test_1d_and_3d(self, rough_1d, tiny_3d):
        r1 = zfp_decompress(zfp_compress(rough_1d, rate=8))
        assert r1.shape == rough_1d.shape
        r3 = zfp_decompress(zfp_compress(tiny_3d, rate=4))
        assert psnr(tiny_3d, r3) > 30.0

    def test_rate_too_small_for_header_rejected(self, rough_1d):
        with pytest.raises(ConfigError):
            zfp_compress(rough_1d, rate=1.0)  # 1-D: needs > 13/4 bits


class TestFixedPrecision:
    def test_more_precision_more_accurate(self, smooth_2d):
        p = [psnr(smooth_2d,
                  zfp_decompress(zfp_compress(smooth_2d, precision=pr)))
             for pr in (8, 16, 32)]
        assert p == sorted(p)

    def test_full_precision_near_lossless(self, smooth_2d):
        recon = zfp_decompress(zfp_compress(smooth_2d, precision=50))
        assert psnr(smooth_2d, recon) > 100.0


class TestFixedAccuracy:
    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_tolerance_respected(self, smooth_2d, tol):
        recon = zfp_decompress(zfp_compress(smooth_2d, tolerance=tol))
        assert max_abs_error(smooth_2d, recon) <= tol

    def test_tolerance_respected_3d(self, tiny_3d):
        tol = 1e-3
        recon = zfp_decompress(zfp_compress(tiny_3d, tolerance=tol))
        assert max_abs_error(tiny_3d, recon) <= tol

    def test_tiny_magnitude_blocks(self, rng):
        """Blocks near the bottom of the float64 range (max exponent
        below -980) scale to fixed point without overflowing."""
        data = rng.normal(size=(8, 8)) * 1e-300
        tol = 1e-310
        blob = zfp_compress(data, tolerance=tol)
        assert max_abs_error(data, zfp_decompress(blob)) <= tol
        payload, recon = zfp_compress_recon(data, tolerance=tol)
        assert payload == blob
        assert max_abs_error(data, recon) <= tol

    def test_looser_tolerance_smaller_output(self, smooth_2d):
        tight = len(zfp_compress(smooth_2d, tolerance=1e-5))
        loose = len(zfp_compress(smooth_2d, tolerance=1e-1))
        assert loose < tight

    def test_zero_blocks_cheap(self):
        data = np.zeros((32, 32), dtype=np.float32)
        blob = zfp_compress(data, tolerance=1e-3)
        assert len(blob) < 200
        np.testing.assert_array_equal(zfp_decompress(blob), data)


class TestGeneral:
    def test_mode_property(self):
        assert ZFPCompressor(rate=8).mode == "rate"
        assert ZFPCompressor(precision=10).mode == "precision"
        assert ZFPCompressor(tolerance=1e-3).mode == "accuracy"

    def test_exactly_one_mode_required(self):
        with pytest.raises(ConfigError):
            ZFPCompressor()
        with pytest.raises(ConfigError):
            ZFPCompressor(rate=8, precision=10)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            ZFPCompressor(rate=-1)
        with pytest.raises(ConfigError):
            ZFPCompressor(precision=0)
        with pytest.raises(ConfigError):
            ZFPCompressor(tolerance=0.0)

    def test_non_multiple_of_four_shapes(self, rng):
        data = rng.normal(size=(13, 19)).astype(np.float32)
        recon = zfp_decompress(zfp_compress(data, rate=12))
        assert recon.shape == data.shape
        assert psnr(data, recon) > 35.0

    def test_float64_roundtrip(self, rng):
        data = rng.normal(size=(16, 16))
        recon = zfp_decompress(zfp_compress(data, tolerance=1e-6))
        assert recon.dtype == np.float64
        assert max_abs_error(data, recon) <= 1e-6

    def test_4d_rejected(self):
        with pytest.raises(DataShapeError):
            zfp_compress(np.zeros((4, 4, 4, 4), dtype=np.float32), rate=8)

    def test_empty_rejected(self):
        with pytest.raises(DataShapeError):
            zfp_compress(np.zeros(0, dtype=np.float32), rate=8)

    def test_large_dynamic_range(self):
        """Block-floating-point must handle per-block scale differences."""
        data = np.ones((8, 8), dtype=np.float32)
        data[:4, :4] *= 1e6
        data[4:, 4:] *= 1e-6
        recon = zfp_decompress(zfp_compress(data, precision=40))
        assert np.allclose(recon, data, rtol=1e-6)

    def test_ebits_covers_double_exponents(self):
        assert (1 << EBITS) > 2 * 1100
