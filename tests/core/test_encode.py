"""Tests for the stage-1b transform registry and pre-PCA truncation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encode import (
    TRANSFORMS,
    forward_transform,
    inverse_transform,
    truncate_coefficients,
)
from repro.errors import ConfigError
from repro.transforms.dct import dct1d


class TestTransformRegistry:
    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_roundtrip(self, transform, rng):
        blocks = rng.normal(size=(12, 96))
        coeffs = forward_transform(blocks, transform)
        out = inverse_transform(coeffs, transform)
        np.testing.assert_allclose(out, blocks, atol=1e-9)

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_shape_preserved(self, transform, rng):
        blocks = rng.normal(size=(5, 64))
        assert forward_transform(blocks, transform).shape == (5, 64)

    def test_dct_matches_rowwise_dct1d(self, rng):
        blocks = rng.normal(size=(10, 64))
        np.testing.assert_allclose(forward_transform(blocks, "dct"),
                                   dct1d(blocks, axis=1), atol=1e-12)

    def test_identity_is_identity(self, rng):
        blocks = rng.normal(size=(3, 32))
        np.testing.assert_array_equal(
            forward_transform(blocks, "identity"), blocks
        )

    def test_odd_lengths_roundtrip(self, rng):
        blocks = rng.normal(size=(4, 97))
        for transform in TRANSFORMS:
            out = inverse_transform(
                forward_transform(blocks, transform), transform
            )
            np.testing.assert_allclose(out, blocks, atol=1e-9)

    def test_unknown_transform_rejected(self, rng):
        with pytest.raises(ConfigError):
            forward_transform(rng.normal(size=(2, 8)), "dft")
        with pytest.raises(ConfigError):
            inverse_transform(rng.normal(size=(2, 8)), "dft")

    def test_parallel_matches_serial(self, rng):
        blocks = rng.normal(size=(300, 64))
        for transform in ("dct", "haar"):
            a = forward_transform(blocks, transform, n_jobs=1)
            b = forward_transform(blocks, transform, n_jobs=4)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dct_and_haar_preserve_energy(self, rng):
        blocks = rng.normal(size=(6, 128))
        for transform in ("dct", "haar"):
            coeffs = forward_transform(blocks, transform)
            assert np.isclose(np.linalg.norm(coeffs),
                              np.linalg.norm(blocks))


class TestTruncation:
    def test_noop_at_zero(self, rng):
        coeffs = rng.normal(size=(4, 16))
        out, zeroed = truncate_coefficients(coeffs, 0.0)
        assert zeroed == 0.0
        np.testing.assert_array_equal(out, coeffs)

    def test_zeroes_small_coefficients(self):
        coeffs = np.array([[100.0, 1.0, 0.001, -50.0]])
        out, zeroed = truncate_coefficients(coeffs, 1e-2)
        np.testing.assert_array_equal(out, [[100.0, 1.0, 0.0, -50.0]])
        assert np.isclose(zeroed, 0.25)

    def test_all_zero_input(self):
        out, zeroed = truncate_coefficients(np.zeros((2, 3)), 0.5)
        assert zeroed == 0.0

    def test_threshold_one_rejected(self, rng):
        with pytest.raises(ConfigError):
            truncate_coefficients(rng.normal(size=(2, 2)), 1.0)

    def test_energy_loss_bounded(self, rng):
        coeffs = rng.normal(size=(10, 100))
        out, _ = truncate_coefficients(coeffs, 1e-3)
        lost = np.sum((coeffs - out) ** 2) / np.sum(coeffs ** 2)
        assert lost < 1e-4


class TestCompressorIntegration:
    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_end_to_end_roundtrip(self, transform, smooth_2d):
        from dataclasses import replace

        import repro
        from repro.analysis.metrics import psnr

        cfg = replace(repro.DPZ_S.with_tve_nines(5), transform=transform)
        blob = repro.DPZCompressor(cfg).compress(smooth_2d)
        recon = repro.DPZCompressor.decompress(blob)
        assert recon.shape == smooth_2d.shape
        assert psnr(smooth_2d, recon) > 40.0

    def test_truncation_roundtrip(self, smooth_2d):
        from dataclasses import replace

        import repro
        from repro.analysis.metrics import psnr

        cfg = replace(repro.DPZ_L.with_tve_nines(4), dct_truncate=1e-5)
        blob, st = repro.DPZCompressor(cfg).compress_with_stats(smooth_2d)
        assert 0.0 <= st.truncated_fraction < 1.0
        recon = repro.DPZCompressor.decompress(blob)
        assert psnr(smooth_2d, recon) > 35.0

    def test_invalid_config_values(self):
        from dataclasses import replace

        import repro

        with pytest.raises(ConfigError):
            replace(repro.DPZ_L, transform="dft")
        with pytest.raises(ConfigError):
            replace(repro.DPZ_L, dct_truncate=1.5)
