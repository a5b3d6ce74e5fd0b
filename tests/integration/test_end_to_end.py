"""Cross-module integration tests: the full pipelines on real(istic)
synthetic datasets, including the paper's qualitative claims."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.analysis.metrics import max_abs_error, psnr
from repro.core.compressor import DPZCompressor
from repro.core.config import DPZ_L
from repro.datasets.registry import get_dataset


class TestDPZOnDatasetSuite:
    @pytest.mark.parametrize("name", ["FLDSC", "CLDHGH", "Isotropic",
                                      "HACC-x"])
    def test_roundtrip_quality(self, name):
        data = get_dataset(name, "small")
        blob = repro.dpz_compress(data, scheme="s", tve_nines=5)
        recon = repro.dpz_decompress(blob)
        assert psnr(data, recon) > 45.0
        assert data.nbytes / len(blob) > 1.0

    @pytest.mark.parametrize("name, recorded", [
        ("Isotropic", 14.2028), ("FLDSC", 203.033), ("HACC-x", 49.6955)])
    def test_dpz_l_ratio_holds_recorded_value(self, name, recorded):
        """DPZ-L's ratio on one field per dataset family stays within
        2% of the value recorded for it.  A ratio depends on the bytes,
        not the machine, so a drop is a codec regression."""
        data = get_dataset(name, "small")
        blob = DPZCompressor(DPZ_L).compress(data)
        assert data.nbytes / len(blob) >= 0.98 * recorded

    def test_smooth_fields_beat_baselines_at_medium_accuracy(self):
        """The paper's headline: on smooth 2-D data at medium accuracy
        DPZ's CR exceeds SZ's and ZFP's at comparable PSNR."""
        data = get_dataset("FLDSC", "small")
        dpz_blob = repro.dpz_compress(data, scheme="l", tve_nines=4)
        dpz_psnr = psnr(data, repro.dpz_decompress(dpz_blob))
        dpz_cr = data.nbytes / len(dpz_blob)

        # Configure SZ/ZFP to at-least-comparable PSNR and compare CR.
        sz_blob = repro.sz_compress(data, rel_eps=3e-4)
        sz_psnr = psnr(data, repro.sz_decompress(sz_blob))
        sz_cr = data.nbytes / len(sz_blob)

        zfp_blob = repro.zfp_compress(data, rate=8)
        zfp_psnr = psnr(data, repro.zfp_decompress(zfp_blob))
        zfp_cr = data.nbytes / len(zfp_blob)

        assert dpz_psnr > 45.0
        assert sz_psnr >= dpz_psnr - 15.0  # roughly comparable band
        assert dpz_cr > sz_cr
        assert dpz_cr > zfp_cr

    def test_hacc_vx_is_the_hardest(self):
        """VIF-flagged low-linearity data compresses worst (paper V-C1)."""
        crs = {}
        for name in ("FLDSC", "PHIS", "HACC-vx"):
            data = get_dataset(name, "small")
            blob = repro.dpz_compress(data, scheme="l", tve_nines=5)
            crs[name] = data.nbytes / len(blob)
        assert crs["HACC-vx"] < crs["FLDSC"]
        assert crs["HACC-vx"] < crs["PHIS"]

    def test_probe_flags_match_compression_outcomes(self):
        hard = repro.dpz_probe(get_dataset("HACC-vx", "small"))
        easy = repro.dpz_probe(get_dataset("PHIS", "small"))
        assert hard.low_linearity and not easy.low_linearity
        assert easy.cr_high > hard.cr_high


class TestBaselineContracts:
    @pytest.mark.parametrize("name", ["FLDSC", "Isotropic", "HACC-vx"])
    def test_sz_bound_on_suite(self, name):
        data = get_dataset(name, "small")
        rel = 1e-3
        recon = repro.sz_decompress(repro.sz_compress(data, rel_eps=rel))
        bound = rel * float(data.max() - data.min())
        assert max_abs_error(data, recon) <= bound * (1 + 1e-5)

    def test_zfp_accuracy_on_suite(self):
        data = get_dataset("CLDHGH", "small")
        tol = 1e-3
        recon = repro.zfp_decompress(repro.zfp_compress(data,
                                                        tolerance=tol))
        assert max_abs_error(data, recon) <= tol

    def test_zfp_fixed_rate_size_exact(self):
        data = get_dataset("Isotropic", "small")
        blob = repro.zfp_compress(data, rate=8)
        # Bit budget: 8 bits/value over the padded grid, plus header.
        padded = 64 * 64 * 64
        expected_payload = padded  # 8 bits/value = 1 byte/value
        assert abs(len(blob) - expected_payload) < 0.02 * expected_payload


class TestErrorComposition:
    def test_dpz_error_decomposes_orthogonally(self, rng):
        """DESIGN.md invariant 5: MSE ~ truncation + quantization, since
        the in-between stages are orthonormal."""
        data = get_dataset("FLDSC", "small")
        cfg = replace(repro.DPZ_S.with_tve_nines(4),
                      store_outliers_f64=True)
        blob, st = repro.DPZCompressor(cfg).compress_with_stats(
            data, stage_psnr=True)
        # Quantization can only lower PSNR, and at 4-nines the
        # truncation error dominates the strict quantizer's: small delta.
        assert st.psnr_stage12 >= st.psnr_final - 1e-9
        assert st.delta_psnr < 3.0

    def test_container_psnr_reproducible(self):
        data = get_dataset("CLDHGH", "small")
        blob = repro.dpz_compress(data, scheme="s", tve_nines=5)
        r1 = repro.dpz_decompress(blob)
        r2 = repro.dpz_decompress(blob)
        np.testing.assert_array_equal(r1, r2)
