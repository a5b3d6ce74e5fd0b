"""Tests for the multi-field archive layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import max_abs_error, psnr
from repro.archive import FieldArchive
from repro.codecs.registry import codec_ids
from repro.errors import ConfigError, FormatError


@pytest.fixture
def fields(rng, smooth_2d, rough_1d):
    return {"smooth": smooth_2d, "rough": rough_1d}


class TestBuildAndRead:
    def test_roundtrip_mixed_codecs(self, fields):
        ar = FieldArchive()
        ar.add("smooth", fields["smooth"], codec="dpz", scheme="s",
               tve_nines=6)
        ar.add("rough", fields["rough"], codec="sz", rel_eps=1e-4)
        restored = FieldArchive.from_bytes(ar.to_bytes())
        assert restored.names() == ["smooth", "rough"]
        assert psnr(fields["smooth"], restored.get("smooth")) > 50.0
        bound = 1e-4 * float(fields["rough"].max() - fields["rough"].min())
        assert max_abs_error(fields["rough"],
                             restored.get("rough")) <= bound * (1 + 1e-5)

    def test_raw_codec_lossless(self, smooth_2d):
        ar = FieldArchive()
        ar.add("exact", smooth_2d, codec="raw")
        out = FieldArchive.from_bytes(ar.to_bytes()).get("exact")
        np.testing.assert_array_equal(out, smooth_2d)
        assert out.dtype == smooth_2d.dtype

    def test_all_codecs_roundtrip(self, tiny_3d):
        kwargs = {
            "dpz": {"scheme": "s", "tve_nines": 6},
            "sz": {"eps": 1e-4},
            "zfp": {"rate": 12.0},
            "mgard": {"eps": 1e-4},
            "dctz": {"p": 1e-4, "index_bytes": 2},
            "tucker": {"target": 0.99999},
            "raw": {},
            "delta": {},
            "scale-offset": {"eps": 1e-4},
        }
        ar = FieldArchive()
        for codec in codec_ids():
            ar.add(f"f_{codec}", tiny_3d, codec=codec, **kwargs[codec])
        restored = FieldArchive.from_bytes(ar.to_bytes())
        for codec in codec_ids():
            out = restored.get(f"f_{codec}")
            assert out.shape == tiny_3d.shape
            assert psnr(tiny_3d, out) > 35.0 or codec == "raw"

    def test_duplicate_field_rejected(self, smooth_2d):
        ar = FieldArchive()
        ar.add("x", smooth_2d, codec="raw")
        with pytest.raises(ConfigError, match="already exists"):
            ar.add("x", smooth_2d * 2, codec="raw")
        # The original entry is untouched by the failed add.
        assert ar.names() == ["x"]
        np.testing.assert_array_equal(ar.get("x"), smooth_2d)

    def test_info_and_total_cr(self, smooth_2d):
        ar = FieldArchive()
        ar.add("a", smooth_2d, codec="dpz")
        info = ar.info("a")
        assert info["codec"] == "dpz"
        assert info["cr"] > 1.0
        assert ar.total_cr() > 1.0

    def test_file_roundtrip(self, tmp_path, smooth_2d):
        ar = FieldArchive()
        ar.add("f", smooth_2d, codec="dpz", scheme="l", tve_nines=4)
        path = tmp_path / "bundle.dpza"
        ar.save(path)
        out = FieldArchive.load(path).get("f")
        assert out.shape == smooth_2d.shape


class TestValidation:
    def test_unknown_codec_rejected(self, smooth_2d):
        with pytest.raises(ConfigError):
            FieldArchive().add("x", smooth_2d, codec="gzip9000")

    def test_bad_name_rejected(self, smooth_2d):
        with pytest.raises(ConfigError):
            FieldArchive().add("", smooth_2d)
        with pytest.raises(ConfigError):
            FieldArchive().add("a\x00b", smooth_2d)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            FieldArchive().get("nope")

    def test_empty_array_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            FieldArchive().add("x", np.empty((0, 4), dtype=np.float32),
                               codec="raw")
        with pytest.raises(ConfigError, match="empty"):
            FieldArchive().add("y", np.array([], dtype=np.float64))

    def test_corrupt_archive_rejected(self, smooth_2d):
        ar = FieldArchive()
        ar.add("x", smooth_2d, codec="raw")
        blob = ar.to_bytes()
        with pytest.raises(FormatError):
            FieldArchive.from_bytes(b"NOPE" + blob[4:])
        with pytest.raises(FormatError):
            FieldArchive.from_bytes(blob[: len(blob) // 2])
