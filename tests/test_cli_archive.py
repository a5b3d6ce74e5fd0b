"""CLI tests for the archive subcommands (pack / unpack / list) and
the bench subcommand."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.io import load_field, save_field


@pytest.fixture
def two_fields(tmp_path, smooth_2d, rough_1d):
    a = tmp_path / "a.npy"
    b = tmp_path / "b.npy"
    save_field(a, smooth_2d)
    save_field(b, rough_1d)
    return a, b


def test_pack_list_unpack_cycle(tmp_path, two_fields, smooth_2d, capsys):
    a, b = two_fields
    out = tmp_path / "bundle.dpza"
    assert main(["pack", str(out), f"smooth={a}", f"rough={b}",
                 "--codec", "dpz", "--scheme", "s", "--nines", "5"]) == 0
    assert out.exists()
    capsys.readouterr()

    assert main(["list", str(out)]) == 0
    listing = capsys.readouterr().out
    assert "smooth" in listing and "rough" in listing and "total CR" in \
        listing

    back = tmp_path / "smooth_back.npy"
    assert main(["unpack", str(out), "smooth", str(back)]) == 0
    recon = load_field(back)
    assert recon.shape == smooth_2d.shape


def test_pack_sz_codec(tmp_path, two_fields):
    a, _ = two_fields
    out = tmp_path / "sz.dpza"
    assert main(["pack", str(out), f"f={a}", "--codec", "sz",
                 "--rel-eps", "1e-3"]) == 0
    assert out.stat().st_size > 0


def test_pack_raw_codec_lossless(tmp_path, two_fields, smooth_2d):
    a, _ = two_fields
    out = tmp_path / "raw.dpza"
    back = tmp_path / "back.npy"
    main(["pack", str(out), f"f={a}", "--codec", "raw"])
    main(["unpack", str(out), "f", str(back)])
    np.testing.assert_array_equal(load_field(back), smooth_2d)


def test_pack_bad_spec_rejected(tmp_path, two_fields, capsys):
    a, _ = two_fields
    assert main(["pack", str(tmp_path / "x.dpza"), str(a)]) == 2
    assert "NAME=FILE" in capsys.readouterr().err
    assert not (tmp_path / "x.dpza").exists()


def test_bench_subcommand(capsys):
    assert main(["bench", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Isotropic" in out
