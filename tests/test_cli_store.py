"""CLI tests for the chunked-store subcommands (dpz store ...)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.io import load_field, save_field


@pytest.fixture
def field_file(tmp_path, tiny_3d):
    path = tmp_path / "field.npy"
    save_field(path, tiny_3d)
    return path


def test_pack_list_get_cycle(tmp_path, field_file, tiny_3d, capsys):
    out = tmp_path / "s.dpzs"
    assert main(["store", "pack", str(out), f"f={field_file}",
                 "--codec", "raw", "--chunk", "8"]) == 0
    assert "packed 1 fields" in capsys.readouterr().out

    assert main(["store", "list", str(out)]) == 0
    listing = capsys.readouterr().out
    assert "f" in listing and "raw" in listing and "total CR" in listing

    back = tmp_path / "back.npy"
    assert main(["store", "get", str(out), "f", str(back)]) == 0
    np.testing.assert_array_equal(load_field(back), tiny_3d)


def test_region_read(tmp_path, field_file, tiny_3d, capsys):
    out = tmp_path / "s.dpzs"
    main(["store", "pack", str(out), f"f={field_file}",
          "--codec", "raw", "--chunk", "8", "8", "8"])
    capsys.readouterr()
    back = tmp_path / "sub.npy"
    assert main(["store", "region", str(out), "f", "0:8,4:12,3",
                 str(back)]) == 0
    sub = load_field(back)
    np.testing.assert_array_equal(sub, tiny_3d[0:8, 4:12, 3])


def test_pack_auto_with_budget(tmp_path, field_file, capsys):
    out = tmp_path / "s.dpzs"
    assert main(["store", "pack", str(out), f"f={field_file}",
                 "--codec", "auto", "--budget", "1e-3",
                 "--chunk", "8"]) == 0
    capsys.readouterr()
    assert main(["store", "list", str(out)]) == 0
    assert "auto" in capsys.readouterr().out


def test_pack_sz_codec(tmp_path, field_file):
    out = tmp_path / "s.dpzs"
    assert main(["store", "pack", str(out), f"f={field_file}",
                 "--codec", "sz", "--rel-eps", "1e-3",
                 "--chunk", "8", "--jobs", "2"]) == 0
    assert out.stat().st_size > 0


def test_from_archive(tmp_path, field_file, tiny_3d, capsys):
    archive = tmp_path / "x.dpza"
    assert main(["pack", str(archive), f"f={field_file}",
                 "--codec", "raw"]) == 0
    capsys.readouterr()
    out = tmp_path / "x.dpzs"
    assert main(["store", "from-archive", str(archive), str(out),
                 "--chunk", "8"]) == 0
    assert "re-packed 1 fields" in capsys.readouterr().out
    back = tmp_path / "back.npy"
    main(["store", "get", str(out), "f", str(back)])
    np.testing.assert_array_equal(load_field(back), tiny_3d)


def test_failed_pack_leaves_no_output(tmp_path, field_file, capsys):
    """Every input loads before the store is created."""
    out = tmp_path / "s.dpzs"
    assert main(["store", "pack", str(out), f"f={field_file}",
                 f"g={tmp_path / 'nope.npy'}"]) == 2
    assert "nope.npy" in capsys.readouterr().err
    assert not out.exists()


def test_auto_without_budget_leaves_no_output(tmp_path, field_file, capsys):
    """The codec options are checked before the store is created."""
    out = tmp_path / "s.dpzs"
    assert main(["store", "pack", str(out), f"f={field_file}",
                 "--codec", "auto"]) == 2
    assert "error_budget" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_codec_leaves_no_output(tmp_path, field_file, capsys):
    out = tmp_path / "s.dpzs"
    assert main(["store", "pack", str(out), f"f={field_file}",
                 "--codec", "nosuch"]) == 2
    assert "unknown codec" in capsys.readouterr().err
    assert not out.exists()


def test_errors_are_one_line_exit_2(tmp_path, field_file, capsys):
    out = tmp_path / "s.dpzs"
    # auto without a budget
    assert main(["store", "pack", str(out), f"f={field_file}",
                 "--codec", "auto"]) == 2
    assert "error_budget" in capsys.readouterr().err
    # malformed field spec
    assert main(["store", "pack", str(out), str(field_file)]) == 2
    assert "NAME=FILE" in capsys.readouterr().err
    # bad region selector
    main(["store", "pack", str(out), f"f={field_file}", "--codec",
          "raw", "--chunk", "8"])
    capsys.readouterr()
    assert main(["store", "region", str(out), "f", "0:8:2,0,0",
                 str(tmp_path / "x.npy")]) == 2
    assert "selector" in capsys.readouterr().err
    # missing field
    assert main(["store", "get", str(out), "nope",
                 str(tmp_path / "x.npy")]) == 2
    assert "no field" in capsys.readouterr().err
