"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import load_field, save_field


@pytest.fixture
def field_file(tmp_path, smooth_2d):
    path = tmp_path / "field.npy"
    save_field(path, smooth_2d)
    return path


def test_parser_subcommands():
    parser = build_parser()
    for cmd in ("compress", "decompress", "probe", "info", "datasets"):
        args = ["compress", "a", "b"] if cmd == "compress" else \
            {"decompress": ["decompress", "a", "b"],
             "probe": ["probe", "a"],
             "info": ["info", "a"],
             "datasets": ["datasets"]}[cmd]
        assert parser.parse_args(args).command == cmd


def test_compress_decompress_cycle(tmp_path, field_file, smooth_2d, capsys):
    comp = tmp_path / "out.dpz"
    back = tmp_path / "back.npy"
    assert main(["compress", str(field_file), str(comp),
                 "--scheme", "s", "--nines", "5", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "CR" in out and "stage1&2" in out
    assert main(["decompress", str(comp), str(back)]) == 0
    recon = load_field(back)
    assert recon.shape == smooth_2d.shape


def test_compress_raw_f32_with_shape(tmp_path, smooth_2d):
    raw = tmp_path / "f.f32"
    smooth_2d.astype("<f4").tofile(raw)
    comp = tmp_path / "f.dpz"
    h, w = smooth_2d.shape
    assert main(["compress", str(raw), str(comp),
                 "--shape", str(h), str(w)]) == 0
    assert comp.stat().st_size > 0


def test_knee_flag(tmp_path, field_file):
    comp = tmp_path / "k.dpz"
    assert main(["compress", str(field_file), str(comp), "--knee"]) == 0


def test_probe_command(field_file, capsys):
    assert main(["probe", str(field_file), "--nines", "4"]) == 0
    out = capsys.readouterr().out
    assert "estimated k" in out and "preliminary CR" in out


def test_info_command(tmp_path, field_file, capsys):
    comp = tmp_path / "x.dpz"
    main(["compress", str(field_file), str(comp)])
    capsys.readouterr()
    assert main(["info", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "components" in out and "quantizer" in out


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "Isotropic" in out and "HACC-vx" in out


def test_sampling_flag(tmp_path, field_file):
    comp = tmp_path / "s.dpz"
    assert main(["compress", str(field_file), str(comp),
                 "--sampling", "--nines", "4"]) == 0


def test_trace_command_to_file(tmp_path, field_file, capsys):
    import json

    out = tmp_path / "trace.ndjson"
    assert main(["trace", str(field_file), "--out", str(out),
                 "--no-runlog"]) == 0
    printed = capsys.readouterr().out
    assert "spans ->" in printed and "dpz.pca" in printed
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["event"] == "meta"
    assert lines[0]["dataset"] == str(field_file)
    names = {rec["name"] for rec in lines if rec["event"] == "span"}
    # Both directions of the pipeline appear in one trace.
    assert "dpz.pca" in names and "dpz.serialize" in names
    assert "dpz.deserialize" in names and "dpz.reassemble" in names


def test_trace_command_registry_dataset_stdout(capsys):
    import json

    assert main(["trace", "CLDLOW", "--size", "small",
                 "--no-runlog"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    meta = lines[0]
    assert meta["event"] == "meta" and meta["dataset"] == "CLDLOW"
    assert meta["cr"] > 1.0
    assert any(rec["event"] == "span" for rec in lines)


def test_trace_command_parser():
    parser = build_parser()
    args = parser.parse_args(["trace", "Isotropic", "--scheme", "s",
                              "--nines", "5", "--out", "t.ndjson"])
    assert args.command == "trace" and args.scheme == "s"


def test_trace_unknown_input_one_line_error(capsys):
    assert main(["trace", "no_such_dataset_or_file"]) == 2
    captured = capsys.readouterr()
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1
    assert "no_such_dataset_or_file" in err_lines[0]
    assert "Traceback" not in captured.err


#: argv per command (``{d}`` is a scratch dir) and the missing file.
_MISSING_INPUT = {
    "compress": (["compress", "{d}/nope.npy", "{d}/o.dpz"], "nope.npy"),
    "probe": (["probe", "{d}/nope.npy"], "nope.npy"),
    "decompress": (["decompress", "{d}/nope.dpz", "{d}/o.npy"],
                   "nope.dpz"),
    "info": (["info", "{d}/nope.dpz"], "nope.dpz"),
    "list": (["list", "{d}/nope.dpza"], "nope.dpza"),
    "unpack": (["unpack", "{d}/nope.dpza", "f", "{d}/o.npy"],
               "nope.dpza"),
    "pack": (["pack", "{d}/o.dpza", "a={d}/nope.npy"], "nope.npy"),
    "store-pack": (["store", "pack", "{d}/o.dpzs", "a={d}/nope.npy"],
                   "nope.npy"),
    "store-from-archive": (["store", "from-archive", "{d}/nope.dpza",
                            "{d}/o.dpzs"], "nope.dpza"),
}


@pytest.mark.parametrize("command", list(_MISSING_INPUT))
def test_missing_input_one_line_error(tmp_path, command, capsys):
    template, missing = _MISSING_INPUT[command]
    assert main([arg.format(d=tmp_path) for arg in template]) == 2
    captured = capsys.readouterr()
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1
    assert missing in err_lines[0]
    assert "Traceback" not in captured.err


def test_trace_without_input_or_diff_errors(capsys):
    assert main(["trace"]) == 2
    assert "error" in capsys.readouterr().err


def test_trace_flamegraph_and_runlog(tmp_path, field_file, capsys):
    out = tmp_path / "t.ndjson"
    fg = tmp_path / "t.html"
    runlog = tmp_path / "runs.ndjson"
    assert main(["trace", str(field_file), "--out", str(out),
                 "--flamegraph", str(fg), "--runlog", str(runlog)]) == 0
    printed = capsys.readouterr().out
    assert "flamegraph" in printed and "run " in printed
    html = fg.read_text()
    assert html.startswith("<!DOCTYPE html>") and "var DATA =" in html
    import json
    records = [json.loads(line)
               for line in runlog.read_text().splitlines()]
    assert len(records) == 1 and records[0]["record"] == "dpz-run"
    # Quality telemetry is on during traced CLI runs.
    assert records[0]["quality"]["psnr_db"] > 0
    assert "metrics" in records[0]


def test_trace_diff_mode(tmp_path, field_file, capsys):
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    for path in (a, b):
        assert main(["trace", str(field_file), "--out", str(path),
                     "--no-runlog"]) == 0
    capsys.readouterr()
    assert main(["trace", "--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "dpz.pca" in out and "total" in out


def test_trace_diff_bad_file_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"event": "nope"}\n')
    assert main(["trace", "--diff", str(bad), str(bad)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "error" in captured.err


def test_runs_cli_cycle(tmp_path, field_file, capsys):
    runlog = tmp_path / "runs.ndjson"
    for nines in ("4", "5"):
        assert main(["trace", str(field_file), "--nines", nines,
                     "--out", str(tmp_path / f"t{nines}.ndjson"),
                     "--runlog", str(runlog)]) == 0
    capsys.readouterr()

    assert main(["runs", "list", "--file", str(runlog)]) == 0
    listing = capsys.readouterr().out
    assert listing.count("\n") >= 2 and "run_id" in listing

    assert main(["runs", "show", "0", "--file", str(runlog)]) == 0
    import json
    shown = json.loads(capsys.readouterr().out)
    assert shown["record"] == "dpz-run"

    assert main(["runs", "diff", "0", "1", "--file", str(runlog)]) == 0
    diff = capsys.readouterr().out
    assert "config differs" in diff and "cr" in diff


def test_runs_missing_registry_one_line_error(tmp_path, capsys):
    assert main(["runs", "list", "--file",
                 str(tmp_path / "absent.ndjson")]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "no run registry" in captured.err


def test_runs_unknown_key_one_line_error(tmp_path, field_file, capsys):
    runlog = tmp_path / "runs.ndjson"
    assert main(["trace", str(field_file), "--out",
                 str(tmp_path / "t.ndjson"),
                 "--runlog", str(runlog)]) == 0
    capsys.readouterr()
    assert main(["runs", "show", "zzzz", "--file", str(runlog)]) == 2
    assert "no run matches" in capsys.readouterr().err


def _write_runlog(path, run_ids):
    import json

    with open(path, "w") as fh:
        for i, rid in enumerate(run_ids):
            fh.write(json.dumps({
                "record": "dpz-run", "version": 1, "run_id": rid,
                "time_utc": f"2026-01-0{i + 1}T00:00:00Z",
                "dataset": "t", "shape": [4, 4], "dtype": "float32",
                "config_digest": "d", "config": {"p": 1e-3},
                "original_nbytes": 64, "compressed_nbytes": 16,
                "cr": 4.0, "wall_s": 0.1, "metrics": {},
            }) + "\n")


def test_runs_unknown_key_lists_nearest_ids(tmp_path, capsys):
    runlog = tmp_path / "runs.ndjson"
    _write_runlog(runlog, ["abc111222333", "def444555666"])
    assert main(["runs", "show", "abd1", "--file", str(runlog)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "no run matches" in err
    assert "nearest:" in err and "abc111222333" in err


def test_runs_ambiguous_prefix_lists_matching_ids(tmp_path, capsys):
    runlog = tmp_path / "runs.ndjson"
    _write_runlog(runlog, ["abc111222333", "abc999888777"])
    assert main(["runs", "diff", "abc", "0", "--file", str(runlog)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "ambiguous" in err
    assert "abc111222333" in err and "abc999888777" in err


def test_top_once_renders_panels(capsys):
    assert main(["top", "--once"]) == 0
    out = capsys.readouterr().out
    for panel in ("dpz top", "throughput", "cache", "latency", "pool"):
        assert panel in out
    assert "\x1b[" not in out  # --once never clears the screen


def _free_port() -> int:
    """A port that was just free: bind a telemetry app, then close it."""
    from repro.serve import BackgroundServer, ServeApp, StoreRegistry

    app = ServeApp(StoreRegistry([], cache_bytes=0), port=0)
    BackgroundServer(app).start().close()
    return app.port


def test_top_polls_a_telemetry_endpoint(capsys):
    from repro.observability import get_registry
    from repro.serve import BackgroundServer, ServeApp, StoreRegistry

    get_registry().clear()
    get_registry().counter("store.chunks.compressed").add(42)
    app = ServeApp(StoreRegistry([], cache_bytes=0), port=0)
    with BackgroundServer(app):
        assert main(["top", "--once", "--url", app.url]) == 0
    out = capsys.readouterr().out
    assert "chunks compressed" in out and "42" in out
    get_registry().clear()


def test_top_iterations_refresh_with_rates(capsys):
    assert main(["top", "--iterations", "2", "--interval", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "\x1b[H" in out  # looped frames repaint the screen
    assert "frame 2" in out


def test_top_unreachable_url_one_line_error(capsys):
    assert main(["top", "--once", "--url",
                 "http://127.0.0.1:1/"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot fetch" in err


def test_top_listen_serves_while_rendering(capsys):
    import urllib.request

    # Occupying a known free port first proves --listen binds its own.
    port = _free_port()
    assert main(["top", "--once", "--listen", str(port)]) == 0
    # The dashboard server is closed again on exit.
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                               timeout=0.5)


def test_trace_profile_writes_sampled_flamegraph(tmp_path, field_file,
                                                 capsys):
    prof = tmp_path / "prof.html"
    assert main(["trace", str(field_file),
                 "--out", str(tmp_path / "t.ndjson"),
                 "--no-runlog",
                 "--profile", str(prof),
                 "--profile-interval", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "profile (" in out and "samples" in out
    assert prof.stat().st_size > 0
    assert "<html" in prof.read_text()[:200].lower() or \
        "<!doctype" in prof.read_text()[:200].lower()


def test_metrics_port_env_serves_any_command(monkeypatch, capsys):
    import urllib.request

    # Grabbing the URL from stderr mid-command is racy, so use a fixed
    # ephemeral-range port that the probe trick reserves.
    port = _free_port()
    monkeypatch.setenv("DPZ_METRICS_PORT", str(port))
    assert main(["datasets"]) == 0
    captured = capsys.readouterr()
    assert f"serving telemetry on http://127.0.0.1:{port}" in captured.err
    # Server is torn down with the command.
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                               timeout=0.5)


def test_metrics_port_env_keeps_no_spans(monkeypatch):
    """A long command under $DPZ_METRICS_PORT must not keep one span
    record per span it opens (e.g. one per ``dpz serve`` request)."""
    import repro.cli as cli
    from repro.observability import get_tracer, span

    seen = {}

    def many_spans(args) -> int:
        for _ in range(500):
            with span("serve.request"):
                pass
        seen["tracer"] = get_tracer()
        return 0

    monkeypatch.setitem(cli._COMMANDS, "datasets", many_spans)
    monkeypatch.setenv("DPZ_METRICS_PORT", "0")
    assert get_tracer() is None
    assert main(["datasets"]) == 0
    assert seen["tracer"] is not None  # metrics flowed for the command
    assert seen["tracer"].spans == []
    assert get_tracer() is None  # and the install was undone


def test_metrics_port_env_malformed_one_line_error(monkeypatch, capsys):
    monkeypatch.setenv("DPZ_METRICS_PORT", "lots")
    assert main(["datasets"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "DPZ_METRICS_PORT" in err
