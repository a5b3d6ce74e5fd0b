"""NDJSON emitter, trace summaries, counters, and the traced pipeline."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.compressor import DPZCompressor
from repro.core.config import DPZ_L
from repro.observability import (
    Tracer,
    counter_inc,
    get_registry,
    load_trace,
    metrics_snapshot,
    spans_to_ndjson,
    trace_summary,
    use_tracer,
    write_ndjson,
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    # clear() (not reset()) so zero-valued metrics registered by other
    # tests don't leak into snapshot-shape assertions.
    get_registry().clear()
    yield
    get_registry().clear()


@pytest.fixture
def traced_run(smooth_2d):
    tracer = Tracer()
    comp = DPZCompressor(DPZ_L)
    with use_tracer(tracer):
        blob = comp.compress(smooth_2d.astype(np.float32))
        DPZCompressor.decompress(blob)
    return tracer, blob


def test_ndjson_structure(traced_run, tmp_path):
    tracer, _ = traced_run
    path = tmp_path / "trace.ndjson"
    n = write_ndjson(tracer, str(path), meta={"dataset": "smooth_2d"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["event"] == "meta"
    assert lines[0]["format"] == "repro-trace"
    assert lines[0]["dataset"] == "smooth_2d"
    span_lines = [rec for rec in lines if rec["event"] == "span"]
    assert len(span_lines) == n > 0
    for rec in span_lines:
        assert {"name", "t0", "dur", "span_id", "depth"} <= set(rec)
    # One metrics line, last, carries counters, gauges and histograms.
    trailers = [rec["event"] for rec in lines if rec["event"] != "span"]
    assert trailers == ["meta", "metrics"]
    metrics = lines[-1]
    assert metrics["event"] == "metrics"
    assert metrics["counters"]["zlib.compress.calls"] >= 1
    assert all(metrics["counters"].values())
    assert "zlib.compress.frame_bytes" in metrics["histograms"]
    assert all(h["count"] for h in metrics["histograms"].values())
    assert "dpz.last.cr" in metrics["gauges"]


def test_ndjson_covers_all_dpz_stages(traced_run):
    tracer, _ = traced_run
    names = {s.name for s in tracer.spans}
    for stage in ("dpz.decompose", "dpz.dct", "dpz.pca", "dpz.quantize",
                  "dpz.encode", "dpz.serialize", "dpz.deserialize",
                  "dpz.dequantize", "dpz.inverse_pca",
                  "dpz.inverse_transform", "dpz.reassemble"):
        assert stage in names, f"missing span {stage}"


def test_serialize_span_carries_section_sizes(traced_run):
    tracer, blob = traced_run
    ser = next(s for s in tracer.spans if s.name == "dpz.serialize")
    assert ser.bytes_out == len(blob)
    sections = {k: v for k, v in ser.meta.items() if k.startswith("sec_")}
    assert sections and all(v >= 0 for v in sections.values())
    # Sections plus frame overhead account for the blob.
    assert sum(sections.values()) <= len(blob)


def test_trace_summary_shape(traced_run):
    tracer, _ = traced_run
    summary = trace_summary(tracer, prefix="dpz.")
    assert summary["n_spans"] > 0
    assert summary["total_s"] > 0
    assert abs(sum(summary["stage_shares"].values()) - 1.0) < 0.01
    assert set(summary["stage_times_s"]) == set(summary["stage_shares"])


def test_spans_to_ndjson_empty_tracer():
    text = spans_to_ndjson([], meta=None)
    lines = text.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["event"] == "meta"


def test_metrics_line_drops_zero_and_empty_entries():
    get_registry().counter("x.never")
    get_registry().histogram("x.empty.seconds")
    with use_tracer(Tracer()):
        counter_inc("x.calls")
    (_, rec) = [json.loads(line)
                for line in spans_to_ndjson([]).splitlines()]
    assert rec == {"event": "metrics", "counters": {"x.calls": 1}}


def test_load_trace_round_trips_the_metrics_line(traced_run, tmp_path):
    tracer, _ = traced_run
    path = tmp_path / "trace.ndjson"
    write_ndjson(tracer, str(path))
    trace = load_trace(str(path))
    assert len(trace["spans"]) == len(tracer.spans)
    assert trace["metrics"]["counters"]["zlib.compress.calls"] >= 1
    assert "zlib.compress.frame_bytes" in trace["metrics"]["histograms"]


def test_load_trace_reads_a_separate_counters_line():
    # Traces written before the counters joined the metrics line.
    old = "\n".join([
        '{"event": "meta", "format": "repro-trace", "version": 1}',
        '{"event": "span", "name": "dpz.dct", "t0": 0.0, "dur": 0.5,'
        ' "span_id": 1, "depth": 0}',
        '{"event": "counters", "zlib.compress.calls": 3}',
        '{"event": "metrics", "gauges": {"dpz.last.cr": 7.5}}',
    ]) + "\n"
    trace = load_trace(io.StringIO(old))
    assert [s["name"] for s in trace["spans"]] == ["dpz.dct"]
    assert trace["metrics"] == {
        "counters": {"zlib.compress.calls": 3},
        "gauges": {"dpz.last.cr": 7.5},
    }


def test_counters_gated_on_tracing():
    counter_inc("x.calls")  # no tracer installed: dropped
    assert metrics_snapshot()["counters"] == {}
    with use_tracer(Tracer()):
        counter_inc("x.calls")
        counter_inc("x.bytes", 100)
        counter_inc("x.bytes", 23)
    snap = metrics_snapshot()["counters"]
    assert snap == {"x.bytes": 123, "x.calls": 1}
    get_registry().reset(kinds=("counter",))
    assert not any(metrics_snapshot()["counters"].values())


def test_tracing_does_not_change_output(smooth_2d):
    data = smooth_2d.astype(np.float32)
    comp = DPZCompressor(DPZ_L)
    plain = comp.compress(data)
    with use_tracer(Tracer()):
        traced = comp.compress(data)
    assert plain == traced


def test_stats_times_match_span_names(smooth_2d):
    # DPZStats.times (the fig9 input) and the trace must agree on the
    # stage vocabulary.
    tracer = Tracer()
    comp = DPZCompressor(DPZ_L)
    with use_tracer(tracer):
        _, stats = comp.compress_with_stats(smooth_2d.astype(np.float32))
    span_stages = {s.name.removeprefix("dpz.")
                   for s in tracer.spans if s.name.startswith("dpz.")}
    for stage in stats.times:
        assert stage in span_stages
