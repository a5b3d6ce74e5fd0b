"""Observability: tracing, typed metrics, quality telemetry, run registry.

Four layers, all sharing one switch (install a tracer -> everything is
live; otherwise **zero overhead**):

* :class:`Tracer` / :func:`span` -- structured span events (stage
  name, wall time, bytes in/out, metadata) threaded through
  ``DPZCompressor``, the SZ/ZFP baselines, the Huffman/zlib codec
  layer and ``parallel_map``.
* :mod:`repro.observability.metrics` -- a thread-safe typed registry
  of counters, gauges and fixed-bucket log-scale histograms with a
  JSON snapshot and Prometheus text exposition
  (:func:`metrics_snapshot`, :func:`render_prometheus`).  Every
  thread, pooled ``parallel_map`` tasks included, writes the one
  default registry, so counter totals do not depend on ``n_jobs``.
* :mod:`repro.observability.quality` -- opt-in Z-checker-style quality
  telemetry (:func:`use_quality`): per-run PSNR / max & mean error /
  CR / bit-rate / TVE on a deterministic sampled slab, recorded as
  gauges and span metadata so one trace is a complete rate-distortion
  data point.
* :mod:`repro.observability.runlog` -- a persistent run registry:
  every traced run appends one NDJSON provenance record to
  ``runs.ndjson`` (``dpz runs list/show/diff``), and
  :mod:`repro.observability.flamegraph` exports self-contained
  flamegraph HTML from span trees (``dpz trace --flamegraph``).

On top of those, the telemetry plane added for live operation:

* :mod:`repro.observability.profiler` -- a wall-clock sampling
  profiler over the tracer's live span stacks, rendered through the
  flamegraph exporter (``dpz trace --profile``).
* :mod:`repro.observability.top` -- the ``dpz top`` dashboard
  renderer (pure snapshot -> text).

The live endpoint (``/metrics`` Prometheus text, ``/metrics.json``,
``/healthz``, ``/runs``) is a store-less :class:`repro.serve.ServeApp`,
started by ``dpz top --listen`` or ``$DPZ_METRICS_PORT``.

Typical use::

    from repro.observability import Tracer, use_tracer, use_quality

    tracer = Tracer()
    with use_tracer(tracer), use_quality():
        blob = repro.dpz_compress(field)
    print(trace_summary(tracer, prefix="dpz."))
    print(metrics_snapshot()["gauges"]["quality.psnr_db"])
"""

from repro.observability.emit import (
    load_trace,
    spans_to_ndjson,
    trace_diff,
    trace_summary,
    write_ndjson,
)
from repro.observability.flamegraph import (
    fold_spans,
    folded_to_text,
    render_html,
    write_flamegraph,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_inc,
    gauge_add,
    gauge_set,
    get_registry,
    metrics_enabled,
    metrics_reset,
    metrics_snapshot,
    observe,
    render_prometheus,
)
from repro.observability.profiler import (
    SamplingProfiler,
    use_profiler,
)
from repro.observability.quality import (
    QualityConfig,
    quality_enabled,
    record_quality,
    set_quality,
    use_quality,
)
from repro.observability.runlog import (
    append_record,
    build_record,
    config_digest,
    diff_runs,
    find_run,
    format_run_table,
    load_runs,
    resolve_runlog,
)
from repro.observability.tracer import (
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    # tracer
    "Span",
    "Tracer",
    "span",
    "current_span",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "tracing_enabled",
    # metrics registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter_inc",
    "gauge_set",
    "gauge_add",
    "observe",
    "metrics_snapshot",
    "metrics_reset",
    "render_prometheus",
    "metrics_enabled",
    # quality telemetry
    "QualityConfig",
    "quality_enabled",
    "set_quality",
    "use_quality",
    "record_quality",
    # emit / traces
    "spans_to_ndjson",
    "write_ndjson",
    "trace_summary",
    "load_trace",
    "trace_diff",
    # run registry
    "build_record",
    "append_record",
    "load_runs",
    "find_run",
    "format_run_table",
    "diff_runs",
    "config_digest",
    "resolve_runlog",
    # flamegraph
    "fold_spans",
    "folded_to_text",
    "render_html",
    "write_flamegraph",
    # sampling profiler
    "SamplingProfiler",
    "use_profiler",
    # dashboard (lazy -- see __getattr__)
    "Dashboard",
]

#: Lazily-resolved exports (PEP 562).  The dashboard is CLI-only;
#: importing the package -- which every compress does -- must not pay
#: for it.
_LAZY = {
    "Dashboard": "repro.observability.top",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.observability' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
