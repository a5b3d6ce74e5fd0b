"""Typed metric registry: counters, gauges, histograms, exposition."""

from __future__ import annotations

import math
import threading

import pytest

from repro.errors import ConfigError
from repro.observability import (
    Tracer,
    counter_inc,
    gauge_add,
    gauge_set,
    get_registry,
    metrics_enabled,
    metrics_reset,
    metrics_snapshot,
    observe,
    render_prometheus,
    use_tracer,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().clear()
    yield
    get_registry().clear()


# -- metric primitives -------------------------------------------------------

def test_counter_is_monotonic():
    c = Counter("c")
    c.add()
    c.add(41)
    assert c.value == 42
    with pytest.raises(ConfigError):
        c.add(-1)
    c.reset()
    assert c.value == 0


def test_gauge_set_and_add():
    g = Gauge("g")
    g.set(2.5)
    g.add(-1.0)
    assert g.value == 1.5
    g.reset()
    assert g.value == 0.0


def test_histogram_bounds_are_pure_function_of_config():
    h1 = Histogram("a", lo=1e-3, hi=1e3, buckets_per_decade=3)
    h2 = Histogram("b", lo=1e-3, hi=1e3, buckets_per_decade=3)
    assert h1._bounds == h2._bounds
    assert h1._bounds[-1] == 1e3
    assert len(h1._counts) == len(h1._bounds) + 1  # + overflow


def test_histogram_observe_and_summary():
    h = Histogram("h", lo=1e-3, hi=1e3)
    for v in (0.01, 0.1, 1.0, 10.0):
        h.observe(v)
    d = h.to_dict()
    assert d["count"] == 4
    assert d["sum"] == pytest.approx(11.11)
    assert d["min"] == pytest.approx(0.01)
    assert d["max"] == pytest.approx(10.0)
    assert sum(d["counts"]) == 4


def test_histogram_quantiles_monotone_and_clamped():
    h = Histogram("h", lo=1e-3, hi=1e3)
    for v in (0.01, 0.1, 1.0, 10.0, 100.0):
        h.observe(v)
    p50, p95 = h.quantile(0.5), h.quantile(0.95)
    assert 1e-3 <= p50 <= p95 <= 1e3
    # Outliers cannot escape the configured range.
    h.observe(1e9)
    assert h.quantile(1.0) == 1e3
    h.observe(1e-9)
    assert h.quantile(0.0) >= 0.0
    assert math.isnan(Histogram("empty").quantile(0.5))
    with pytest.raises(ConfigError):
        h.quantile(1.5)


def test_histogram_underflow_and_nonpositive():
    h = Histogram("h", lo=1.0, hi=100.0)
    h.observe(0.0)
    h.observe(-5.0)
    h.observe(0.5)
    assert h.count == 3
    assert h._counts[0] == 3  # all landed in underflow


def test_merge_binned_rejects_wrong_bucket_count():
    hist = MetricsRegistry().histogram("y.seconds")
    with pytest.raises(ConfigError, match="cannot merge"):
        hist.merge_binned([1, 2, 3], 6, 1.0)


def test_histogram_rejects_bad_config():
    with pytest.raises(ConfigError):
        Histogram("bad", lo=1.0, hi=1.0)
    with pytest.raises(ConfigError):
        Histogram("bad", lo=1.0, hi=10.0, buckets_per_decade=0)


# -- registry ----------------------------------------------------------------

def test_registry_get_or_create_and_kind_conflict():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(ConfigError):
        reg.gauge("x")
    with pytest.raises(ConfigError):
        reg.histogram("x")


def test_registry_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("runs").add(2)
    reg.gauge("cr").set(7.5)
    reg.histogram("lat", lo=1e-6, hi=1.0).observe(0.01)
    snap = reg.snapshot()
    assert snap["counters"] == {"runs": 2}
    assert snap["gauges"] == {"cr": 7.5}
    assert snap["histograms"]["lat"]["count"] == 1
    assert "p50" in snap["histograms"]["lat"]


def test_registry_reset_by_kind():
    reg = MetricsRegistry()
    reg.counter("c").add(5)
    reg.gauge("g").set(3.0)
    reg.reset(kinds=("counter",))
    assert reg.counter("c").value == 0
    assert reg.gauge("g").value == 3.0
    reg.reset()
    assert reg.gauge("g").value == 0.0


def test_counter_thread_safety():
    reg = MetricsRegistry()
    c = reg.counter("hits")

    def hammer():
        for _ in range(10_000):
            c.add()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 40_000


# -- Prometheus exposition ---------------------------------------------------

def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("dpz.compress.runs").add(3)
    reg.gauge("dpz.last.cr").set(7.25)
    h = reg.histogram("parallel.chunk.seconds", lo=1e-6, hi=10.0)
    h.observe(0.002)
    h.observe(0.004)
    text = reg.render_prometheus()
    assert "# TYPE repro_dpz_compress_runs_total counter" in text
    assert "repro_dpz_compress_runs_total 3" in text
    assert "repro_dpz_last_cr 7.25" in text
    assert "# TYPE repro_parallel_chunk_seconds histogram" in text
    assert 'repro_parallel_chunk_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_parallel_chunk_seconds_count 2" in text
    # Cumulative bucket counts never decrease.
    buckets = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
               if line.startswith("repro_parallel_chunk_seconds_bucket")]
    assert buckets == sorted(buckets)


def test_prometheus_custom_prefix():
    reg = MetricsRegistry()
    reg.counter("a.b").add()
    assert "custom_a_b_total 1" in reg.render_prometheus(prefix="custom_")


# -- gated module-level helpers ---------------------------------------------

def test_helpers_noop_when_disabled():
    assert not metrics_enabled()
    counter_inc("off.counter")
    gauge_set("off.gauge", 1.0)
    gauge_add("off.gauge", 1.0)
    observe("off.hist", 0.5)
    snap = metrics_snapshot()
    assert "off.counter" not in snap["counters"]
    assert "off.gauge" not in snap["gauges"]
    assert "off.hist" not in snap["histograms"]


def test_helpers_record_when_traced():
    with use_tracer(Tracer()):
        assert metrics_enabled()
        counter_inc("on.counter", 2)
        gauge_set("on.gauge", 5.0)
        gauge_add("on.gauge", 1.0)
        observe("on.hist", 0.25, lo=1e-3, hi=1e3)
    snap = metrics_snapshot()
    assert snap["counters"]["on.counter"] == 2
    assert snap["gauges"]["on.gauge"] == 6.0
    assert snap["histograms"]["on.hist"]["count"] == 1
    assert "on_hist" in render_prometheus().replace(".", "_")


def test_default_registry_is_shared():
    with use_tracer(Tracer()):
        counter_inc("shared.counter")
    assert get_registry().counter("shared.counter").value == 1


# -- instrumented pipelines --------------------------------------------------

def test_sz_baseline_populates_metrics(smooth_2d):
    import numpy as np

    from repro.baselines import sz_compress, sz_decompress

    data = smooth_2d.astype(np.float32)
    with use_tracer(Tracer()):
        blob = sz_compress(data, eps=1e-3)
        sz_decompress(blob)
    snap = metrics_snapshot()
    assert snap["counters"]["sz.compress.runs"] == 1
    assert snap["counters"]["sz.decompress.runs"] == 1
    assert snap["gauges"]["sz.last.cr"] > 1.0
    assert snap["histograms"]["sz.compress.seconds"]["count"] == 1
    assert snap["histograms"]["sz.decompress.seconds"]["count"] == 1
    # SZ's entropy stage rides the instrumented Huffman codec.
    assert snap["histograms"]["huffman.encode.symbols_per_call"]["count"] >= 1
    assert snap["histograms"]["huffman.decode.symbols_per_call"]["count"] >= 1


def test_zfp_baseline_populates_metrics(smooth_2d):
    import numpy as np

    from repro.baselines import zfp_compress, zfp_decompress

    data = smooth_2d.astype(np.float32)
    with use_tracer(Tracer()):
        blob = zfp_compress(data, rate=8.0)
        zfp_decompress(blob)
    snap = metrics_snapshot()
    assert snap["counters"]["zfp.compress.runs"] == 1
    assert snap["counters"]["zfp.decompress.runs"] == 1
    assert snap["gauges"]["zfp.last.cr"] > 1.0
    assert snap["histograms"]["zfp.compress.seconds"]["count"] == 1
    assert snap["histograms"]["zfp.decompress.seconds"]["count"] == 1


def test_parallel_map_populates_pool_metrics():
    from repro.parallel.executor import (
        ParallelConfig,
        parallel_map,
        shutdown_pool,
    )

    shutdown_pool()  # the pool-size gauge is only set on pool creation
    with use_tracer(Tracer()):
        out = parallel_map(lambda x: x * 2, list(range(8)),
                           config=ParallelConfig(n_jobs=2, min_chunk=1))
    assert out == [x * 2 for x in range(8)]
    snap = metrics_snapshot()
    assert snap["gauges"]["parallel.pool.size"] >= 2
    # Every dispatched chunk finished: the depth gauge is back to zero.
    assert snap["gauges"]["parallel.queue.depth"] == 0.0
    assert snap["histograms"]["parallel.chunk.seconds"]["count"] == 8


def test_nested_parallel_map_drains_queue_depth():
    from repro.parallel.executor import ParallelConfig, parallel_map

    config = ParallelConfig(n_jobs=2, min_chunk=1)

    def outer(x):
        return sum(parallel_map(lambda y: x * y, list(range(4)),
                                config=config))

    with use_tracer(Tracer()):
        out = parallel_map(outer, list(range(4)), config=config)
    assert out == [6 * x for x in range(4)]
    snap = metrics_snapshot()
    # Inner maps run from pool workers; their depth adds and
    # decrements land in the same gauge as the outer map's.
    assert snap["gauges"]["parallel.queue.depth"] == 0.0
    assert snap["counters"]["parallel.maps"] == 5
    assert snap["counters"]["parallel.pool.nested"] == 4
    assert snap["histograms"]["parallel.chunk.seconds"]["count"] == 20
