"""The metric catalog must cover every family the runtime emits."""

from __future__ import annotations

from repro.observability.catalog import (
    COUNTERS,
    GAUGES,
    HISTOGRAMS,
    METRIC_NAMES,
)


def test_store_cache_family_is_registered():
    assert {"store.cache.hits", "store.cache.misses",
            "store.cache.evictions",
            "store.cache.invalidations"} <= COUNTERS
    assert "store.cache.bytes" in GAUGES


def test_parallel_pool_family_is_registered():
    assert {"parallel.pool.created", "parallel.pool.reused",
            "parallel.pool.nested"} <= COUNTERS
    assert {"parallel.pool.size", "parallel.queue.depth"} <= GAUGES
    assert "parallel.chunk.seconds" in HISTOGRAMS


def test_telemetry_plane_families_are_registered():
    assert "profiler.samples" in COUNTERS


def test_serve_family_is_registered():
    assert {"serve.requests", "serve.errors", "serve.shed",
            "serve.bytes.sent"} <= COUNTERS
    assert "serve.queue.depth" in GAUGES
    assert "serve.request.seconds" in HISTOGRAMS


def test_serve_runtime_emissions_stay_in_catalog():
    """A real served request storm only creates cataloged series."""
    import numpy as np

    from repro.observability import get_registry
    from repro.observability.catalog import METRIC_PREFIXES
    from repro.serve import (
        BackgroundServer,
        ServeApp,
        ServeClient,
        StoreRegistry,
    )
    from repro.store import Store

    import tempfile
    import os

    get_registry().clear()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cat.dpzs")
            with Store.create(path) as st:
                st.add("f", np.arange(64.0, dtype=np.float32)
                       .reshape(8, 8), codec="raw", chunk_shape=(4, 4))
            app = ServeApp(
                StoreRegistry([path], cache_bytes=1 << 20),
                port=0, workers=1)
            with BackgroundServer(app), \
                    ServeClient(app.host, app.port) as c:
                c.manifest("cat")
                c.region("cat", "f", (slice(0, 8), slice(0, 8)))
                c.region("cat", "f", (slice(0, 4), slice(0, 4)))
                c.healthz()
        for name in get_registry().names():
            assert name in METRIC_NAMES or any(
                name.startswith(p) for p in METRIC_PREFIXES), name
    finally:
        get_registry().clear()


def test_kind_sets_are_disjoint():
    assert not (COUNTERS & GAUGES)
    assert not (COUNTERS & HISTOGRAMS)
    assert not (GAUGES & HISTOGRAMS)
    assert METRIC_NAMES == COUNTERS | GAUGES | HISTOGRAMS


def test_runtime_emissions_stay_in_catalog():
    """End-to-end: a pooled traced run plus a telemetry scrape only
    ever creates cataloged (or registered-prefix) series."""
    import urllib.request

    from repro.observability import (
        Tracer,
        counter_inc,
        get_registry,
        use_tracer,
    )
    from repro.observability.catalog import METRIC_PREFIXES
    from repro.parallel.executor import ParallelConfig, parallel_map
    from repro.serve import BackgroundServer, ServeApp, StoreRegistry

    get_registry().clear()
    try:
        with use_tracer(Tracer()):
            parallel_map(lambda x: counter_inc("store.chunks.compressed"),
                         list(range(8)),
                         config=ParallelConfig(n_jobs=2))
        app = ServeApp(StoreRegistry([], cache_bytes=0), port=0)
        with BackgroundServer(app):
            urllib.request.urlopen(app.url + "/metrics", timeout=5).read()
        for name in get_registry().names():
            assert name in METRIC_NAMES or any(
                name.startswith(p) for p in METRIC_PREFIXES), name
    finally:
        get_registry().clear()
