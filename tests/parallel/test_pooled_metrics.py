"""Pooled ``parallel_map`` tasks write the shared registry: totals do
not depend on ``n_jobs``."""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.observability import (
    Tracer,
    counter_inc,
    gauge_add,
    gauge_set,
    get_registry,
    metrics_snapshot,
    observe,
    use_tracer,
)
from repro.parallel.executor import ParallelConfig, parallel_map, shutdown_pool
from repro.store import MemoryStore, Store


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().clear()
    yield
    get_registry().clear()


def _work(x: int) -> int:
    counter_inc("store.chunks.compressed", 1)
    counter_inc("store.bytes.decoded", 100 * (x + 1))
    observe("store.chunk.compress.seconds", 0.001 * (x + 1))
    gauge_set("dpz.last.k", float(x))
    return x * 2


def _traced_totals(n_jobs: int, n: int = 16) -> dict:
    get_registry().clear()
    with use_tracer(Tracer()):
        result = parallel_map(_work, list(range(n)),
                              config=ParallelConfig(n_jobs=n_jobs))
    assert result == [x * 2 for x in range(n)]
    return metrics_snapshot()


def test_counter_totals_invariant_across_n_jobs():
    serial = _traced_totals(1)
    for n_jobs in (2, 4):
        pooled = _traced_totals(n_jobs)
        for name in ("store.chunks.compressed", "store.bytes.decoded"):
            assert pooled["counters"][name] == \
                serial["counters"][name], (name, n_jobs)


def test_histogram_buckets_match_serial():
    serial = _traced_totals(1)
    pooled = _traced_totals(4)
    h_ser = serial["histograms"]["store.chunk.compress.seconds"]
    h_par = pooled["histograms"]["store.chunk.compress.seconds"]
    assert h_par["counts"] == h_ser["counts"]
    assert h_par["count"] == h_ser["count"]
    assert h_par["sum"] == pytest.approx(h_ser["sum"])
    assert h_par["min"] == pytest.approx(h_ser["min"])
    assert h_par["max"] == pytest.approx(h_ser["max"])


def test_pooled_writes_lose_no_update_under_fast_switching():
    # Every worker creates the same 100 series in the same order, so
    # get-or-create races as well as the updates themselves.
    def task(x: int) -> int:
        for i in range(100):
            counter_inc(f"x.calls.{i}")
            gauge_add("x.level", 1.0)
            observe("x.seconds", 1e-3)
            gauge_add("x.level", -1.0)
        return x

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with use_tracer(Tracer()):
            out = parallel_map(task, list(range(32)),
                               config=ParallelConfig(n_jobs=8, min_chunk=1))
    finally:
        sys.setswitchinterval(old)
        shutdown_pool()
    assert out == list(range(32))
    snap = metrics_snapshot()
    assert [snap["counters"][f"x.calls.{i}"] for i in range(100)] == \
        [32] * 100
    assert snap["gauges"]["x.level"] == 0.0
    assert snap["histograms"]["x.seconds"]["count"] == 3200


class _Cursed(RuntimeError):
    pass


def test_first_exception_propagates_and_queue_depth_drains():
    def boom(x: int) -> int:
        counter_inc("store.chunks.compressed", 1)
        if x == 2:
            time.sleep(0.05)  # chunk 3 fails first in time
            raise _Cursed("chunk 2")
        if x == 3:
            raise _Cursed("chunk 3")
        time.sleep(0.01)  # chunks still queued when chunk 2 fails
        return x

    shutdown_pool()  # a 2-worker pool, so most chunks are still queued
    with use_tracer(Tracer()):
        with pytest.raises(_Cursed, match="chunk 2"):
            parallel_map(boom, list(range(32)),
                         config=ParallelConfig(n_jobs=2, min_chunk=1))
        shutdown_pool()  # let chunks still running finish
    snap = metrics_snapshot()
    assert snap["gauges"]["parallel.queue.depth"] == 0.0
    assert 4 <= snap["counters"]["store.chunks.compressed"] <= 32


def _packed_snapshot(data: np.ndarray, n_jobs: int) -> dict:
    get_registry().clear()
    with use_tracer(Tracer()):
        Store.create(MemoryStore()).add("vx", data, codec="dpz",
                                        chunk_shape=16, n_jobs=n_jobs)
    return metrics_snapshot()


def test_pooled_pack_matches_serial_telemetry(rng):
    # A real dpz store pack: every store.* counter and the
    # chunk-compress histogram count are n_jobs-invariant.
    g = np.linspace(0, 2 * np.pi, 32)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    data = (np.sin(xx) * np.cos(yy) + np.sin(zz)
            + 0.01 * rng.normal(size=xx.shape)).astype(np.float32)
    serial = _packed_snapshot(data, 1)
    pooled = _packed_snapshot(data, 4)
    names = {k for k in (*serial["counters"], *pooled["counters"])
             if k.startswith("store.")}
    assert names
    for name in sorted(names):
        assert pooled["counters"].get(name, 0) == \
            serial["counters"].get(name, 0), name
    hist = "store.chunk.compress.seconds"
    assert pooled["histograms"][hist]["count"] == \
        serial["histograms"][hist]["count"] > 0


def test_untraced_pooled_map_stays_silent():
    result = parallel_map(_work, list(range(16)),
                          config=ParallelConfig(n_jobs=4))
    assert result == [x * 2 for x in range(16)]
    snap = metrics_snapshot()
    assert snap["counters"].get("store.chunks.compressed", 0) == 0
    assert "parallel.maps" not in snap["counters"]
