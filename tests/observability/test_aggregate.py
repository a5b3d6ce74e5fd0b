"""Worker-telemetry frames: capture, snapshot, exact parent merge."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.observability import (
    Tracer,
    counter_inc,
    gauge_set,
    get_registry,
    merge_frame,
    merge_frames,
    metrics_snapshot,
    observe,
    snapshot_frame,
    use_tracer,
    worker_origin,
)
from repro.observability.aggregate import (
    WORKER_FRAME,
    WORKER_FRAME_VERSION,
    capture_worker,
)
from repro.observability.metrics import MetricsRegistry
from repro.parallel.executor import ParallelConfig, parallel_map
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


class TestPoolInvariance:
    def test_counter_totals_invariant_across_n_jobs(self):
        serial = _traced_totals(1)
        for n_jobs in (2, 4):
            pooled = _traced_totals(n_jobs)
            for name in ("store.chunks.compressed", "store.bytes.decoded"):
                assert pooled["counters"][name] == \
                    serial["counters"][name], (name, n_jobs)

    def test_histogram_buckets_match_serial(self):
        serial = _traced_totals(1)
        pooled = _traced_totals(4)
        h_ser = serial["histograms"]["store.chunk.compress.seconds"]
        h_par = pooled["histograms"]["store.chunk.compress.seconds"]
        assert h_par["counts"] == h_ser["counts"]
        assert h_par["count"] == h_ser["count"]
        assert h_par["sum"] == pytest.approx(h_ser["sum"])
        assert h_par["min"] == pytest.approx(h_ser["min"])
        assert h_par["max"] == pytest.approx(h_ser["max"])

    def test_pooled_run_reports_merged_frames(self):
        pooled = _traced_totals(4, n=12)
        assert pooled["counters"]["worker.snapshots.merged"] == 12

    def test_raising_worker_merges_nothing(self):
        def boom(x: int) -> int:
            counter_inc("store.chunks.compressed", 1)
            if x == 5:
                raise RuntimeError("chunk 5 is cursed")
            return x

        with use_tracer(Tracer()):
            with pytest.raises(RuntimeError, match="cursed"):
                parallel_map(boom, list(range(8)),
                             config=ParallelConfig(n_jobs=4))
        snap = metrics_snapshot()
        # The raising task shipped no frame; pool.map's fail-fast may
        # also drop later siblings -- but never *invent* emissions.
        assert snap["counters"].get("store.chunks.compressed", 0) < 8

    def test_chunk_spans_carry_worker_origin(self):
        tracer = Tracer()
        get_registry().clear()
        with use_tracer(tracer):
            parallel_map(_work, list(range(8)),
                         config=ParallelConfig(n_jobs=2))
        chunk_spans = [s for s in tracer.spans
                       if s.name == "parallel.chunk"]
        assert len(chunk_spans) == 8
        origins = {s.meta["origin"] for s in chunk_spans}
        assert origins and all(o.startswith("worker.") for o in origins)
        (map_span,) = [s for s in tracer.spans if s.name == "parallel.map"]
        assert map_span.meta["worker_frames"] == 8


def _packed_snapshot(data: np.ndarray, n_jobs: int) -> dict:
    get_registry().clear()
    with use_tracer(Tracer()):
        Store.create(MemoryStore()).add("vx", data, codec="dpz",
                                        chunk_shape=16, n_jobs=n_jobs)
    return metrics_snapshot()


class TestStorePackInvariance:
    def test_pooled_pack_matches_serial_telemetry(self, rng):
        # A real dpz store pack: the merged worker frames must make
        # every store.* counter and the chunk-compress histogram count
        # n_jobs-invariant, with no lossy merge.
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
        assert pooled["counters"].get("worker.merge.lossy", 0) == 0
        assert pooled["counters"].get("worker.snapshots.merged", 0) > 0


class TestFrameProtocol:
    def test_snapshot_frame_shape_and_json_round_trip(self):
        local = MetricsRegistry()
        local.counter("store.chunks.compressed").add(3)
        local.counter("never.incremented")
        local.gauge("dpz.last.k").set(7.0)
        local.histogram("store.chunk.compress.seconds").observe(0.25)
        frame = snapshot_frame(local, origin="worker.9")
        assert frame["frame"] == WORKER_FRAME
        assert frame["version"] == WORKER_FRAME_VERSION
        assert frame["origin"] == "worker.9"
        assert frame["counters"] == {"store.chunks.compressed": 3}
        assert frame["gauges"] == {"dpz.last.k": 7.0}
        hist = frame["histograms"]["store.chunk.compress.seconds"]
        assert hist["count"] == 1 and sum(hist["counts"]) == 1

        # The frame must survive a serialization boundary unchanged.
        wire = json.loads(json.dumps(frame))
        target = MetricsRegistry()
        report = merge_frame(wire, into=target)
        assert report["origin"] == "worker.9"
        assert report["counters"] == 1 and report["histograms"] == 1
        assert report["lossy"] == 0
        assert target.counter("store.chunks.compressed").value == 3
        merged = target.histogram("store.chunk.compress.seconds")
        assert merged.count == 1 and merged.sum == pytest.approx(0.25)

    def test_empty_frame_is_just_the_envelope(self):
        frame = snapshot_frame(MetricsRegistry(), origin="worker.0")
        assert set(frame) == {"frame", "version", "origin"}
        target = MetricsRegistry()
        merge_frame(frame, into=target)
        assert target.counter("worker.snapshots.merged").value == 1

    def test_merge_rejects_foreign_and_future_frames(self):
        with pytest.raises(ValueError, match="not a worker-telemetry"):
            merge_frame({"frame": "something-else", "version": 1})
        with pytest.raises(ValueError, match="version"):
            merge_frame({"frame": WORKER_FRAME, "version": 99})

    def test_bounds_mismatch_degrades_to_lossy_merge(self):
        local = MetricsRegistry()
        local.histogram("x.seconds", lo=1e-3, hi=1e3,
                        buckets_per_decade=2).observe(0.5)
        frame = snapshot_frame(local, origin="worker.1")
        target = MetricsRegistry()
        # Same name, different bounds: exact bucket merge impossible.
        target.histogram("x.seconds", lo=1e-6, hi=1e2,
                         buckets_per_decade=4).observe(0.1)
        report = merge_frame(frame, into=target)
        assert report["lossy"] == 1
        assert target.counter("worker.merge.lossy").value == 1
        merged = target.histogram("x.seconds", lo=1e-6, hi=1e2,
                                  buckets_per_decade=4)
        assert merged.count == 2  # totals exact even when binning is not

    def test_merge_frames_skips_none_entries(self):
        local = MetricsRegistry()
        local.counter("store.chunks.compressed").add(1)
        frame = snapshot_frame(local, origin="worker.0")
        target = MetricsRegistry()
        assert merge_frames([None, frame, None], into=target) == 1
        assert target.counter("store.chunks.compressed").value == 1

    def test_merge_binned_rejects_wrong_bucket_count(self):
        hist = MetricsRegistry().histogram("y.seconds")
        with pytest.raises(ConfigError, match="cannot merge"):
            hist.merge_binned([1, 2, 3], 6, 1.0)

    def test_worker_origin_labels(self):
        import threading

        assert worker_origin().startswith("worker.t")  # main thread
        seen: list[str] = []
        t = threading.Thread(target=lambda: seen.append(worker_origin()),
                             name="repro-parallel_3")
        t.start()
        t.join()
        assert seen == ["worker.3"]


class TestCaptureIsolation:
    def test_capture_worker_diverts_all_emitters(self):
        with use_tracer(Tracer()):
            with capture_worker() as local:
                counter_inc("store.chunks.compressed", 2)
                observe("store.chunk.compress.seconds", 0.1)
        # Emissions went to the task registry, not the default one.
        assert local.counter("store.chunks.compressed").value == 2
        snap = metrics_snapshot()
        assert snap["counters"].get("store.chunks.compressed", 0) == 0

    def test_capture_restores_previous_registry(self):
        from repro.observability.metrics import get_active_registry

        base = get_active_registry()
        with capture_worker():
            assert get_active_registry() is not base
        assert get_active_registry() is base

    def test_untraced_pooled_map_stays_silent(self):
        result = parallel_map(_work, list(range(16)),
                              config=ParallelConfig(n_jobs=4))
        assert result == [x * 2 for x in range(16)]
        snap = metrics_snapshot()
        assert snap["counters"].get("store.chunks.compressed", 0) == 0
        assert "worker.snapshots.merged" not in snap["counters"]
