"""End-to-end contract for the ``dpz serve`` server and client."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import ConfigError, ServeBusyError
from repro.observability import get_registry
from repro.serve import (
    BackgroundServer,
    RequestFailed,
    ServeApp,
    ServeClient,
    StoreRegistry,
)
from repro.serve.registry import parse_store_spec
from repro.store import Store


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().clear()
    yield
    get_registry().clear()


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    rng = np.random.default_rng(7)
    path = str(tmp_path_factory.mktemp("serve") / "snap.dpzs")
    field = rng.standard_normal((32, 32, 32)).astype(np.float32)
    plane = rng.standard_normal((48, 48)).astype(np.float64)
    with Store.create(path) as st:
        st.add("vx", field, codec="sz", eps=1e-3,
               chunk_shape=(16, 16, 16))
        st.add("rho", plane, codec="raw", chunk_shape=(16, 16))
    return path


@pytest.fixture
def server(store_path):
    registry = StoreRegistry([store_path], cache_bytes=1 << 24)
    app = ServeApp(registry, port=0, workers=2)
    with BackgroundServer(app) as srv:
        yield srv.app


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


class TestSpecParsing:
    def test_bare_path_uses_stem(self):
        assert parse_store_spec("runs/snap.dpzs") == (
            "snap", "runs/snap.dpzs")

    def test_alias_equals_path(self):
        assert parse_store_spec("hot=a/b.dpzs") == ("hot", "a/b.dpzs")

    @pytest.mark.parametrize("bad", ["=x", "a=", "a/b=c"])
    def test_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_store_spec(bad)

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            StoreRegistry(["a/snap.dpzs", "b/snap.dpzs"],
                          cache_bytes=0)


class TestRoutes:
    def test_stores_lists_aliases(self, client):
        assert client.stores() == ["snap"]

    def test_empty_registry_serves_telemetry_routes(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("DPZ_RUNLOG", str(tmp_path / "runs.ndjson"))
        app = ServeApp(StoreRegistry([], cache_bytes=0), port=0)
        with BackgroundServer(app), \
                ServeClient(app.host, app.port) as c:
            assert c.stores() == []
            assert c.healthz()["serving"] == []
            assert c.metrics_json()["counters"]["serve.requests"] >= 2
            status, headers, body = c._get("/runs")
            assert status == 200
            assert headers["content-type"] == "application/json"
            assert json.loads(body) == []
            with pytest.raises(RequestFailed) as ei:
                c.manifest("snap")
            assert ei.value.status == 404

    def test_manifest(self, client):
        man = client.manifest("snap")
        names = [f["name"] for f in man["fields"]]
        assert names == ["vx", "rho"]
        assert man["alias"] == "snap"
        assert man["total_cr"] > 0

    def test_healthz(self, client):
        h = client.healthz()
        assert h["status"] == "ok"
        assert h["serving"] == ["snap"]
        assert h["workers"] == 2

    def test_metrics_text_and_json(self, client):
        client.stores()
        text = client.metrics_text()
        assert "serve_requests" in text.replace(".", "_") or \
            "serve.requests" in text
        snap = client.metrics_json()
        assert snap["counters"]["serve.requests"] >= 1

    def test_unknown_store_404(self, client):
        with pytest.raises(RequestFailed) as ei:
            client.manifest("nope")
        assert ei.value.status == 404

    def test_unknown_field_404(self, client):
        with pytest.raises(RequestFailed) as ei:
            client.region("snap", "nope", (slice(0, 4),) * 3)
        assert ei.value.status == 404

    def test_unknown_path_404_lists_routes(self, client):
        status, _, body = client._get("/v2/whatever")
        assert status == 404
        assert "/v1/stores" in json.loads(body)["routes"]

    def test_bad_region_400(self, client):
        with pytest.raises(RequestFailed) as ei:
            client.region("snap", "vx", (slice(0, 4),) * 9)
        assert ei.value.status == 400

    def test_missing_slices_400(self, client):
        status, _, body = client._get(
            "/v1/stores/snap/fields/vx/region")
        assert status == 400
        assert "slices" in json.loads(body)["error"]

    def test_malformed_slices_400(self, client):
        status, _, _ = client._get(
            "/v1/stores/snap/fields/vx/region?slices=a:b")
        assert status == 400


class TestRegionReads:
    @pytest.mark.parametrize("field,region", [
        ("vx", (slice(0, 16), slice(0, 16), slice(0, 16))),
        ("vx", (slice(3, 29), slice(10, 22), 7)),
        ("vx", (5, 6, slice(None, None))),
        ("rho", (slice(0, 48), slice(12, 13))),
        ("rho", (slice(7, 41), 3)),
    ])
    def test_bit_identical_to_in_process(self, client, store_path,
                                         field, region):
        served = client.region("snap", field, region)
        local = Store.open(store_path).get_region(field, region)
        assert served.dtype == local.dtype.newbyteorder("<")
        np.testing.assert_array_equal(served, local)

    def test_keep_alive_reuses_connection(self, client):
        for _ in range(3):
            client.region("snap", "vx", (slice(0, 8),) * 3)
        snap = client.metrics_json()
        assert snap["counters"]["serve.requests"] >= 4
        assert snap["counters"]["serve.bytes.sent"] > 0


class TestConcurrency:
    def test_hammer_bit_identical_and_coalesced(self, server,
                                                store_path):
        local = Store.open(store_path)
        regions = [
            (slice(0, 16), slice(0, 16), slice(0, 16)),
            (slice(16, 32), slice(0, 16), slice(0, 16)),
            (slice(4, 28), slice(4, 28), 9),
        ]
        ref = [local.get_region("vx", r) for r in regions]
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                with ServeClient(server.host, server.port) as c:
                    for _ in range(10):
                        i = int(rng.integers(len(regions)))
                        try:
                            arr = c.region("snap", "vx", regions[i])
                        except ServeBusyError:
                            continue  # shed under load: legitimate
                        if not np.array_equal(arr, ref[i]):
                            errors.append(regions[i])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        with ServeClient(server.host, server.port) as c:
            snap = c.metrics_json()
        assert snap["counters"]["serve.requests"] >= 100
        # The same three chunk-sets were hammered by 12 threads: the
        # LRU must have absorbed most decodes.
        hits = snap["counters"]["store.cache.hits"]
        misses = snap["counters"].get("store.cache.misses", 0)
        assert hits / (hits + misses) >= 0.5, (hits, misses)

    def test_backpressure_sheds_503(self, store_path):
        registry = StoreRegistry([store_path], cache_bytes=0)
        app = ServeApp(registry, port=0, workers=1, max_queue=1)
        shed = []
        served = []
        with BackgroundServer(app):
            def worker():
                with ServeClient(app.host, app.port) as c:
                    for _ in range(6):
                        try:
                            c.region("snap", "vx", (slice(0, 32),) * 3)
                            served.append(1)
                        except ServeBusyError as exc:
                            assert exc.retry_after > 0
                            shed.append(1)

            threads = [threading.Thread(target=worker)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        assert served  # the server kept making progress
        assert shed    # and shed at least some of the burst


class TestLifecycle:
    def test_draining_refuses_new_requests(self, store_path):
        registry = StoreRegistry([store_path], cache_bytes=0)
        app = ServeApp(registry, port=0, workers=1)
        srv = BackgroundServer(app).start()
        with ServeClient(app.host, app.port) as c:
            c.stores()
        srv.close()
        assert app.draining
        with pytest.raises(Exception):
            ServeClient(app.host, app.port, timeout=2.0).stores()

    def test_close_is_idempotent(self, store_path):
        registry = StoreRegistry([store_path], cache_bytes=0)
        app = ServeApp(registry, port=0, workers=1)
        srv = BackgroundServer(app).start()
        srv.close()
        srv.close()

    def test_port_conflict_is_one_line_config_error(self, store_path):
        registry = StoreRegistry([store_path], cache_bytes=0)
        app = ServeApp(registry, port=0, workers=1)
        with pytest.raises(ConfigError, match="cannot bind serve"):
            ServeApp(StoreRegistry([store_path], cache_bytes=0),
                     host=app.host, port=app.port, workers=1)

    def test_unix_socket_roundtrip(self, store_path, tmp_path):
        sock = str(tmp_path / "dpz.sock")
        registry = StoreRegistry([store_path], cache_bytes=1 << 20)
        app = ServeApp(registry, unix_socket=sock, workers=1)
        assert app.url == f"unix://{sock}"
        with BackgroundServer(app):
            with ServeClient(unix_socket=sock) as c:
                assert c.stores() == ["snap"]
                arr = c.region("snap", "vx", (slice(0, 8),) * 3)
                assert arr.shape == (8, 8, 8)

    def test_tracer_installed_and_restored(self, store_path):
        from repro.observability import get_tracer

        assert get_tracer() is None
        registry = StoreRegistry([store_path], cache_bytes=0)
        app = ServeApp(registry, port=0, workers=1)
        with BackgroundServer(app):
            with ServeClient(app.host, app.port) as c:
                assert c.healthz()["tracing"] is True
        assert get_tracer() is None

    def test_multi_store_aliases(self, store_path, tmp_path):
        other = str(tmp_path / "other.dpzs")
        with Store.create(other) as st:
            st.add("t", np.arange(64.0, dtype=np.float32)
                   .reshape(8, 8), codec="raw", chunk_shape=(4, 4))
        registry = StoreRegistry(
            [store_path, f"hot={other}"], cache_bytes=1 << 20)
        app = ServeApp(registry, port=0, workers=1)
        with BackgroundServer(app):
            with ServeClient(app.host, app.port) as c:
                assert c.stores() == ["snap", "hot"]
                arr = c.region("hot", "t", (slice(0, 8), slice(0, 8)))
                np.testing.assert_array_equal(
                    arr, np.arange(64.0, dtype=np.float32)
                    .reshape(8, 8))

    def test_broken_store_path_502(self, tmp_path):
        missing = str(tmp_path / "missing.dpzs")
        registry = StoreRegistry([missing], cache_bytes=0)
        app = ServeApp(registry, port=0, workers=1)
        with BackgroundServer(app):
            with ServeClient(app.host, app.port) as c:
                with pytest.raises(RequestFailed) as ei:
                    c.manifest("missing")
                assert ei.value.status == 502


class TestCLI:
    def test_serve_wired_into_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "snap.dpzs", "--port", "0", "--workers", "3"])
        assert args.command == "serve"
        assert args.stores == ["snap.dpzs"]
        assert args.workers == 3

    def test_serve_rejects_missing_store_early(self, tmp_path):
        from repro.cli import main

        rc = main(["serve", "alias/bad=x.dpzs"])
        assert rc == 2
