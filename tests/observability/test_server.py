"""Endpoint contract for the live telemetry server.

The telemetry endpoint behind ``dpz top --listen`` and
``$DPZ_METRICS_PORT`` is a :class:`~repro.serve.ServeApp` with no
stores; these tests pin the routes and lifecycle it must keep.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.cli import _metrics_port_env, _start_telemetry
from repro.errors import ConfigError
from repro.observability import get_registry
from repro.serve import BackgroundServer, ServeApp, StoreRegistry


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().clear()
    yield
    get_registry().clear()


@pytest.fixture
def server():
    srv = _start_telemetry(0)  # ephemeral port
    yield srv.app
    srv.close()


def _get(url: str) -> tuple[int, str, bytes]:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read()


#: One Prometheus sample line: name, optional {labels}, numeric value.
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"[-+]?(\d+\.?\d*([eE][-+]?\d+)?|Inf|NaN)$")


def _parse_prometheus(text: str) -> dict[str, float]:
    """Minimal exposition-format parser: every non-comment line must be
    a well-formed sample; returns bare-name -> value for scalar lines."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_SAMPLE.match(line), f"bad sample line: {line!r}"
        name, _, value = line.partition(" ")
        if "{" not in name:
            samples[name] = float(value)
    return samples


class TestRoutes:
    def test_metrics_parses_as_prometheus_text(self, server):
        reg = get_registry()
        reg.counter("serve.requests")  # pre-touch: family must render
        reg.counter("store.chunks.compressed").add(7)
        reg.gauge("store.cache.bytes").set(4096.0)
        reg.histogram("store.region.seconds").observe(0.01)
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
        samples = _parse_prometheus(body.decode())
        assert samples["repro_store_chunks_compressed_total"] == 7.0
        assert samples["repro_store_cache_bytes"] == 4096.0
        assert samples["repro_store_region_seconds_count"] == 1.0
        # The scrape itself was counted.
        assert samples["repro_serve_requests_total"] >= 1.0

    def test_metrics_json_mirrors_snapshot(self, server):
        get_registry().counter("store.chunks.compressed").add(3)
        status, ctype, body = _get(server.url + "/metrics.json")
        assert status == 200 and ctype == "application/json"
        snap = json.loads(body)
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["store.chunks.compressed"] == 3

    def test_healthz_contract(self, server):
        status, ctype, body = _get(server.url + "/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(body)
        for key in ("status", "pid", "uptime_s", "started_utc",
                    "tracing", "pool", "stores"):
            assert key in health, key
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert isinstance(health["tracing"], bool)
        assert {"created", "workers", "alive"} <= set(health["pool"])
        assert {"open_stores", "cache_bytes"} <= set(health["stores"])

    def test_runs_round_trips_registry(self, server, tmp_path,
                                       monkeypatch):
        from repro.observability import append_record, build_record

        runlog = tmp_path / "runs.ndjson"
        monkeypatch.setenv("DPZ_RUNLOG", str(runlog))
        record = build_record(
            dataset="t", shape=(4, 4), dtype="float32",
            config={"p": 1e-3}, cr=5.0, compressed_nbytes=100,
            original_nbytes=500, wall_s=0.1)
        append_record(record, str(runlog))
        status, _, body = _get(server.url + "/runs")
        assert status == 200
        runs = json.loads(body)
        assert len(runs) == 1
        assert runs[0]["run_id"] == record["run_id"]
        assert runs[0]["cr"] == record["cr"]

    def test_runs_missing_registry_is_empty_list(self, server, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("DPZ_RUNLOG", str(tmp_path / "absent.ndjson"))
        status, _, body = _get(server.url + "/runs")
        assert status == 200 and json.loads(body) == []

    def test_unknown_path_is_json_404_and_counted(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url + "/nope")
        err = exc_info.value
        assert err.code == 404
        payload = json.loads(err.read())
        assert "/metrics" in payload["routes"]
        assert get_registry().counter("serve.errors").value == 1

    def test_root_serves_metrics(self, server):
        status, ctype, _ = _get(server.url + "/")
        assert status == 200 and ctype.startswith("text/plain")


class TestLifecycle:
    def test_second_bind_refused_with_one_line_error(self, server):
        with pytest.raises(ConfigError) as exc_info:
            _start_telemetry(server.port)
        message = str(exc_info.value)
        assert "\n" not in message
        assert str(server.port) in message

    def test_close_releases_port(self):
        srv = _start_telemetry(0)
        port = srv.app.port
        srv.close()
        srv2 = _start_telemetry(port)  # rebinding proves the close was clean
        srv2.close()

    def test_double_start_refused(self):
        srv = _start_telemetry(0)
        try:
            with pytest.raises(ConfigError, match="already started"):
                srv.start()
        finally:
            srv.close()

    def test_invalid_port_rejected(self):
        with pytest.raises(ConfigError, match="port"):
            _start_telemetry(70000)

    def test_context_manager_closes(self):
        app = ServeApp(StoreRegistry([], cache_bytes=0), port=0)
        with BackgroundServer(app) as srv:
            status, _, _ = _get(srv.app.url + "/healthz")
            assert status == 200
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(srv.app.url + "/healthz", timeout=0.5)

    def test_draining_answers_503(self, server):
        server._drainer.close()  # shutdown has begun, listener still up
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url + "/metrics")
        assert exc_info.value.code == 503
        assert json.loads(exc_info.value.read())["error"] \
            == "server is draining"


class TestEnvOptIn:
    def test_absent_env_means_no_server(self, monkeypatch):
        monkeypatch.delenv("DPZ_METRICS_PORT", raising=False)
        assert _metrics_port_env() is None
        monkeypatch.setenv("DPZ_METRICS_PORT", " ")
        assert _metrics_port_env() is None

    def test_env_starts_server(self, monkeypatch, capsys):
        monkeypatch.setenv("DPZ_METRICS_PORT", "0")
        srv = _start_telemetry(_metrics_port_env())
        try:
            status, _, _ = _get(srv.app.url + "/healthz")
            assert status == 200
        finally:
            srv.close()
        assert f"serving telemetry on {srv.app.url}" \
            in capsys.readouterr().err

    def test_malformed_env_is_one_line_error(self, monkeypatch):
        monkeypatch.setenv("DPZ_METRICS_PORT", "not-a-port")
        with pytest.raises(ConfigError, match="DPZ_METRICS_PORT"):
            _metrics_port_env()
