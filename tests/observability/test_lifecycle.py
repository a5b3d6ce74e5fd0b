"""Serve listener plumbing: bind helpers and the Drainer."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.serve.lifecycle import (
    Drainer,
    bind_failure,
    bind_tcp_socket,
    bind_unix_socket,
    validate_port,
)


class TestValidatePort:
    def test_accepts_range(self):
        assert validate_port(0) == 0
        assert validate_port(65535) == 65535

    @pytest.mark.parametrize("bad", [-1, 65536, 99999])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigError):
            validate_port(bad)


class TestBindTcp:
    def test_binds_and_listens(self):
        sock = bind_tcp_socket("127.0.0.1", 0)
        try:
            host, port = sock.getsockname()
            assert port > 0
            probe = socket.create_connection((host, port), timeout=5)
            probe.close()
        finally:
            sock.close()

    def test_conflict_is_one_line_config_error(self):
        sock = bind_tcp_socket("127.0.0.1", 0)
        try:
            port = sock.getsockname()[1]
            with pytest.raises(ConfigError,
                               match="cannot bind serve listener"):
                bind_tcp_socket("127.0.0.1", port)
        finally:
            sock.close()

    def test_bind_failure_message_shape(self):
        err = bind_failure("127.0.0.1:9412",
                           OSError(98, "Address already in use"))
        assert str(err) == ("cannot bind serve listener on "
                            "127.0.0.1:9412: Address already in use")


class TestBindUnix:
    def test_binds_fresh_path(self, tmp_path):
        path = str(tmp_path / "fresh.sock")
        sock = bind_unix_socket(path)
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(path)
            probe.close()
        finally:
            sock.close()

    def test_stale_socket_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # socket file remains, nobody listening
        sock = bind_unix_socket(path)
        sock.close()

    def test_live_socket_is_refused(self, tmp_path):
        path = str(tmp_path / "live.sock")
        live = bind_unix_socket(path)
        try:
            with pytest.raises(ConfigError, match="live process"):
                bind_unix_socket(path)
        finally:
            live.close()

    def test_regular_file_never_deleted(self, tmp_path):
        path = tmp_path / "notasocket"
        path.write_text("precious")
        with pytest.raises(ConfigError, match="not a socket"):
            bind_unix_socket(str(path))
        assert path.read_text() == "precious"


class TestDrainer:
    def test_track_counts(self):
        d = Drainer()
        assert d.active == 0
        with d:
            assert d.active == 1
        assert d.active == 0

    def test_closed_refuses_new_entries(self):
        d = Drainer()
        d.close()
        assert d.closed
        with pytest.raises(ConfigError, match="draining"):
            d.__enter__()

    def test_wait_idle_immediate_when_idle(self):
        d = Drainer()
        assert d.wait_idle(timeout=0.1) is True

    def test_wait_idle_blocks_until_exit(self):
        d = Drainer()
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with d:
                entered.set()
                release.wait(10.0)

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(10.0)
        d.close()
        assert d.wait_idle(timeout=0.05) is False  # still held
        release.set()
        assert d.wait_idle(timeout=10.0) is True
        t.join(timeout=10.0)

    def test_in_flight_request_finishes_before_drain(self):
        """The ordering the telemetry/serve close() paths rely on."""
        d = Drainer()
        order = []
        started = threading.Event()

        def request():
            with d:
                started.set()
                time.sleep(0.1)
                order.append("request-done")

        t = threading.Thread(target=request)
        t.start()
        assert started.wait(10.0)
        d.close()
        d.wait_idle(timeout=10.0)
        order.append("drained")
        t.join(timeout=10.0)
        assert order == ["request-done", "drained"]

