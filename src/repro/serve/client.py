"""Pure-stdlib client for the ``dpz serve`` wire protocol.

``http.client`` with keep-alive, speaking the same :mod:`protocol
<repro.serve.protocol>` the server does -- this is what the serve
tests and the ``serve`` workload of ``perfbench/run.py`` drive the
server with, and the reference implementation for anyone writing a
client in another language (the wire format is specified in
FORMATS.md).

>>> from repro.serve.client import ServeClient
>>> with ServeClient("127.0.0.1", 8742) as c:
...     arr = c.region("snap", "vx", (slice(0, 16), slice(0, 16), 8))
...     man = c.manifest("snap")

Error mapping: HTTP 503 raises
:class:`~repro.errors.ServeBusyError` carrying the server's
``Retry-After`` hint; every other non-200 raises
:class:`~repro.serve.protocol.RequestFailed` with the server's
message, so client code sees the same exception type the server-side
task raised.  A :class:`ServeClient` is *not* thread-safe (one
underlying connection); give each thread its own instance -- exactly
what the bench's worker threads do.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.parse
from typing import Any, Sequence

import numpy as np

from repro.errors import ServeBusyError, ServeError
from repro.serve.protocol import (
    RegionSel,
    RequestFailed,
    decode_region_frame,
    format_slices,
)

__all__ = ["ServeClient"]


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket path."""

    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


class ServeClient:
    """One keep-alive connection to a ``dpz serve`` endpoint.

    Construct with ``(host, port)`` for TCP or ``unix_socket=`` for a
    unix-domain listener.  Not thread-safe; use one instance per
    thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 unix_socket: str | None = None,
                 timeout: float = 30.0) -> None:
        if unix_socket is not None:
            self._conn: http.client.HTTPConnection = \
                _UnixHTTPConnection(unix_socket, timeout)
        else:
            self._conn = http.client.HTTPConnection(
                host, port, timeout=timeout)

    # -- plumbing ---------------------------------------------------------

    def _get(self, path: str) -> tuple[int, dict[str, str], bytes]:
        """One GET on the kept-alive connection; reconnects once."""
        for attempt in (0, 1):
            try:
                self._conn.request("GET", path)
                resp = self._conn.getresponse()
                body = resp.read()
                headers = {k.lower(): v for k, v in resp.getheaders()}
                return resp.status, headers, body
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, OSError) as exc:
                self._conn.close()
                if attempt:
                    raise ServeError(
                        f"request {path!r} failed: {exc}") from exc
        raise ServeError(f"request {path!r} failed")  # unreachable

    def _raise_for_status(self, status: int, headers: dict[str, str],
                          body: bytes, path: str) -> None:
        if status == 200:
            return
        try:
            message = str(json.loads(body).get("error", ""))
        except (ValueError, AttributeError):
            message = body[:200].decode("latin-1")
        if status == 503:
            try:
                retry = float(headers.get("retry-after", "1"))
            except ValueError:
                retry = 1.0
            raise ServeBusyError(
                message or f"server busy on {path!r}",
                retry_after=retry)
        raise RequestFailed(
            status, message or f"HTTP {status} on {path!r}")

    def _get_json(self, path: str) -> Any:
        status, headers, body = self._get(path)
        self._raise_for_status(status, headers, body, path)
        try:
            return json.loads(body)
        except ValueError as exc:
            raise ServeError(
                f"response to {path!r} is not JSON: {exc}") from None

    # -- API --------------------------------------------------------------

    def region(self, alias: str, field: str,
               region: Sequence[RegionSel]
               ) -> "np.ndarray[Any, np.dtype[Any]]":
        """Fetch one region; returns the decoded (read-only) array.

        Bit-identical to an in-process
        ``Store.get_region(field, region)`` on the same store -- the
        serve protocol round-trips raw little-endian array bytes.
        """
        path = (f"/v1/stores/{urllib.parse.quote(alias, safe='')}"
                f"/fields/{urllib.parse.quote(field, safe='')}"
                f"/region?slices="
                + urllib.parse.quote(format_slices(region), safe=":,-"))
        status, headers, body = self._get(path)
        self._raise_for_status(status, headers, body, path)
        _, arr = decode_region_frame(body)
        return arr

    def manifest(self, alias: str) -> dict[str, Any]:
        """One store's manifest payload (fields, codecs, ratios)."""
        payload = self._get_json(
            f"/v1/stores/{urllib.parse.quote(alias, safe='')}/manifest")
        return dict(payload)

    def stores(self) -> list[str]:
        """Aliases the server is configured with."""
        return list(self._get_json("/v1/stores")["stores"])

    def healthz(self) -> dict[str, Any]:
        """The server's liveness payload."""
        return dict(self._get_json("/healthz"))

    def metrics_json(self) -> dict[str, Any]:
        """The server's metric-registry snapshot."""
        return dict(self._get_json("/metrics.json"))

    def metrics_text(self) -> str:
        """The server's Prometheus text exposition."""
        status, headers, body = self._get("/metrics")
        self._raise_for_status(status, headers, body, "/metrics")
        return body.decode("utf-8")

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
