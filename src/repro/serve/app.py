"""The ``dpz serve`` application: asyncio accept loop + worker pool.

Architecture (one process, stdlib only)::

    accept loop (asyncio, 1 thread)          worker pool (threads)
    ------------------------------           --------------------
    parse HTTP/1.1 request           ---->   serve.request span
    route + backpressure check               registry.get(alias)
    cheap routes answered inline             store.get_region(...)
    queue region/manifest work               encode DPZR frame
    write response, keep-alive loop  <----   return bytes

The event loop never blocks on a decode: region and manifest requests
run on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`, and
when more than ``max_queue`` of them are in flight the server *sheds*
-- HTTP 503 with a ``Retry-After`` hint -- instead of queueing without
bound (``serve.shed``).  Decoded chunks are reused through each store's
LRU chunk cache, sized by the registry.

Observability: the app installs a ``retain_spans=False``
:class:`~repro.observability.Tracer` when none is active (so
``serve.*`` and ``store.*`` metrics flow without accumulating span
records), opens a ``serve.request`` span around each worker-side
request, and exposes the default registry at ``/metrics`` /
``/metrics.json``, liveness at ``/healthz`` and the run registry at
``/runs``.  With no stores the app *is* the live telemetry endpoint
that ``dpz top --listen`` and ``$DPZ_METRICS_PORT`` start.

Shutdown is graceful: stop accepting, refuse new requests (503),
drain in-flight ones through the
:class:`~repro.serve.lifecycle.Drainer`, then tear down the
pool.  ``dpz serve`` wires SIGTERM/SIGINT to exactly this path.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import threading
import time
from typing import Any

from repro.errors import ConfigError, DataShapeError, ReproError
from repro.observability import (
    counter_inc,
    gauge_set,
    load_runs,
    observe,
    resolve_runlog,
    span,
)
from repro.observability import tracer as _tracer
from repro.observability.metrics import get_registry, metrics_snapshot
from repro.serve.lifecycle import Drainer, bind_tcp_socket, bind_unix_socket
from repro.serve.protocol import (
    REGION_CONTENT_TYPE,
    ROUTES,
    RequestFailed,
    Route,
    encode_region_frame,
    error_body,
    parse_slices,
    parse_target,
)
from repro.serve.registry import StoreRegistry

__all__ = ["ServeApp", "BackgroundServer", "DEFAULT_WORKERS"]

#: Default decode worker-pool width.
DEFAULT_WORKERS = 4

#: Largest request head (request line + headers) the parser accepts.
_MAX_REQUEST_HEAD = 64 * 1024

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _healthz_payload(app: "ServeApp") -> dict[str, Any]:
    # Lazy imports: both modules are import cycles at module scope,
    # cheap at request time.
    from repro.parallel.executor import pool_status
    from repro.store.store import open_store_stats

    return {
        "status": "draining" if app.draining else "ok",
        "pid": os.getpid(),
        "started_utc": app.started_utc,
        "uptime_s": round(time.time() - app.started_at, 3),
        "tracing": _tracer.tracing_enabled(),
        "pool": pool_status(),
        "stores": open_store_stats(),
        "serving": app.registry.aliases(),
        "workers": app.workers,
        "queue_depth": app.pending,
        "max_queue": app.max_queue,
        "requests": get_registry().counter("serve.requests").value,
    }


def _runs_payload() -> list[dict[str, Any]]:
    try:
        return load_runs(resolve_runlog())
    except FileNotFoundError:
        return []


class ServeApp:
    """One bound, runnable region-retrieval server.

    Construction binds the listener (so address conflicts surface as a
    one-line :class:`~repro.errors.ConfigError` before any thread
    starts); :meth:`run` serves until the given stop event fires; use
    :class:`BackgroundServer` to run it on a daemon thread.
    """

    def __init__(self, registry: StoreRegistry, *,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_socket: str | None = None,
                 workers: int = DEFAULT_WORKERS,
                 max_queue: int | None = None,
                 drain_timeout: float = 5.0) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_queue is None:
            max_queue = workers * 8
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        self.registry = registry
        self.workers = int(workers)
        self.max_queue = int(max_queue)
        self._drain_timeout = float(drain_timeout)
        self._drainer = Drainer()
        self._pending = 0
        self.started_at = time.time()
        self.started_utc = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.started_at))
        self.unix_socket = unix_socket
        if unix_socket is not None:
            self._sock = bind_unix_socket(unix_socket)
            self.host, self.port = "", 0
        else:
            self._sock = bind_tcp_socket(host, port)
            self.host = host
            self.port = int(self._sock.getsockname()[1])

    # -- introspection ----------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL for TCP servers (no trailing slash)."""
        if self.unix_socket is not None:
            return f"unix://{self.unix_socket}"
        return f"http://{self.host}:{self.port}"

    @property
    def pending(self) -> int:
        """Decode requests currently queued or running."""
        return self._pending

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun."""
        return self._drainer.closed

    # -- lifecycle --------------------------------------------------------

    async def run(self, stop: "asyncio.Event", *,
                  ready: "threading.Event | None" = None) -> None:
        """Serve until ``stop`` fires, then drain and tear down.

        Installs a ``retain_spans=False`` tracer when none is active
        (restored on exit) so serve/store metrics flow for the whole
        server lifetime without unbounded span growth.
        """
        owned_tracer = None
        if _tracer.get_tracer() is None:
            owned_tracer = _tracer.Tracer(retain_spans=False)
        previous = (_tracer.set_tracer(owned_tracer)
                    if owned_tracer is not None else None)
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="dpz-serve")
        self._loop = asyncio.get_running_loop()
        self._pool = pool
        server = await asyncio.start_server(
            self._handle_conn, sock=self._sock, limit=_MAX_REQUEST_HEAD)
        try:
            if ready is not None:
                ready.set()
            await stop.wait()
        finally:
            # Graceful drain: stop accepting, refuse new requests,
            # wait (bounded) for in-flight ones, then tear down.
            server.close()
            self._drainer.close()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, self._drainer.wait_idle, self._drain_timeout)
            await server.wait_closed()
            pool.shutdown(wait=True, cancel_futures=True)
            self.registry.close()
            if owned_tracer is not None:
                _tracer.set_tracer(previous)

    # -- connection handling ----------------------------------------------

    async def _handle_conn(self, reader: "asyncio.StreamReader",
                           writer: "asyncio.StreamWriter") -> None:
        try:
            while True:
                head = await self._read_head(reader, writer)
                if head is None:
                    return
                method, target, version, headers = head
                keep = await self._respond(method, target, version,
                                           headers, writer)
                if not keep:
                    return
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, TimeoutError):
            pass  # client went away or overran; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader: "asyncio.StreamReader",
                         writer: "asyncio.StreamWriter"
                         ) -> tuple[str, str, str, dict[str, str]] | None:
        """Read and parse one request head; ``None`` on clean EOF."""
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests
            raise
        except asyncio.LimitOverrunError:
            await self._write_error(
                writer, "HTTP/1.1", 431,
                f"request head exceeds {_MAX_REQUEST_HEAD} bytes")
            raise
        lines = raw.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            await self._write_error(
                writer, "HTTP/1.1", 400,
                f"malformed request line {lines[0]!r}")
            raise ConnectionResetError
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    async def _respond(self, method: str, target: str, version: str,
                       headers: dict[str, str],
                       writer: "asyncio.StreamWriter") -> bool:
        t0 = time.perf_counter()
        counter_inc("serve.requests")
        keep = (version != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close")
        try:
            self._drainer.__enter__()
        except ConfigError:
            await self._write_error(writer, version, 503,
                                    "server is draining",
                                    retry_after=1.0)
            return False
        try:
            status, body, ctype, extra = await self._dispatch(
                method, target)
            await self._write(writer, version, status, body, ctype,
                              keep=keep, extra=extra)
        finally:
            self._drainer.__exit__(None, None, None)
            observe("serve.request.seconds", time.perf_counter() - t0)
        return keep

    async def _dispatch(self, method: str, target: str
                        ) -> tuple[int, bytes, str, dict[str, str]]:
        """Route one request; returns (status, body, content-type, extra
        headers).  Never raises -- failures become error JSON."""
        try:
            route = parse_target(target)
            if method != "GET":
                raise RequestFailed(
                    405, f"method {method} not allowed; GET only")
            if route.kind == "healthz":
                return 200, _json(_healthz_payload(self)), \
                    "application/json", {}
            if route.kind == "metrics":
                text = get_registry().render_prometheus()
                return 200, text.encode(), PROMETHEUS_CONTENT_TYPE, {}
            if route.kind == "metrics_json":
                return 200, _json(metrics_snapshot()), \
                    "application/json", {}
            if route.kind == "runs":
                return 200, _json(_runs_payload()), "application/json", {}
            if route.kind == "stores":
                return 200, _json({
                    "stores": self.registry.aliases()}), \
                    "application/json", {}
            # manifest / region hit the store: bounded worker pool with
            # queue-depth backpressure.
            return await self._offload(route)
        except RequestFailed as exc:
            if exc.status != 503:  # sheds count as serve.shed, not errors
                counter_inc("serve.errors")
            extra: dict[str, str] = {}
            body_extra: dict[str, Any] = {}
            if exc.status == 404:
                body_extra["routes"] = list(ROUTES)
            if exc.retry_after is not None:
                extra["Retry-After"] = f"{exc.retry_after:g}"
                body_extra["retry_after"] = exc.retry_after
            return exc.status, error_body(exc.status, str(exc),
                                          **body_extra), \
                "application/json", extra
        except ReproError as exc:
            counter_inc("serve.errors")
            return 500, error_body(
                500, f"{type(exc).__name__}: {exc}"), \
                "application/json", {}
        # A handler bug must become a 500 response, never an unhandled
        # traceback killing the connection task.
        except Exception as exc:  # dpzlint: ignore[DPZ302]
            counter_inc("serve.errors")
            return 500, error_body(
                500, f"{type(exc).__name__}: {exc}"), \
                "application/json", {}

    async def _offload(self, route: Route
                       ) -> tuple[int, bytes, str, dict[str, str]]:
        """Run a store-touching route on the worker pool.

        ``_pending`` is only touched on the event-loop thread, so the
        saturation check is race-free without a lock.
        """
        if self._pending >= self.max_queue:
            counter_inc("serve.shed")
            retry = max(0.05, 0.05 * self._pending / self.workers)
            raise RequestFailed(
                503, f"queue saturated ({self._pending} pending, "
                f"cap {self.max_queue}); retry after {retry:.2f}s",
                retry_after=retry)
        self._pending += 1
        gauge_set("serve.queue.depth", float(self._pending))
        try:
            status, body, ctype = await self._loop.run_in_executor(
                self._pool, self.handle, route)
        finally:
            self._pending -= 1
            gauge_set("serve.queue.depth", float(self._pending))
        counter_inc("serve.bytes.sent", len(body))
        return status, body, ctype, {}

    def handle(self, route: Route) -> tuple[int, bytes, str]:
        """Serve one manifest/region route synchronously.

        The worker-pool body -- and the in-process dispatch surface
        tests can call without a socket.  Raises
        :class:`~repro.serve.protocol.RequestFailed` for client
        errors; returns ``(status, body, content_type)``.
        """
        with span("serve.request", kind=route.kind, store=route.alias,
                  field=route.field):
            if route.kind == "manifest":
                return 200, _json(self.registry.manifest(route.alias)), \
                    "application/json"
            store = self.registry.get(route.alias)
            if route.field not in store.names():
                raise RequestFailed(
                    404, f"no field {route.field!r} in store "
                    f"{route.alias!r}; have {store.names()}")
            spec = route.query.get("slices")
            if spec is None:
                raise RequestFailed(
                    400, "missing slices= query parameter "
                    "(e.g. ?slices=0:16,8:24,3)")
            try:
                region = parse_slices(spec)
                arr = store.get_region(route.field, region)
            except (ConfigError, DataShapeError) as exc:
                raise RequestFailed(400, str(exc)) from exc
            return 200, encode_region_frame(route.alias, route.field,
                                            arr), REGION_CONTENT_TYPE

    # -- response writing -------------------------------------------------

    async def _write(self, writer: "asyncio.StreamWriter", version: str,
                     status: int, body: bytes, ctype: str, *,
                     keep: bool, extra: dict[str, str]) -> None:
        reason = _REASONS.get(status, "Response")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep else 'close'}"]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    async def _write_error(self, writer: "asyncio.StreamWriter",
                           version: str, status: int, message: str, *,
                           retry_after: float | None = None) -> None:
        extra = ({} if retry_after is None
                 else {"Retry-After": f"{retry_after:g}"})
        try:
            await self._write(writer, version, status,
                              error_body(status, message),
                              "application/json", keep=False,
                              extra=extra)
        except (ConnectionError, OSError):
            pass


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable",
}


def _json(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, default=str).encode()


class BackgroundServer:
    """Run a :class:`ServeApp` on a daemon thread (tests, benches).

    >>> app = ServeApp(StoreRegistry(["snap.dpzs"], cache_bytes=1 << 20))
    >>> with BackgroundServer(app) as srv:
    ...     client = ServeClient(app.host, app.port)

    ``close`` performs the same graceful drain the CLI's SIGTERM path
    does.
    """

    def __init__(self, app: ServeApp) -> None:
        self._app = app
        self._ready = threading.Event()
        self._stop: "asyncio.Event | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: threading.Thread | None = None

    @property
    def app(self) -> ServeApp:
        """The served application."""
        return self._app

    def start(self) -> "BackgroundServer":
        """Start serving; returns once the listener is accepting."""
        if self._thread is not None:
            raise ConfigError("serve background thread already started")
        self._thread = threading.Thread(
            target=self._main, name="dpz-serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ConfigError(
                "serve background thread failed to start within 10s")
        return self

    def _main(self) -> None:
        async def _run() -> None:
            self._stop = asyncio.Event()
            self._loop = asyncio.get_running_loop()
            await self._app.run(self._stop, ready=self._ready)

        asyncio.run(_run())

    def close(self) -> None:
        """Graceful drain + thread join; idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already dead
        thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()
