"""Listener plumbing for :class:`~repro.serve.app.ServeApp`: bind, drain.

Every listener in this codebase is a ``ServeApp`` -- ``dpz serve``
with its stores, and the store-less telemetry endpoint behind
``dpz top --listen`` and ``$DPZ_METRICS_PORT``.  The bind helpers
return ready-to-listen TCP or unix sockets, and every operator-level
failure (port taken, privileged port, stale socket path owned by a
live process) surfaces as a one-line
:class:`~repro.errors.ConfigError`, never a socket traceback.

:class:`Drainer` tracks in-flight requests so shutdown can *drain*:
stop accepting, let the requests already being served finish (bounded
by a timeout), then release the socket.  It is plain ``threading``,
usable from worker threads and, via cheap non-blocking calls, from an
event loop.
"""

from __future__ import annotations

import os
import socket
import stat
import threading
import time
from types import TracebackType
from typing import Union

from repro.errors import ConfigError

__all__ = [
    "Drainer",
    "validate_port",
    "bind_failure",
    "bind_tcp_socket",
    "bind_unix_socket",
]


def validate_port(port: int) -> int:
    """Range-check a TCP port, returning it; raises ``ConfigError``."""
    if not 0 <= int(port) <= 65535:
        raise ConfigError(f"port must be in [0, 65535], got {port}")
    return int(port)


def bind_failure(location: str, exc: OSError) -> str:
    """The one-line message for a listener that failed to bind."""
    return (f"cannot bind serve listener on {location}: "
            f"{exc.strerror or exc}")


def bind_tcp_socket(host: str, port: int, *,
                    backlog: int = 128) -> socket.socket:
    """Bind and listen on ``host:port``; returns the listening socket.

    ``SO_REUSEADDR`` is set so a drained restart does not trip over the
    previous socket's TIME_WAIT.  Failures raise the one-line
    ConfigError (see :func:`bind_failure`).
    """
    validate_port(port)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except OSError as exc:
        sock.close()
        raise ConfigError(bind_failure(f"{host}:{port}", exc)) from None
    return sock


def bind_unix_socket(path: str, *, backlog: int = 128) -> socket.socket:
    """Bind and listen on a unix-domain socket path.

    A stale socket file left by a dead process is unlinked and
    rebound; a path that exists but is *not* a socket is refused (we
    never delete an operator's regular file).  Failures raise the
    one-line ConfigError (see :func:`bind_failure`).
    """
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):
        mode = None
    if mode is not None:
        if not stat.S_ISSOCK(mode):
            raise ConfigError(
                f"refusing to bind serve listener on {path!r}: path "
                f"exists and is not a socket")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale: owner is gone
        else:
            raise ConfigError(
                f"cannot bind serve listener on {path!r}: socket is "
                f"in use by a live process")
        finally:
            probe.close()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(path)
        sock.listen(backlog)
    except OSError as exc:
        sock.close()
        raise ConfigError(bind_failure(repr(path), exc)) from None
    return sock


class Drainer:
    """Thread-safe in-flight request counter with a drain barrier.

    Handlers wrap their work in ``with drainer:``; shutdown
    calls :meth:`wait_idle` after the listener stops accepting, so
    requests already in flight complete before the socket is released.
    Entering a closed drainer raises ``ConfigError`` -- a late request
    racing shutdown is refused instead of half-served.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._closed = False

    @property
    def active(self) -> int:
        """How many requests are currently tracked."""
        with self._cond:
            return self._active

    @property
    def closed(self) -> bool:
        """Whether shutdown has begun (new entries are refused)."""
        with self._cond:
            return self._closed

    def __enter__(self) -> "Drainer":
        with self._cond:
            if self._closed:
                raise ConfigError("server is draining; request refused")
            self._active += 1
        return self

    def __exit__(self, exc_type: Union[type, None],
                 exc: Union[BaseException, None],
                 tb: Union[TracebackType, None]) -> None:
        with self._cond:
            self._active -= 1
            if self._active <= 0:
                self._cond.notify_all()

    def close(self) -> None:
        """Refuse new entries from now on."""
        with self._cond:
            self._closed = True

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until no request is in flight; True if fully drained.

        Returns ``False`` when ``timeout`` elapsed with requests still
        running -- the caller then closes anyway (bounded shutdown
        beats a hung one).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True
