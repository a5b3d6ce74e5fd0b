"""``dpz serve``: a concurrent region-retrieval service over stores.

The serving subsystem turns a :class:`~repro.store.store.Store` (or
several) into a network endpoint: an asyncio HTTP/1.1 server with a
bounded decode worker pool and queue-depth backpressure (503 +
``Retry-After``); decoded chunks are reused through each store's LRU
chunk cache.  Everything is stdlib -- the wire protocol is specified
in FORMATS.md and small enough to speak from ``curl``.

Modules
-------
:mod:`~repro.serve.protocol`
    URL grammar, region-frame encode/decode, error shapes.
:mod:`~repro.serve.registry`
    Alias -> lazily-opened store map.
:mod:`~repro.serve.app`
    The asyncio server, backpressure, graceful drain.
:mod:`~repro.serve.lifecycle`
    Listener binding with one-line errors, and the drain barrier.
:mod:`~repro.serve.client`
    Pure-stdlib reference client (tests and bench drive this).
"""

from repro.serve.app import BackgroundServer, ServeApp
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    RequestFailed,
    decode_region_frame,
    encode_region_frame,
    format_slices,
    parse_slices,
)
from repro.serve.registry import StoreRegistry

__all__ = [
    "BackgroundServer",
    "RequestFailed",
    "ServeApp",
    "ServeClient",
    "StoreRegistry",
    "decode_region_frame",
    "encode_region_frame",
    "format_slices",
    "parse_slices",
]
