"""Byte-budgeted LRU cache of *decoded* chunks for :class:`Store`.

Region reads decode every overlapping chunk even when the request only
touches a sliver of it -- that is the 7x decoded-byte amplification the
store benchmarks measure.  Workloads with locality (sweeping planes,
re-reading a hot subvolume, ``get`` after ``get_region``) re-decode the
same chunks over and over.  This cache keeps recently decoded chunks in
memory, keyed by ``(field, chunk_index)``, bounded by a byte budget and
evicted least-recently-used first.

Design points:

* **Purely in-memory.**  Nothing about the on-disk format changes; a
  cache is private to one :class:`Store` handle and dies with it.
* **Thread-safe.**  All bookkeeping happens under one lock; payload
  decode happens *outside* the lock (two racing threads may both decode
  the same chunk -- wasted work, never wrong results).
* **Read-only entries.**  Cached arrays are marked non-writable before
  insertion, so a cache hit can safely hand the same array to many
  readers; consumers copy the slices they need.
* **Observable.**  ``store.cache.hits`` / ``misses`` / ``evictions`` /
  ``invalidations`` counters and the ``store.cache.bytes`` gauge make
  hit rates and residency visible in traces.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

import numpy as np

from repro.devtools.sanitize import checked_lock
from repro.errors import ConfigError
from repro.observability import counter_inc, gauge_set

__all__ = ["ChunkCache", "DEFAULT_CACHE_BYTES"]

#: Default decoded-chunk budget per store handle (64 MiB): large enough
#: to hold every chunk of the bench fields, small next to the data
#: sizes the store targets.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

CacheKey = tuple[str, int]


class ChunkCache:
    """LRU mapping of ``(field, chunk_index) -> decoded ndarray``.

    ``max_bytes=0`` disables caching (every ``get`` misses, ``put`` is
    a no-op), which keeps the calling code branch-free.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ConfigError(
                f"cache budget must be >= 0 bytes, got {max_bytes}")
        self._max_bytes = int(max_bytes)
        self._lock = checked_lock("store.cache.ChunkCache._lock")
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._nbytes = 0

    @property
    def max_bytes(self) -> int:
        """The configured byte budget."""
        return self._max_bytes

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Any | None:
        """Return the cached (read-only) array or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                counter_inc("store.cache.misses")
                return None
            self._entries.move_to_end(key)
            counter_inc("store.cache.hits")
            return entry

    def put(self, key: CacheKey, chunk: Any) -> Any:
        """Insert a decoded chunk; returns the (read-only) stored array.

        The array is marked non-writable in place when owned, else a
        read-only copy is stored.  Chunks larger than the whole budget
        are returned read-only but not cached.
        """
        arr = np.asarray(chunk)
        if not arr.flags.owndata and arr.base is not None:
            arr = arr.copy()
        arr.flags.writeable = False
        size = int(arr.nbytes)
        if size > self._max_bytes:
            return arr
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= int(old.nbytes)
            self._entries[key] = arr
            self._nbytes += size
            while self._nbytes > self._max_bytes:
                _, victim = self._entries.popitem(last=False)
                self._nbytes -= int(victim.nbytes)
                counter_inc("store.cache.evictions")
            gauge_set("store.cache.bytes", float(self._nbytes))
        return arr

    def invalidate_field(self, name: str) -> int:
        """Drop every entry of one field; returns how many were held."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == name]
            for key in doomed:
                victim = self._entries.pop(key)
                self._nbytes -= int(victim.nbytes)
            if doomed:
                counter_inc("store.cache.invalidations", len(doomed))
                gauge_set("store.cache.bytes", float(self._nbytes))
        return len(doomed)

    def clear(self) -> None:
        """Drop everything."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._nbytes = 0
            if count:
                counter_inc("store.cache.invalidations", count)
                gauge_set("store.cache.bytes", 0.0)
