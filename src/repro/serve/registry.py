"""Multi-store registry for ``dpz serve``: aliases, lazy open, caching.

``dpz serve snap.dpzs hot=run42.dpzs`` serves several stores from one
process.  Each positional argument is a *spec*: either a bare path
(the alias is the filename stem) or ``alias=path``.  Stores open
lazily -- the first request touching an alias pays the manifest read
-- and each gets its own chunk cache sized by an equal share of the
server's ``--cache-bytes`` budget, so one hot store cannot evict
another's chunks.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.devtools.sanitize import checked_lock
from repro.errors import ConfigError, FormatError, StoreError
from repro.serve.protocol import RequestFailed
from repro.store import Store

__all__ = ["StoreRegistry", "parse_store_spec"]


def parse_store_spec(spec: str) -> tuple[str, str]:
    """Split one CLI store spec into ``(alias, path)``.

    ``"hot=run42.dpzs"`` -> ``("hot", "run42.dpzs")``;
    ``"snap.dpzs"`` -> ``("snap", "snap.dpzs")``.  Aliases are URL
    path segments, so ``/`` is rejected up front.
    """
    if "=" in spec:
        alias, _, path = spec.partition("=")
        alias = alias.strip()
        path = path.strip()
    else:
        path = spec.strip()
        base = os.path.basename(path.rstrip("/\\"))
        alias = base.rsplit(".", 1)[0] if "." in base else base
    if not alias or not path:
        raise ConfigError(
            f"bad store spec {spec!r}: want PATH or ALIAS=PATH")
    if "/" in alias or "\\" in alias:
        raise ConfigError(
            f"store alias {alias!r} must not contain path separators; "
            f"use ALIAS=PATH to pick one explicitly")
    return alias, path


class StoreRegistry:
    """Alias -> lazily-opened :class:`~repro.store.store.Store` map.

    Thread-safe: worker threads race on first-open; the registry lock
    serialises the open so exactly one handle (and one chunk cache)
    exists per alias.
    """

    def __init__(self, specs: Iterable[str], *,
                 cache_bytes: int) -> None:
        if cache_bytes < 0:
            raise ConfigError(
                f"cache budget must be >= 0 bytes, got {cache_bytes}")
        self._paths: dict[str, str] = {}
        for spec in specs:
            alias, path = parse_store_spec(spec)
            if alias in self._paths:
                raise ConfigError(
                    f"duplicate store alias {alias!r} "
                    f"({self._paths[alias]!r} vs {path!r}); "
                    f"use ALIAS=PATH to disambiguate")
            self._paths[alias] = path
        # Equal split keeps per-store caches independent.  No stores
        # is valid: that app serves the telemetry routes only.
        self._share = cache_bytes // max(len(self._paths), 1)
        self._lock = checked_lock("serve.registry.StoreRegistry._lock")
        self._stores: dict[str, Store] = {}

    def aliases(self) -> list[str]:
        """Registered aliases in CLI order."""
        return list(self._paths)

    def path(self, alias: str) -> str:
        """The backend path behind one alias (404 when unknown)."""
        try:
            return self._paths[alias]
        except KeyError:
            raise RequestFailed(
                404, f"unknown store {alias!r}; serving "
                f"{self.aliases()}") from None

    def get(self, alias: str) -> Store:
        """The (lazily opened) store behind ``alias``.

        Unknown aliases are a client error (404); a registered path
        that fails to open is a server-side condition (502), because
        the operator pointed the server at it.
        """
        path = self.path(alias)
        with self._lock:
            store = self._stores.get(alias)
            if store is None:
                try:
                    store = Store.open(path, cache_bytes=self._share)
                except (FormatError, StoreError, OSError) as exc:
                    raise RequestFailed(
                        502, f"store {alias!r} ({path!r}) failed to "
                        f"open: {exc}") from exc
                self._stores[alias] = store
            return store

    def manifest(self, alias: str) -> dict[str, Any]:
        """The JSON manifest payload for one store."""
        store = self.get(alias)
        fields = [store.info(name) for name in store.names()]
        return {
            "alias": alias,
            "path": self.path(alias),
            "total_cr": store.total_cr() if fields else None,
            "fields": fields,
        }

    def close(self) -> None:
        """Drop every opened handle (and with it, its chunk cache)."""
        with self._lock:
            self._stores.clear()
