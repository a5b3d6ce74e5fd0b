"""Tests for the decoded-chunk LRU cache and its store integration.

The acceptance bar (mirrored from the issue):

* eviction is least-recently-used and respects the byte budget,
* appending a field invalidates its cached chunks,
* warm (cached) region reads are bit-identical to cold reads for every
  registered codec, and
* concurrent readers hammering one store handle never see corrupt data.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.codecs.registry import codec_ids
from repro.errors import ConfigError
from repro.observability import (
    Tracer,
    metrics_reset,
    metrics_snapshot,
    use_tracer,
)
from repro.store import Store
from repro.store.cache import DEFAULT_CACHE_BYTES, ChunkCache

#: Per-codec kwargs (mirrors tests/store/test_store.py).
CODEC_KWARGS = {
    "dpz": {"scheme": "s", "tve_nines": 6},
    "sz": {"eps": 1e-4},
    "zfp": {"rate": 12.0},
    "mgard": {"eps": 1e-4},
    "dctz": {"p": 1e-4, "index_bytes": 2},
    "tucker": {"target": 0.99999},
    "raw": {},
    "delta": {},
    "scale-offset": {"eps": 1e-4},
}


def _chunk(value: float, n: int = 128) -> np.ndarray:
    """An n-float64 array (n*8 bytes) filled with ``value``."""
    return np.full(n, value, dtype="<f8")


class TestChunkCacheUnit:
    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            ChunkCache(-1)

    def test_default_budget(self):
        assert ChunkCache().max_bytes == DEFAULT_CACHE_BYTES

    def test_put_get_roundtrip_readonly(self):
        cache = ChunkCache(1 << 20)
        stored = cache.put(("f", 0), _chunk(1.0))
        assert not stored.flags.writeable
        hit = cache.get(("f", 0))
        np.testing.assert_array_equal(hit, _chunk(1.0))
        assert not hit.flags.writeable

    def test_view_is_copied_before_caching(self):
        # Caching a view must not pin (or later mutate with) the base.
        cache = ChunkCache(1 << 20)
        base = np.zeros(256, dtype="<f8")
        cache.put(("f", 0), base[:128])
        base[:] = 7.0
        np.testing.assert_array_equal(cache.get(("f", 0)), _chunk(0.0))

    def test_lru_eviction_order(self):
        # Budget fits exactly three 1 KiB chunks; inserting a fourth
        # evicts the least recently *used*, not least recently added.
        cache = ChunkCache(3 * 1024)
        for i in range(3):
            cache.put(("f", i), _chunk(float(i)))
        assert cache.get(("f", 0)) is not None  # refresh 0
        cache.put(("f", 3), _chunk(3.0))        # evicts 1
        assert cache.get(("f", 1)) is None
        assert cache.get(("f", 0)) is not None
        assert cache.get(("f", 2)) is not None
        assert cache.get(("f", 3)) is not None

    def test_byte_budget_never_exceeded(self):
        cache = ChunkCache(2 * 1024 + 100)
        for i in range(10):
            cache.put(("f", i), _chunk(float(i)))
            assert cache.nbytes <= cache.max_bytes
        assert len(cache) == 2

    def test_oversize_chunk_not_cached_but_returned(self):
        cache = ChunkCache(100)
        out = cache.put(("f", 0), _chunk(1.0))
        assert not out.flags.writeable
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_zero_budget_disables(self):
        cache = ChunkCache(0)
        cache.put(("f", 0), _chunk(1.0))
        assert cache.get(("f", 0)) is None
        assert len(cache) == 0

    def test_replace_same_key_accounts_bytes_once(self):
        cache = ChunkCache(1 << 20)
        cache.put(("f", 0), _chunk(1.0))
        cache.put(("f", 0), _chunk(2.0))
        assert cache.nbytes == _chunk(0.0).nbytes
        np.testing.assert_array_equal(cache.get(("f", 0)), _chunk(2.0))

    def test_invalidate_field_is_per_field(self):
        cache = ChunkCache(1 << 20)
        cache.put(("a", 0), _chunk(1.0))
        cache.put(("a", 1), _chunk(2.0))
        cache.put(("b", 0), _chunk(3.0))
        assert cache.invalidate_field("a") == 2
        assert cache.get(("a", 0)) is None
        assert cache.get(("b", 0)) is not None
        assert cache.nbytes == _chunk(0.0).nbytes

    def test_clear(self):
        cache = ChunkCache(1 << 20)
        cache.put(("a", 0), _chunk(1.0))
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_counters(self):
        with use_tracer(Tracer()):
            metrics_reset()
            cache = ChunkCache(1024)
            cache.get(("f", 0))
            cache.put(("f", 0), _chunk(1.0))
            cache.get(("f", 0))
            cache.put(("f", 1), _chunk(2.0))  # evicts 0
            c = metrics_snapshot()["counters"]
        assert c["store.cache.misses"] == 1
        assert c["store.cache.hits"] == 1
        assert c["store.cache.evictions"] == 1


@pytest.fixture
def field_3d(rng) -> np.ndarray:
    g = np.linspace(-1, 1, 24)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    base = np.sin(3 * xx) * np.cos(2 * yy) + zz
    return (base + 0.01 * rng.normal(size=base.shape)).astype(np.float32)


class TestStoreCache:
    def test_warm_region_bit_identical_every_codec(self, tmp_path,
                                                   field_3d):
        # Acceptance: a cached (warm) region read returns exactly the
        # bytes a cold read returns, for every registered codec.
        path = tmp_path / "s.dpzs"
        with Store.create(path) as st:
            for codec in codec_ids():
                st.add(f"f_{codec}", field_3d, codec=codec,
                       chunk_shape=(8, 8, 8), **CODEC_KWARGS[codec])
        region = (slice(3, 19), slice(0, 8), slice(5, 21))
        for codec in codec_ids():
            cold_store = Store.open(path)
            cold = cold_store.get_region(f"f_{codec}", region)
            warm = cold_store.get_region(f"f_{codec}", region)
            np.testing.assert_array_equal(warm, cold)
            fresh = Store.open(path).get_region(f"f_{codec}", region)
            np.testing.assert_array_equal(fresh, cold)

    def test_get_and_get_region_share_cache(self, tmp_path, field_3d):
        path = tmp_path / "s.dpzs"
        with Store.create(path) as st:
            st.add("f", field_3d, codec="raw", chunk_shape=(8, 8, 8))
        st = Store.open(path)
        with use_tracer(Tracer()):
            metrics_reset()
            st.get("f")  # decodes all 27 chunks, populates cache
            st.get_region("f", (slice(0, 8), slice(0, 8), slice(0, 8)))
            c = metrics_snapshot()["counters"]
        assert c["store.chunks.decoded"] == 27
        assert c["store.cache.hits"] == 1

    def test_append_invalidates_only_that_field(self, tmp_path,
                                                field_3d):
        path = tmp_path / "s.dpzs"
        st = Store.create(path)
        st.add("a", field_3d, codec="raw", chunk_shape=(8, 8, 8))
        st.get("a")  # warm the cache on this handle
        with use_tracer(Tracer()):
            metrics_reset()
            st.add("b", field_3d, codec="raw", chunk_shape=(8, 8, 8))
            c = metrics_snapshot()["counters"]
            # "a" entries survive: re-reading "a" hits, never decodes.
            st.get("a")
            c2 = metrics_snapshot()["counters"]
        assert c.get("store.cache.invalidations", 0) == 0
        assert c2["store.cache.hits"] == 27
        assert c2.get("store.chunks.decoded", 0) == 0

    def test_cache_bytes_zero_disables(self, tmp_path, field_3d):
        path = tmp_path / "s.dpzs"
        with Store.create(path) as st:
            st.add("f", field_3d, codec="raw", chunk_shape=(8, 8, 8))
        st = Store.open(path, cache_bytes=0)
        with use_tracer(Tracer()):
            metrics_reset()
            st.get("f")
            st.get("f")
            c = metrics_snapshot()["counters"]
        assert c["store.chunks.decoded"] == 54
        assert c.get("store.cache.hits", 0) == 0

    def test_warm_read_decodes_nothing(self, tmp_path, field_3d):
        path = tmp_path / "s.dpzs"
        with Store.create(path) as st:
            st.add("f", field_3d, codec="raw", chunk_shape=(8, 8, 8))
        st = Store.open(path)
        region = (slice(0, 24), slice(0, 24), slice(3, 4))
        st.get_region("f", region)
        with use_tracer(Tracer()):
            metrics_reset()
            st.get_region("f", region)
            c = metrics_snapshot()["counters"]
        assert c.get("store.chunks.decoded", 0) == 0
        assert c.get("store.bytes.decoded", 0) == 0
        assert c["store.cache.hits"] == 9

    def test_concurrent_readers_hammer(self, tmp_path, field_3d):
        # Many threads reading overlapping regions through one small
        # cache (forcing constant eviction) must all see exact data.
        path = tmp_path / "s.dpzs"
        with Store.create(path) as st:
            st.add("f", field_3d, codec="raw", chunk_shape=(8, 8, 8))
        st = Store.open(path, cache_bytes=8 * 8 * 8 * 4 * 3)
        regions = [
            (slice(0, 24), slice(0, 24), slice(z, z + 2))
            for z in range(0, 22)
        ]
        errors: list[Exception] = []

        def reader(offset: int) -> None:
            try:
                for i in range(len(regions)):
                    r = regions[(i + offset) % len(regions)]
                    out = st.get_region("f", r)
                    np.testing.assert_array_equal(out, field_3d[r])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i * 3,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
