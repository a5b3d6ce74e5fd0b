"""Thread-safety hammer for a shared :class:`Store` handle.

``dpz serve`` hands one ``Store`` to a pool of worker threads, so the
read path -- ``get_region``/``get`` through the chunk cache -- must be
safe to hammer concurrently *and* return bit-identical results
regardless of interleaving.  These tests run green under
``DPZ_SANITIZE=1`` too: every lock on the path is a checked lock, so
an ordering violation fails deterministically here.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.store import Store

N_THREADS = 8
N_ITERS = 12


@pytest.fixture(scope="module")
def hammer_store(tmp_path_factory):
    rng = np.random.default_rng(42)
    path = str(tmp_path_factory.mktemp("hammer") / "hammer.dpzs")
    vol = rng.standard_normal((24, 24, 24)).astype(np.float32)
    plane = (np.outer(np.sin(np.linspace(0, 6, 40)),
                      np.cos(np.linspace(0, 4, 40)))
             .astype(np.float64))
    with Store.create(path) as st:
        st.add("vol", vol, codec="sz", eps=1e-3,
               chunk_shape=(8, 8, 8))
        st.add("plane", plane, codec="raw", chunk_shape=(16, 16))
    return path


def _region_requests():
    """A deterministic mixed bag of region requests."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(6):
        lo = [int(rng.integers(0, 12)) for _ in range(3)]
        hi = [int(rng.integers(lo_i + 1, 25)) for lo_i in lo]
        out.append(("vol", tuple(slice(lo_i, hi_i)
                                 for lo_i, hi_i in zip(lo, hi))))
    out.append(("vol", (slice(None, None), 5, slice(0, 24))))
    out.append(("plane", (slice(3, 37), slice(0, 40))))
    out.append(("plane", (17, slice(None, None))))
    return out


@pytest.fixture(scope="module")
def expected(hammer_store):
    """Reference results from a private, uncached handle."""
    ref = Store.open(hammer_store, cache_bytes=0)
    region_results = [(name, region, ref.get_region(name, region))
                      for name, region in _region_requests()]
    return region_results, ref.get("plane")


def _hammer(store, expected):
    """Run the concurrent read storm; returns collected mismatches."""
    region_results, whole_plane = expected
    barrier = threading.Barrier(N_THREADS)
    failures = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        barrier.wait()
        try:
            for _ in range(N_ITERS):
                name, region, want = region_results[
                    int(rng.integers(len(region_results)))]
                got = store.get_region(name, region)
                if not np.array_equal(got, want):
                    failures.append((name, region))
            # Whole-field reads ride the same cache path.
            if not np.array_equal(store.get("plane"), whole_plane):
                failures.append("whole-plane mismatch")
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(1000 + i,))
               for i in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert all(not t.is_alive() for t in threads)
    return failures


@pytest.mark.parametrize("cache_bytes", [0, 1 << 22],
                         ids=["uncached", "cached"])
def test_shared_handle_hammer(hammer_store, expected, cache_bytes):
    store = Store.open(hammer_store, cache_bytes=cache_bytes)
    assert _hammer(store, expected) == []


def test_hammer_under_tracer(hammer_store, expected):
    """Metrics emission on the hot path must also be thread-safe."""
    from repro.observability import (
        Tracer,
        get_registry,
        metrics_snapshot,
        use_tracer,
    )

    get_registry().clear()
    store = Store.open(hammer_store, cache_bytes=1 << 22)
    with use_tracer(Tracer(retain_spans=False)):
        failures = _hammer(store, expected)
    assert failures == []
    snap = metrics_snapshot()
    assert snap["counters"]["store.region.reads"] > 0
    get_registry().clear()
