"""Tests for the ordered parallel map."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.parallel.executor import ParallelConfig, parallel_map, resolve_jobs


def test_serial_matches_map():
    items = list(range(20))
    assert parallel_map(lambda x: x * x, items) == [x * x for x in items]


def test_parallel_preserves_order():
    def jittered(x):
        time.sleep(0.001 * (x % 3))
        return x * 2

    items = list(range(32))
    out = parallel_map(jittered, items,
                       config=ParallelConfig(n_jobs=4, min_chunk=1))
    assert out == [x * 2 for x in items]


def test_parallel_actually_uses_threads():
    seen = set()

    def record(x):
        seen.add(threading.get_ident())
        time.sleep(0.005)
        return x

    parallel_map(record, list(range(16)),
                 config=ParallelConfig(n_jobs=4, min_chunk=1))
    assert len(seen) > 1


def test_small_input_runs_serially():
    seen = set()

    def record(x):
        seen.add(threading.get_ident())
        return x

    parallel_map(record, [1, 2],
                 config=ParallelConfig(n_jobs=8, min_chunk=4))
    assert seen == {threading.get_ident()}


def test_exceptions_propagate():
    def boom(x):
        if x == 5:
            raise ValueError("boom")
        return x

    with pytest.raises(ValueError):
        parallel_map(boom, list(range(10)),
                     config=ParallelConfig(n_jobs=2, min_chunk=1))


class _ChunkExplosion(RuntimeError):
    """A worker failure type the pool must not launder."""


def test_original_exception_type_and_message_survive():
    # The *caller's* exception class (not a pool/broken-executor
    # wrapper) must cross the thread boundary, message intact, for
    # both the untraced fast path and the traced path.
    from repro.observability import Tracer, use_tracer

    def boom(x):
        if x == 3:
            raise _ChunkExplosion(f"chunk {x} exploded")
        return x

    cfg = ParallelConfig(n_jobs=4, min_chunk=1)
    with pytest.raises(_ChunkExplosion, match="chunk 3 exploded"):
        parallel_map(boom, list(range(8)), config=cfg)
    with use_tracer(Tracer()):
        with pytest.raises(_ChunkExplosion, match="chunk 3 exploded"):
            parallel_map(boom, list(range(8)), config=cfg)


def test_failed_map_does_not_poison_shared_pool():
    # The process-lifetime pool is reused across calls; a raising
    # worker must not wedge it for subsequent maps (same or larger
    # worker count, which exercises both reuse and pool growth).
    def boom(x):
        if x % 2:
            raise _ChunkExplosion("odd chunk")
        return x

    for _ in range(3):
        with pytest.raises(_ChunkExplosion):
            parallel_map(boom, list(range(8)),
                         config=ParallelConfig(n_jobs=2, min_chunk=1))
        out = parallel_map(lambda x: x + 1, list(range(16)),
                           config=ParallelConfig(n_jobs=4, min_chunk=1))
        assert out == [x + 1 for x in range(16)]


def test_empty_items():
    assert parallel_map(lambda x: x, []) == []


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1


def test_invalid_config():
    with pytest.raises(ConfigError):
        ParallelConfig(n_jobs=-1)
    with pytest.raises(ConfigError):
        ParallelConfig(min_chunk=0)


def test_tiny_list_bypass_counted():
    from repro.observability import (
        Tracer,
        metrics_reset,
        metrics_snapshot,
        use_tracer,
    )
    with use_tracer(Tracer()):
        metrics_reset()
        parallel_map(lambda x: x, [1, 2, 3],
                     config=ParallelConfig(n_jobs=8, min_chunk=4))
        assert metrics_snapshot()["counters"]["parallel.map.bypassed"] == 1
        # Serial-by-request and genuinely parallel maps do not count.
        metrics_reset()
        parallel_map(lambda x: x, [1, 2, 3],
                     config=ParallelConfig(n_jobs=1, min_chunk=4))
        parallel_map(lambda x: x, list(range(8)),
                     config=ParallelConfig(n_jobs=4, min_chunk=4))
        counters = metrics_snapshot()["counters"]
        assert counters.get("parallel.map.bypassed", 0) == 0
