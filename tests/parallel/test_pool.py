"""Tests for the process-lifetime executor pool and worker capping."""

from __future__ import annotations

import threading

import pytest

from repro.errors import CodecError
from repro.observability import (
    Tracer,
    get_registry,
    metrics_snapshot,
    use_tracer,
)
from repro.parallel import executor
from repro.parallel.executor import (
    ParallelConfig,
    parallel_map,
    shutdown_pool,
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    get_registry().reset(kinds=("counter",))
    yield
    shutdown_pool()


def test_pool_reused_across_calls():
    # Counters are gated on tracing, like every observability hook.
    cfg = ParallelConfig(n_jobs=2, min_chunk=1)
    with use_tracer(Tracer()):
        for _ in range(3):
            got = parallel_map(lambda x: x * x, list(range(8)), config=cfg)
            assert got == [x * x for x in range(8)]
    counters = metrics_snapshot()["counters"]
    assert counters.get("parallel.pool.created") == 1
    assert counters.get("parallel.pool.reused") == 2


def test_pool_grows_by_replacement():
    with use_tracer(Tracer()):
        parallel_map(lambda x: x, list(range(8)),
                     config=ParallelConfig(n_jobs=2, min_chunk=1))
        parallel_map(lambda x: x, list(range(8)),
                     config=ParallelConfig(n_jobs=4, min_chunk=1))
        # Shrinking requests reuse the larger pool.
        parallel_map(lambda x: x, list(range(8)),
                     config=ParallelConfig(n_jobs=3, min_chunk=1))
    counters = metrics_snapshot()["counters"]
    assert counters.get("parallel.pool.created") == 2
    assert counters.get("parallel.pool.reused") == 1


def test_auto_mode_capped_by_items_before_serial_decision():
    """n_jobs=0 with 2 items is a 2-worker job: min_chunk=4 => serial.

    Pre-fix, the serial decision saw the uncapped cpu_count and a
    many-core box took the pool path on tiny inputs.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        got = parallel_map(lambda x: x + 1, [1, 2],
                           config=ParallelConfig(n_jobs=0, min_chunk=4))
    assert got == [2, 3]
    maps = [s for s in tracer.spans if s.name == "parallel.map"]
    assert len(maps) == 1
    assert maps[0].meta["serial"] is True
    assert maps[0].meta["workers"] == 1
    # No pool was touched.
    counters = metrics_snapshot()["counters"]
    assert counters.get("parallel.pool.created", 0) == 0


def test_auto_mode_two_items_small_min_chunk_uses_two_workers():
    tracer = Tracer()
    with use_tracer(tracer):
        got = parallel_map(lambda x: x + 1, [1, 2],
                           config=ParallelConfig(n_jobs=0, min_chunk=1))
    assert got == [2, 3]
    maps = [s for s in tracer.spans if s.name == "parallel.map"]
    # Single-core hosts legitimately resolve to 1 worker (serial).
    import os
    expect_workers = min(os.cpu_count() or 1, 2)
    assert maps[0].meta["workers"] == expect_workers


def test_nested_parallel_map_does_not_deadlock():
    cfg = ParallelConfig(n_jobs=2, min_chunk=1)

    def outer(i):
        return sum(parallel_map(lambda x: x * i, [1, 2, 3], config=cfg))

    got = parallel_map(outer, list(range(6)), config=cfg)
    assert got == [6 * i for i in range(6)]


def test_three_level_nested_map_returns():
    """A 4x4x4 nested map finishes: the maps its pool workers call run
    inline, so no task waits on a pool that its own caller fills."""
    cfg = ParallelConfig(n_jobs=2, min_chunk=1)

    def level(depth):
        def run(i):
            if depth == 0:
                return i
            return sum(parallel_map(level(depth - 1), range(4), config=cfg))
        return run

    got = []
    t = threading.Thread(
        target=lambda: got.append(parallel_map(level(2), range(4),
                                               config=cfg)),
        daemon=True)
    t.start()
    t.join(timeout=20)
    if t.is_alive():
        # Cancel the queued tasks so the stuck workers unwind and the
        # test run can still exit.
        executor._pool.shutdown(wait=False, cancel_futures=True)
        pytest.fail("nested 4x4x4 parallel_map still running after 20 s")
    assert got == [[4 * 6] * 4]


def test_exceptions_propagate_in_task_order():
    cfg = ParallelConfig(n_jobs=2, min_chunk=1)

    def boom(x):
        if x % 2:
            raise CodecError(f"bad item {x}")
        return x

    with pytest.raises(CodecError, match="bad item 1"):
        parallel_map(boom, list(range(8)), config=cfg)


def test_pool_results_ordered_under_uneven_work():
    import time

    def slow_first(x):
        time.sleep(0.02 if x == 0 else 0)
        return x

    got = parallel_map(slow_first, list(range(10)),
                       config=ParallelConfig(n_jobs=4, min_chunk=1))
    assert got == list(range(10))


def test_shutdown_pool_allows_fresh_start():
    cfg = ParallelConfig(n_jobs=2, min_chunk=1)
    with use_tracer(Tracer()):
        parallel_map(lambda x: x, list(range(8)), config=cfg)
        shutdown_pool()
        parallel_map(lambda x: x, list(range(8)), config=cfg)
    assert metrics_snapshot()["counters"].get("parallel.pool.created") == 2


def test_pool_survives_worker_thread_reentry():
    """Worker threads run nested maps inline, on the worker itself."""
    cfg = ParallelConfig(n_jobs=2, min_chunk=1)
    seen = []

    def inner(x):
        seen.append(threading.current_thread().name)
        return x

    def outer(i):
        return parallel_map(inner, [i, i + 1], config=cfg)

    with use_tracer(Tracer()):
        got = parallel_map(outer, [10, 20], config=cfg)
    assert got == [[10, 11], [20, 21]]
    assert seen and all(n.startswith("repro-parallel") for n in seen)
    counters = metrics_snapshot()["counters"]
    assert counters.get("parallel.pool.nested", 0) >= 1
    # Shared pool was created exactly once (outer call).
    assert counters.get("parallel.pool.created") == 1
