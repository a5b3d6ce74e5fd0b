"""Ordered parallel map over data chunks.

A thin, dependency-free layer over :mod:`concurrent.futures`:

* ``n_jobs=1`` (the default) runs serially with zero overhead -- the
  right choice for small inputs, where pool startup dominates;
* ``n_jobs>1`` uses a thread pool.  The heavy kernels this project
  parallelizes (blockwise DCT, quantization, Huffman bit packing) spend
  their time inside NumPy C loops that release the GIL, so threads give
  real speedup without the serialization cost of processes;
* ``n_jobs=0`` or ``None`` auto-sizes to ``os.cpu_count()``.

The thread pool is process-lifetime: the first parallel call creates
it, later calls reuse it, and it is lazily grown (replaced) when a call
asks for more workers than the current pool has.  Spinning up threads
per stage call costs ~100us each; a pipeline with several parallel
stages per field pays that once instead of per stage.  Pool reuse is
observable through the ``parallel.pool.created`` / ``parallel.pool.reused``
counters.  Calls made *from inside* a pool worker (nested parallelism)
use a transient pool so they cannot deadlock waiting on their own pool.

Results are always returned in task order regardless of completion
order, so callers can concatenate chunk outputs directly.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import time

from repro.devtools.sanitize import checked_lock
from repro.errors import ConfigError
from repro.observability import (
    counter_inc,
    gauge_add,
    gauge_set,
    observe,
    span,
    tracing_enabled,
)

__all__ = ["ParallelConfig", "parallel_map", "pool_status", "resolve_jobs",
           "shutdown_pool"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ParallelConfig:
    """How parallel stages should run.

    Attributes
    ----------
    n_jobs:
        1 = serial, >1 = that many threads, 0/None = one per CPU.
    min_chunk:
        Inputs smaller than this run serially regardless of ``n_jobs``
        (pool overhead would dominate).
    """

    n_jobs: int | None = 1
    min_chunk: int = 4

    def __post_init__(self) -> None:
        if self.n_jobs is not None and self.n_jobs < 0:
            raise ConfigError(f"n_jobs must be >= 0 or None, got {self.n_jobs}")
        if self.min_chunk < 1:
            raise ConfigError(f"min_chunk must be >= 1, got {self.min_chunk}")


def resolve_jobs(n_jobs: int | None) -> int:
    """Translate the ``n_jobs`` convention into a concrete worker count."""
    if n_jobs is None or n_jobs == 0:
        return os.cpu_count() or 1
    return n_jobs


# -- process-lifetime pool ---------------------------------------------------

class _WorkerFlag(threading.local):
    """Per-thread marker set by the pool initializer."""

    flag: bool = False


_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = checked_lock("parallel.executor._pool_lock")
_in_worker = _WorkerFlag()


def _worker_init() -> None:
    _in_worker.flag = True


def pool_status() -> dict[str, object]:
    """Liveness snapshot of the shared pool (the ``/healthz`` source).

    Never creates a pool; safe to call from any thread at any time.
    """
    with _pool_lock:
        pool, workers = _pool, _pool_workers
    threads = getattr(pool, "_threads", None) if pool is not None else None
    return {
        "created": pool is not None,
        "workers": workers,
        "alive": (sum(1 for t in threads if t.is_alive())
                  if threads is not None else 0),
    }


def shutdown_pool() -> None:
    """Tear down the shared pool (mainly for tests / interpreter exit)."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0


def _get_pool(workers: int) -> ThreadPoolExecutor:
    """Return the shared pool, growing it by replacement if too small.

    The pool only ever grows: a stage that needs 2 workers happily runs
    on an 8-worker pool, but not vice versa.  Replacement shuts the old
    pool down without waiting -- its threads finish their (already
    completed, since calls are serialized by the caller) work and exit.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-parallel",
                initializer=_worker_init,
            )
            _pool_workers = workers
            counter_inc("parallel.pool.created")
            gauge_set("parallel.pool.size", workers)
        else:
            counter_inc("parallel.pool.reused")
        return _pool


def _on_pool(run: Callable[[ThreadPoolExecutor], R], workers: int,
             nested: bool) -> R:
    """Call ``run`` with the shared pool, or with a transient pool when
    called from inside a pool worker, which could otherwise deadlock
    waiting on its own pool."""
    if nested:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return run(pool)
    return run(_get_pool(workers))


def parallel_map(fn: Callable[[T], R], items: Sequence[T], *,
                 config: ParallelConfig | None = None) -> list[R]:
    """Apply ``fn`` to every item, possibly in parallel; ordered results.

    Exceptions raised by ``fn`` propagate to the caller (the first one
    encountered in task order), matching serial semantics.
    """
    config = config or ParallelConfig()
    # Cap by the number of items *before* deciding serial: n_jobs=0 on a
    # 2-item input is a 2-worker job, and with min_chunk=4 it runs
    # serially even on a many-core box.
    workers = min(resolve_jobs(config.n_jobs), max(len(items), 1))
    serial = workers <= 1 or len(items) < config.min_chunk
    if serial and len(items) < config.min_chunk \
            and resolve_jobs(config.n_jobs) > 1:
        # Parallelism was requested but the work list is too small to
        # amortize pool dispatch -- the tiny-list bypass fired.
        counter_inc("parallel.map.bypassed")

    nested = _in_worker.flag
    if nested and not serial:
        counter_inc("parallel.pool.nested")

    if not tracing_enabled():
        # Untraced fast path: zero instrumentation overhead.
        if serial:
            return [fn(item) for item in items]
        return _on_pool(lambda pool: list(pool.map(fn, items)),
                        workers, nested)

    # Traced path: one parent span for the map, one child span per
    # chunk (emitted from the worker thread), so thread scaling and
    # per-chunk skew are visible in the trace.  Workers write the
    # shared registry directly.  The queue-depth gauge tracks chunks
    # dispatched but not yet finished; the chunk-latency histogram
    # feeds the bench gate's p50/p95 check.
    counter_inc("parallel.maps")
    counter_inc("parallel.chunks", len(items))
    gauge_add("parallel.queue.depth", len(items))

    def run_chunk(pair: tuple[int, T]) -> R:
        i, item = pair
        t0 = time.perf_counter()
        try:
            with span("parallel.chunk", index=i):
                return fn(item)
        finally:
            observe("parallel.chunk.seconds", time.perf_counter() - t0)
            gauge_add("parallel.queue.depth", -1)

    def run_pooled(pool: ThreadPoolExecutor) -> list[R]:
        futures = [pool.submit(run_chunk, p) for p in enumerate(items)]
        try:
            return [f.result() for f in futures]
        finally:
            # After a failed chunk the chunks still queued are cancelled
            # and never run, so their depth is taken off here.
            gauge_add("parallel.queue.depth",
                      -sum(f.cancel() for f in futures))

    with span("parallel.map", n_items=len(items),
              workers=1 if serial else workers, serial=serial):
        if serial:
            return [run_chunk(p) for p in enumerate(items)]
        return _on_pool(run_pooled, workers, nested)
