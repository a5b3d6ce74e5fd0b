"""Observability must be invisible: byte-identity and overhead bounds."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.compressor import DPZCompressor
from repro.core.config import DPZ_L, DPZ_S
from repro.datasets.registry import get_dataset
from repro.observability import (
    Tracer,
    counter_inc,
    gauge_set,
    get_registry,
    observe,
    span,
    use_quality,
    use_tracer,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().clear()
    yield
    get_registry().clear()


@pytest.mark.parametrize("config", [DPZ_L, DPZ_S], ids=["dpz-l", "dpz-s"])
def test_archive_byte_identical_with_observability_on(config):
    """Full instrumentation (tracer + metrics + quality telemetry) may
    not change a single output byte, in either direction."""
    data = get_dataset("Isotropic", "small")
    comp = DPZCompressor(config)

    blob_off = comp.compress(data)
    recon_off = DPZCompressor.decompress(blob_off)

    with use_tracer(Tracer()), use_quality():
        blob_on = comp.compress(data)
        recon_on = DPZCompressor.decompress(blob_on)

    assert blob_on == blob_off
    assert np.array_equal(recon_on, recon_off)


def test_quality_pass_does_not_perturb_stats(smooth_2d):
    data = smooth_2d.astype(np.float32)
    comp = DPZCompressor(DPZ_L)
    _, stats_off = comp.compress_with_stats(data)
    with use_tracer(Tracer()), use_quality():
        _, stats_on = comp.compress_with_stats(data)
    assert stats_on.cr == stats_off.cr
    assert stats_on.k == stats_off.k
    assert stats_on.tve_at_k == stats_off.tve_at_k


def test_disabled_overhead_under_one_percent():
    """Analytic bound: per-call cost of every disabled helper, scaled by
    a generous call-site count, stays under 1% of a real 64^3 compress.

    A direct wall-clock A/B diff of two compress runs is noisier than
    the effect being measured, so we bound the overhead instead: each
    disabled helper is a global load + None test + return, and a traced
    run on this field fires well under 500 instrumentation calls.
    Both sides are best-of-N: the bound compares intrinsic costs, and a
    single timing window flakes on a one-off scheduler stall when the
    test runs late in a long suite.
    """
    data = get_dataset("Isotropic", "small")
    comp = DPZCompressor(DPZ_L)
    comp.compress(data)  # warm
    compress_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        comp.compress(data)
        compress_s = min(compress_s, time.perf_counter() - t0)

    n = 50_000
    per_bundle_s = float("inf")
    for _ in range(4):
        t0 = time.perf_counter()
        for _ in range(n):
            span("bench.noop")
            counter_inc("bench.noop")
            gauge_set("bench.noop", 1.0)
            observe("bench.noop", 1.0)
        per_bundle_s = min(per_bundle_s, (time.perf_counter() - t0) / n)

    # A traced compress+decompress on this field opens ~12 spans, ~12
    # histogram observes and a handful of counter/gauge calls, so 200
    # bundles (800 helper calls) is well over 10x anything the pipeline
    # actually executes -- while leaving slack for the CPU throttling
    # that hits tight interpreter loops late in a long suite much
    # harder than the numpy-bound compress baseline.
    bound = 200 * per_bundle_s
    assert bound < 0.01 * compress_s, (
        f"disabled observability bound {bound * 1e6:.1f}us is not <1% of "
        f"compress ({compress_s * 1e3:.1f}ms)")
    # And nothing leaked into the registry while disabled.
    from repro.observability import metrics_snapshot
    assert "bench.noop" not in metrics_snapshot()["counters"]


def test_untraced_parallel_map_overhead_under_one_percent():
    """The telemetry plane must cost nothing on the untraced pooled
    path: no spans, no metric writes.  Analytic bound as
    above -- per-item dispatch overhead of ``parallel_map`` versus a
    bare loop, scaled to a realistic chunk count, must stay under 1%
    of one real chunked compress."""
    from repro.parallel.executor import ParallelConfig, parallel_map

    data = get_dataset("Isotropic", "small")
    comp = DPZCompressor(DPZ_L)
    comp.compress(data)  # warm
    t0 = time.perf_counter()
    comp.compress(data)
    compress_s = time.perf_counter() - t0

    items = list(range(2_000))
    fn = int  # trivially cheap: the measurement is pure dispatch
    config = ParallelConfig(n_jobs=1)
    parallel_map(fn, items, config=config)  # warm
    t0 = time.perf_counter()
    parallel_map(fn, items, config=config)
    with_map_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    [fn(item) for item in items]
    bare_s = time.perf_counter() - t0

    per_item_overhead = max(with_map_s - bare_s, 0.0) / len(items)
    # A 64^3 field at 16^3 chunks is 64 chunks; bound at 512.
    bound = 512 * per_item_overhead
    assert bound < 0.01 * compress_s, (
        f"untraced parallel_map bound {bound * 1e6:.1f}us is not <1% "
        f"of compress ({compress_s * 1e3:.1f}ms)")
    # And the untraced run left no telemetry behind.
    from repro.observability import metrics_snapshot
    snap = metrics_snapshot()
    assert "parallel.maps" not in snap["counters"]


def test_server_not_started_costs_nothing():
    """With no telemetry server started there must be no server
    thread, no socket, and not even the HTTP stack imported."""
    import subprocess
    import sys as _sys
    import threading

    assert not [t for t in threading.enumerate()
                if t.name == "dpz-serve-loop"]
    # A fresh interpreter importing the package and compressing must
    # never pull in the serve app, its event loop or an HTTP server.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.compressor import DPZCompressor\n"
        "from repro.core.config import DPZ_L\n"
        "DPZCompressor(DPZ_L).compress("
        "np.random.RandomState(0).rand(16, 16, 16).astype(np.float32))\n"
        "for mod in ('repro.serve', 'asyncio', 'http.server'):\n"
        "    assert mod not in sys.modules, mod\n"
    )
    proc = subprocess.run(
        [_sys.executable, "-c", code], capture_output=True, text=True,
        env={"PATH": "", "PYTHONPATH": ":".join(_sys.path)})
    assert proc.returncode == 0, proc.stderr
