"""Central catalog of every metric name the codebase may emit.

The metrics registry itself is name-agnostic: ``counter_inc("tpyo")``
happily creates a fresh, silently-empty series.  This module is the
checked namespace that prevents that -- the ``dpz lint`` rule DPZ401
verifies every literal metric name at an emission site
(``counter_inc`` / ``gauge_set`` / ``gauge_add`` / ``observe`` /
``registry.counter|gauge|histogram``) appears below.

Adding a metric is a two-line change: emit it, and list it here (pick
the set matching its type).  Dynamically-suffixed families register a
prefix in :data:`METRIC_PREFIXES` instead.
"""

from __future__ import annotations

__all__ = ["COUNTERS", "GAUGES", "HISTOGRAMS", "METRIC_NAMES",
           "METRIC_PREFIXES"]

#: Monotonic counters.
COUNTERS: frozenset[str] = frozenset({
    "dpz.compress.runs",
    "dpz.compress.bytes_in",
    "dpz.compress.bytes_out",
    "dpz.decompress.runs",
    "dpz.decompress.bytes_in",
    "dpz.decompress.bytes_out",
    "huffman.encode.symbols",
    "huffman.encode.bytes_out",
    "huffman.decode.symbols",
    "huffman.decode.rounds",
    "parallel.maps",
    "parallel.chunks",
    "parallel.map.bypassed",
    "parallel.pool.created",
    "parallel.pool.reused",
    "parallel.pool.nested",
    "pca.solver.dense",
    "pca.solver.randomized",
    "pca.solver.fallbacks",
    "pca.solver.regrows",
    "profiler.samples",
    "quality.runs",
    "serve.bytes.sent",
    "serve.errors",
    "serve.requests",
    "serve.shed",
    "store.auto.fallbacks",
    "store.auto.trials",
    "store.backend.reads",
    "store.backend.writes",
    "store.basis.fits",
    "store.basis.refits",
    "store.basis.reuses",
    "store.bytes.decoded",
    "store.bytes.read",
    "store.cache.evictions",
    "store.cache.hits",
    "store.cache.invalidations",
    "store.cache.misses",
    "store.chunks.compressed",
    "store.chunks.decoded",
    "store.faults.injected",
    "store.fields.packed",
    "store.paste.fastpath",
    "store.region.reads",
    "sz.compress.runs",
    "sz.compress.bytes_in",
    "sz.compress.bytes_out",
    "sz.decompress.runs",
    "sz.decompress.bytes_in",
    "zfp.compress.runs",
    "zfp.compress.bytes_in",
    "zfp.compress.bytes_out",
    "zfp.decompress.runs",
    "zfp.decompress.bytes_in",
    "zlib.compress.calls",
    "zlib.compress.bytes_in",
    "zlib.compress.bytes_out",
    "zlib.compress.stored_raw",
    "zlib.decompress.calls",
    "zlib.decompress.bytes_in",
})

#: Last-value gauges.
GAUGES: frozenset[str] = frozenset({
    "dpz.last.cr",
    "dpz.last.k",
    "parallel.pool.size",
    "parallel.queue.depth",
    "serve.queue.depth",
    "store.cache.bytes",
    "store.last.amplification",
    "sz.last.cr",
    "zfp.last.cr",
})

#: Fixed-bucket log-scale histograms.
HISTOGRAMS: frozenset[str] = frozenset({
    "dpz.compress.seconds",
    "dpz.decompress.seconds",
    "huffman.encode.symbols_per_call",
    "huffman.decode.symbols_per_call",
    "parallel.chunk.seconds",
    "serve.request.seconds",
    "store.chunk.compress.seconds",
    "store.region.seconds",
    "sz.compress.seconds",
    "sz.decompress.seconds",
    "zfp.compress.seconds",
    "zfp.decompress.seconds",
    "zlib.compress.frame_bytes",
    "zlib.compress.ratio",
})

#: Every registered exact metric name.
METRIC_NAMES: frozenset[str] = COUNTERS | GAUGES | HISTOGRAMS

#: Registered prefixes for dynamically-suffixed metric families.
#: ``quality.*`` carries the Z-checker-style telemetry keys (psnr_db,
#: max_abs_err, ... -- see repro.observability.quality).
METRIC_PREFIXES: frozenset[str] = frozenset({
    "quality.",
})
