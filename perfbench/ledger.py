"""Statistics, the metric catalog and the per-layer span ledger.

Every timing the benchmark reports is a median over many per-operation
samples taken inside one run; a tail percentile is reported only when
at least :data:`MIN_BEYOND` samples lie beyond it (:func:`percentile`
refuses otherwise, and the sample count travels with the value).

The per-layer ledger is built from the spans and counters the program
already emits: :func:`span_self_times` turns a tracer's span list into
per-name self time (span time minus the part its child spans cover),
and :func:`counter_delta` diffs two metric-registry snapshots.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable

#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: name -> (unit, better).  Every workload prints all of them with
#: ``--trace 0``; see README.md for which workload owns which.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "dpz.compress_mb_s": ("MB/s", "higher"),
    "dpz.decompress_mb_s": ("MB/s", "higher"),
    "sz.compress_mb_s": ("MB/s", "higher"),
    "sz.decompress_mb_s": ("MB/s", "higher"),
    "zfp.compress_mb_s": ("MB/s", "higher"),
    "zfp.decompress_mb_s": ("MB/s", "higher"),
    "cr": ("ratio", "higher"),
    "psnr_db": ("dB", "higher"),
    "store.pack_mb_s": ("MB/s", "higher"),
    "store.get_mb_s": ("MB/s", "higher"),
    "read.p50_ms": ("ms", "lower"),
    "read.p99_ms": ("ms", "lower"),
    "reads_per_s": ("1/s", "higher"),
}

_S, _MS, _N, _F = ("s", "lower"), ("ms", "lower"), ("count", "higher"), \
    ("ratio", "higher")

#: Per-layer metrics printed with ``--trace 1`` (0 where a workload
#: does not exercise the layer).
PER_LAYER: dict[str, tuple[str, str]] = {
    # repro.core (DPZ compress / decompress stages)
    **{f"dpz.{s}_s": _S for s in (
        "sampling", "decompose", "dct", "pca", "quantize", "encode",
        "correction", "serialize", "deserialize", "dequantize",
        "inverse_pca", "inverse_transform", "reassemble")},
    "pca.solver.randomized": _N,
    "pca.solver.dense": _N,
    # repro.codecs
    "huffman.encode_s": _S,
    "huffman.encode.symbols": _N,
    "huffman.decode_s": _S,
    "huffman.decode.symbols": _N,
    "zlib.compress.calls": ("count", "lower"),
    "zlib.decompress.calls": ("count", "lower"),
    # repro.baselines
    **{f"sz.{s}_s": _S for s in ("predict", "encode", "decode",
                                 "reconstruct")},
    **{f"zfp.{s}_s": _S for s in ("transform", "bitplane_encode",
                                  "bitplane_decode", "inverse_transform")},
    # repro.store
    "sz.chunk_decode_ms": _MS,
    "dpz.chunk_decode_ms": _MS,
    "store.chunk_overhead_ms": _MS,
    "store.chunks.decoded": ("count", "lower"),
    "store.bytes.read": ("bytes", "lower"),
    "store.bytes.decoded": ("bytes", "lower"),
    "store.amplification": ("ratio", "lower"),
    "store.basis.fits": ("count", "lower"),
    "store.basis.reuses": _N,
    "store.basis.refits": ("count", "lower"),
    "store.basis.reuse_frac": _F,
    "store.auto.trials": ("count", "lower"),
    "store.auto.fallbacks": ("count", "lower"),
    "store.cache.hit_frac": _F,
    # repro.parallel
    "parallel.map_s": _S,
    "parallel.chunk_s": _S,
    "parallel.busy_frac": _F,
    # repro.serve
    "serve.handle_p50_ms": _MS,
    "serve.overhead_ms": _MS,
    "serve.requests": _N,
    "serve.errors": ("count", "lower"),
    "serve.shed": ("count", "lower"),
    "client.busy_frac": ("ratio", "lower"),
    "server.busy_frac": ("ratio", "lower"),
    # repro.observability
    "unattributed_s": _S,
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Program span name -> per-layer self-time metric.
SPAN_METRICS: dict[str, str] = {
    **{f"dpz.{s}": f"dpz.{s}_s" for s in (
        "sampling", "decompose", "dct", "pca", "quantize", "encode",
        "correction", "serialize", "deserialize", "dequantize",
        "inverse_pca", "inverse_transform", "reassemble")},
    "huffman.encode": "huffman.encode_s",
    "huffman.decode": "huffman.decode_s",
    **{f"sz.{s}": f"sz.{s}_s" for s in ("predict", "encode", "decode",
                                        "reconstruct")},
    **{f"zfp.{s}": f"zfp.{s}_s" for s in (
        "transform", "bitplane_encode", "bitplane_decode",
        "inverse_transform")},
}

#: Program counters copied straight into the ledger.
COUNTERS = (
    "pca.solver.randomized", "pca.solver.dense",
    "huffman.encode.symbols", "huffman.decode.symbols",
    "zlib.compress.calls", "zlib.decompress.calls",
    "store.chunks.decoded", "store.bytes.read", "store.bytes.decoded",
    "store.basis.fits", "store.basis.reuses", "store.basis.refits",
    "store.auto.trials", "store.auto.fallbacks",
)


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def median(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(vals))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the rank, so a reported tail always rests on
    more than a handful of outliers.
    """
    vals = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(vals)))
    beyond = len(vals) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(vals)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND} (>= {math.ceil(MIN_BEYOND / (1 - q / 100))}"
            f" samples)")
    return float(vals[rank - 1])


def window_rate(latencies: list[float], windows: int = 5) -> float:
    """Median over ``windows`` consecutive groups of ops per busy second.

    For one caller issuing operations back to back; the median keeps
    one stall of the shared host from moving the whole run's rate.
    """
    n = len(latencies)
    groups = [latencies[n * k // windows:n * (k + 1) // windows]
              for k in range(windows)]
    return median(len(g) / sum(g) for g in groups if g)


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def psnr_db(original: Any, decoded: Any) -> float:
    """Peak signal-to-noise ratio against the original's value range."""
    import numpy as np

    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(decoded, dtype=np.float64)
    rng = float(a.max() - a.min())
    mse = float(np.mean((a - b) ** 2))
    return 20.0 * math.log10(rng) - 10.0 * math.log10(max(mse, 1e-300))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons.

    ``data_failed`` counts only wrong outputs; ``failed`` also counts
    lifecycle failures (a server that exits badly or leaves a socket
    or a process behind), whose outputs may all have been right.
    """

    attempted: int = 0
    failed: int = 0
    data_failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str, *,
              lifecycle: bool = False) -> bool:
        """Count one attempted operation; ``ok=False`` counts a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.data_failed += not lifecycle
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def record(self, ok: int, reasons: list[str]) -> None:
        """Count ``ok`` passed operations and one failure per reason."""
        self.attempted += ok
        for reason in reasons:
            self.check(False, reason)


def span_self_times(spans: Iterable[Any], *, thread: int | None = None
                    ) -> dict[str, float]:
    """Total self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children.  ``thread`` restricts the sum to one thread's spans, which
    keeps pooled work (whose spans run on other threads, concurrently)
    from being counted twice against one wall clock.
    """
    spans = [s for s in spans if thread is None or s.thread == thread]
    child: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child[s.parent_id] = child.get(s.parent_id, 0.0) + s.dur
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.dur - child.get(s.span_id,
                                                                0.0)
    return out


def span_totals(spans: Iterable[Any], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s.dur for s in spans if s.name == name)


def counter_delta(before: dict[str, Any], after: dict[str, Any]
                  ) -> dict[str, float]:
    """Per-counter increase between two registry snapshots."""
    b = before.get("counters", {})
    return {k: float(v) - float(b.get(k, 0))
            for k, v in after.get("counters", {}).items()}


def histogram_delta_quantile(before: dict[str, Any], after: dict[str, Any],
                             name: str, q: float) -> float:
    """``q``-quantile of the observations a histogram gained between two
    snapshots, estimated with the program's own bucket interpolation."""
    from repro.observability import Histogram

    h_after = after.get("histograms", {}).get(name)
    if not h_after:
        return 0.0
    h_before = before.get("histograms", {}).get(name) or {}
    counts = list(h_after["counts"])
    for i, c in enumerate(h_before.get("counts", [])):
        counts[i] -= c
    total = sum(counts)
    if total <= 0:
        return 0.0
    hist = Histogram(name, lo=h_after["lo"], hi=h_after["hi"],
                     buckets_per_decade=h_after["buckets_per_decade"])
    hist.merge_binned(counts, total, 0.0)
    return hist.quantile(q)


def layer_ledger(spans: list[Any], counters: dict[str, float], *,
                 main_thread: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced phase of the benchmark process.

    ``unattributed_s`` is the phase wall time minus the self time of
    every program span on the benchmark's own thread: benchmark-side
    work (checks, loop overhead) plus program code outside any span.
    """
    out = {name: 0.0 for name in PER_LAYER}
    selfs = span_self_times(spans)
    for span_name, metric in SPAN_METRICS.items():
        out[metric] = selfs.get(span_name, 0.0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0.0)
    fitted = sum(out[k] for k in ("store.basis.fits", "store.basis.reuses",
                                  "store.basis.refits"))
    out["store.basis.reuse_frac"] = (out["store.basis.reuses"] / fitted
                                     if fitted else 0.0)
    out["parallel.map_s"] = span_totals(spans, "parallel.map")
    out["parallel.chunk_s"] = span_totals(spans, "parallel.chunk")
    main = span_self_times(spans, thread=main_thread)
    attributed = sum(v for k, v in main.items() if not k.startswith("bench."))
    out["unattributed_s"] = wall_s - attributed
    return out
