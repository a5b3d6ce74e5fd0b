#!/usr/bin/env python
"""Perf-trajectory bench harness: writes ``BENCH_pr8.json``.

Measures, for one field of each of the paper's three dataset families
(turbulence / climate / cosmology):

* DPZ compression and decompression **throughput** (MB/s of original
  data),
* the end-to-end **compression ratio**, and
* **per-stage time shares** from the observability tracer (the stage
  vocabulary of the paper's Tables III/IV and Fig. 9).

It also measures the **tracing overhead**: compression wall time with
the tracer installed vs. disabled on the 64^3 isotropic field.  The
acceptance bar for the instrumentation layer is that disabled-path
overhead stays unmeasurable (<1%); enabled overhead is reported for
the record.

The output JSON extends the ``BENCH_*.json`` trajectory that later PRs
compare against: re-run after a perf change and diff the numbers with
``benchmarks/compare.py``.  Full (non-smoke) runs also record a Huffman
decode micro-benchmark (vectorized vs. reference scalar decoder on a
1M-symbol seeded stream).

The record additionally embeds a full **metric-registry snapshot**
(``"metrics"``) from one untimed, quality-telemetry-on, ``n_jobs=2``
compress+decompress of the isotropic field.  The timed repeats above
stay quality-off so throughput numbers remain comparable across the
trajectory; the snapshot pass exists so the gate can check
histogram-derived chunk-latency quantiles (``parallel.chunk.seconds``
p50/p95) and so every bench record carries a quality data point.

Each field record also carries the **eigensolver telemetry** of the
raw-speed PR: which ``fit_kpca`` path ran (``pca.solver.*`` counters
from the timed compress) and a **solver ablation** -- best-of-N
compress wall time with ``pca_solver="dense"`` forced vs. the ``auto``
default -- so the randomized-solver speedup is a number in the record,
not an anecdote.

The telemetry-plane PR adds a **worker-telemetry** section
(``"worker_telemetry"``): the same traced store pack run serially and
pooled (``n_jobs=4``), recording that every ``store.*`` counter total
and the chunk-compress histogram are exactly ``n_jobs``-invariant
after the parent merges the workers' snapshot frames, plus how many
frames were merged and whether any merge had to fall back to the lossy
midpoint path.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # CI quick
    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_pr8.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dataclasses import replace  # noqa: E402

from repro.core.compressor import DPZCompressor  # noqa: E402
from repro.core.config import DPZ_L  # noqa: E402
from repro.datasets.registry import get_dataset, get_spec  # noqa: E402
from repro.observability import (  # noqa: E402
    Tracer,
    get_registry,
    metrics_reset,
    metrics_snapshot,
    trace_summary,
    use_quality,
    use_tracer,
)

#: One field per dataset family, Table-I names.
DEFAULT_FIELDS = ("Isotropic", "FLDSC", "HACC-x")

_FAMILY = {
    "Turbulence simulation": "turbulence",
    "Climate simulation": "climate",
    "Cosmology particle simulation": "cosmology",
}


def bench_field(name: str, size: str, repeats: int) -> dict:
    """Traced compress+decompress measurements for one field."""
    spec = get_spec(name)
    data = get_dataset(name, size)
    comp = DPZCompressor(DPZ_L)

    best_c = best_d = float("inf")
    stats = None
    tracer_c = tracer_d = None
    blob = b""
    solver_counters: dict = {}
    for _ in range(repeats):
        get_registry().reset(kinds=("counter",))
        tc = Tracer()
        t0 = time.perf_counter()
        with use_tracer(tc):
            blob, stats = comp.compress_with_stats(data)
            dt_c = time.perf_counter() - t0
            solver_counters = {
                k.rsplit(".", 1)[-1]: v
                for k, v in metrics_snapshot()["counters"].items()
                if k.startswith("pca.solver.") and v
            }
        td = Tracer()
        t0 = time.perf_counter()
        with use_tracer(td):
            recon = DPZCompressor.decompress(blob)
        dt_d = time.perf_counter() - t0
        assert recon.shape == data.shape
        if dt_c < best_c:
            best_c, tracer_c = dt_c, tc
        if dt_d < best_d:
            best_d, tracer_d = dt_d, td

    # Solver ablation: the same compress with the dense eigensolver
    # forced, so the record quantifies what the randomized path buys.
    dense_comp = DPZCompressor(replace(DPZ_L, pca_solver="dense"))
    best_dense = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        dense_comp.compress(data)
        best_dense = min(best_dense, time.perf_counter() - t0)

    mb = data.nbytes / 1e6
    summary_c = trace_summary(tracer_c, prefix="dpz.")
    summary_d = trace_summary(tracer_d, prefix="dpz.")
    return {
        "family": _FAMILY.get(spec.kind, spec.kind),
        "shape": list(data.shape),
        "original_nbytes": int(data.nbytes),
        "compressed_nbytes": len(blob),
        "cr": round(stats.cr, 4),
        "k": stats.k,
        "m_blocks": stats.m_blocks,
        "compress_s": round(best_c, 6),
        "decompress_s": round(best_d, 6),
        "throughput_mb_s": round(mb / best_c, 3),
        "decompress_mb_s": round(mb / best_d, 3),
        "stage_times_s": summary_c["stage_times_s"],
        "stage_shares": summary_c["stage_shares"],
        "decompress_stage_shares": summary_d["stage_shares"],
        "pca_solver": solver_counters,
        "solver_ablation": {
            "dense_s": round(best_dense, 6),
            "auto_s": round(best_c, 6),
            "speedup": round(best_dense / best_c, 3),
        },
    }


def capture_metrics_snapshot(size: str) -> dict:
    """One untimed, fully-instrumented run; returns the registry snapshot.

    Runs quality telemetry on and ``n_jobs=2`` (the DPZ_L default of 1
    bypasses ``parallel_map`` entirely, so the chunk-latency histogram
    would stay empty).  Output is n_jobs-deterministic, so this pass
    measures the same pipeline the timed repeats ran.
    """
    data = get_dataset("Isotropic", size)
    comp = DPZCompressor(replace(DPZ_L, n_jobs=2))
    metrics_reset()
    with use_tracer(Tracer()), use_quality():
        blob, stats = comp.compress_with_stats(data)
        recon = DPZCompressor.decompress(blob)
    assert recon.shape == data.shape
    snap = metrics_snapshot()
    snap["snapshot_field"] = "Isotropic"
    snap["snapshot_cr"] = round(stats.cr, 4)
    return snap


def measure_tracing_overhead(size: str, repeats: int) -> dict:
    """Best-of-N compress wall time, tracer off vs. on (Isotropic)."""
    data = get_dataset("Isotropic", size)
    comp = DPZCompressor(DPZ_L)
    comp.compress(data)  # warm caches / JIT-free but fair

    def best(traced: bool) -> float:
        times = []
        for _ in range(repeats):
            if traced:
                t0 = time.perf_counter()
                with use_tracer(Tracer()):
                    comp.compress(data)
                times.append(time.perf_counter() - t0)
            else:
                t0 = time.perf_counter()
                comp.compress(data)
                times.append(time.perf_counter() - t0)
        return min(times)

    off = best(traced=False)
    on = best(traced=True)

    # Direct cost of the disabled fast path: one span() call is a global
    # load + None test.  A traced compress on this field emits ~12 DPZ
    # spans plus a handful of codec spans; scale the per-call cost by a
    # generous 100 call sites to bound the disabled-path overhead.
    from repro.observability import span as _span
    n_calls = 1_000_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        _span("bench.noop")
    per_call_s = (time.perf_counter() - t0) / n_calls
    disabled_pct = 100.0 * (100 * per_call_s) / off

    return {
        "disabled_s": round(off, 6),
        "enabled_s": round(on, 6),
        "enabled_overhead_pct": round(100.0 * (on - off) / off, 2),
        "disabled_span_call_ns": round(per_call_s * 1e9, 1),
        "disabled_overhead_pct_bound": round(disabled_pct, 4),
    }


def measure_huffman_microbench(n_symbols: int = 1_000_000,
                               repeats: int = 3) -> dict:
    """Vectorized vs. reference scalar Huffman decode on a seeded stream."""
    from repro.codecs.huffman import (
        HuffmanTable,
        _decode_scalar,
        huffman_decode,
        huffman_encode,
    )

    rng = np.random.default_rng(42)
    p = 1.0 / np.arange(1, 257)
    symbols = rng.choice(256, size=n_symbols, p=p / p.sum()).astype(np.int64)
    table = HuffmanTable.from_symbols(symbols, alphabet_size=256)
    blob = huffman_encode(symbols, table)

    best_new = best_ref = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        got, _ = huffman_decode(blob, table)
        best_new = min(best_new, time.perf_counter() - t0)
    assert np.array_equal(got, symbols)

    sym_tab, len_tab, L = table.decode_tables()
    # Skip the uvarint header exactly as huffman_decode does.
    from repro.codecs.varint import decode_uvarint
    count, pos = decode_uvarint(blob)
    buf = np.frombuffer(blob, dtype=np.uint8, offset=pos)
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref, _ = _decode_scalar(buf, count, sym_tab, len_tab, L)
        best_ref = min(best_ref, time.perf_counter() - t0)
    assert np.array_equal(ref, symbols)

    return {
        "n_symbols": n_symbols,
        "vectorized_s": round(best_new, 6),
        "scalar_s": round(best_ref, 6),
        "speedup_vs_scalar": round(best_ref / best_new, 2),
    }


def measure_worker_telemetry(size: str) -> dict:
    """Traced store pack, serial vs. pooled: the merged worker frames
    must make every ``store.*`` counter and the chunk-compress
    histogram exactly ``n_jobs``-invariant."""
    from repro.observability import get_registry
    from repro.store import Store
    from repro.store.backends.memory import MemoryStore

    data = get_dataset("Isotropic", size)

    def packed(n_jobs: int) -> dict:
        get_registry().clear()
        with use_tracer(Tracer()):
            st = Store.create(MemoryStore())
            st.add("vx", data, codec="dpz", chunk_shape=16, n_jobs=n_jobs)
        snap = metrics_snapshot()
        get_registry().clear()
        return snap

    serial = packed(1)
    pooled = packed(4)
    store_keys = sorted(
        k for k in set(serial["counters"]) | set(pooled["counters"])
        if k.startswith("store."))
    mismatched = [k for k in store_keys
                  if serial["counters"].get(k, 0)
                  != pooled["counters"].get(k, 0)]
    # Bucket placement of a *timing* histogram varies run to run (the
    # values are wall-clock durations); the merge invariant is that no
    # observation is lost, i.e. the total counts match exactly.
    hist_s = serial["histograms"].get("store.chunk.compress.seconds", {})
    hist_p = pooled["histograms"].get("store.chunk.compress.seconds", {})
    return {
        "n_jobs": 4,
        "chunks": int(serial["counters"].get("store.chunks.compressed", 0)),
        "merged_frames": int(
            pooled["counters"].get("worker.snapshots.merged", 0)),
        "lossy_merges": int(
            pooled["counters"].get("worker.merge.lossy", 0)),
        "counters_equal_serial": not mismatched,
        "mismatched_counters": mismatched,
        "histogram_count_serial": int(hist_s.get("count", 0)),
        "histogram_count_pooled": int(hist_p.get("count", 0)),
        "histogram_counts_equal": (
            hist_s.get("count", 0) == hist_p.get("count", -1)),
        "store_counters": {
            k: int(pooled["counters"].get(k, 0)) for k in store_keys},
    }


#: Keys the CI smoke job asserts on (keep in sync with the workflow).
EXPECTED_FIELD_KEYS = (
    "family", "cr", "throughput_mb_s", "decompress_mb_s",
    "stage_shares", "stage_times_s", "pca_solver", "solver_ablation",
)


def run(fields=DEFAULT_FIELDS, *, size: str = "small", repeats: int = 3,
        smoke: bool = False, out: str | None = None) -> dict:
    """Run the bench; returns (and optionally writes) the JSON record."""
    if smoke:
        # Best-of-2: a single repeat makes the stage shares flaky enough
        # to trip the CI regression gate on a one-off scheduler stall.
        repeats = 2
    result: dict = {
        "bench": "pr8-telemetry-plane",
        "size": size,
        "repeats": repeats,
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "fields": {},
    }
    for name in fields:
        print(f"[bench] {name} ...", flush=True)
        result["fields"][name] = bench_field(name, size, repeats)
        f = result["fields"][name]
        print(f"[bench]   CR {f['cr']:.2f}x  "
              f"compress {f['throughput_mb_s']:.1f} MB/s  "
              f"decompress {f['decompress_mb_s']:.1f} MB/s", flush=True)
        ab = f["solver_ablation"]
        print(f"[bench]   solver {f['pca_solver'] or {}} "
              f"dense {ab['dense_s'] * 1e3:.1f} ms -> "
              f"auto {ab['auto_s'] * 1e3:.1f} ms "
              f"({ab['speedup']:.2f}x)", flush=True)
    print("[bench] metrics snapshot pass (quality on, n_jobs=2) ...",
          flush=True)
    result["metrics"] = capture_metrics_snapshot(size)
    chunk = result["metrics"]["histograms"].get("parallel.chunk.seconds", {})
    if chunk:
        print(f"[bench]   chunk latency p50 {chunk['p50'] * 1e3:.2f} ms  "
              f"p95 {chunk['p95'] * 1e3:.2f} ms  "
              f"({chunk['count']} chunks)", flush=True)
    psnr = result["metrics"]["gauges"].get("quality.psnr_db")
    if psnr is not None:
        print(f"[bench]   quality PSNR {psnr:.2f} dB", flush=True)
    print("[bench] worker telemetry (serial vs n_jobs=4 pack) ...",
          flush=True)
    result["worker_telemetry"] = measure_worker_telemetry(size)
    wt = result["worker_telemetry"]
    print(f"[bench]   {wt['chunks']} chunks, "
          f"{wt['merged_frames']} frames merged, "
          f"counters equal: {wt['counters_equal_serial']}, "
          f"histogram equal: {wt['histogram_counts_equal']}", flush=True)
    if not smoke:
        print("[bench] tracing overhead ...", flush=True)
        result["tracing_overhead"] = measure_tracing_overhead(
            size, max(repeats, 5))
        print(f"[bench]   enabled-tracer overhead "
              f"{result['tracing_overhead']['enabled_overhead_pct']:+.1f}%",
              flush=True)
        print("[bench] huffman micro-bench ...", flush=True)
        result["huffman_microbench"] = measure_huffman_microbench(
            repeats=max(repeats, 3))
        hm = result["huffman_microbench"]
        print(f"[bench]   decode speedup {hm['speedup_vs_scalar']:.1f}x "
              f"({hm['scalar_s'] * 1e3:.0f} ms -> "
              f"{hm['vectorized_s'] * 1e3:.0f} ms)", flush=True)
    if out:
        pathlib.Path(out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"[bench] wrote {out}", flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", nargs="+", default=list(DEFAULT_FIELDS),
                    help="Table-I dataset names to bench")
    ap.add_argument("--size", choices=["small", "full"], default="small")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats")
    ap.add_argument("--smoke", action="store_true",
                    help="single repeat, skip the overhead study (CI)")
    ap.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr8.json"))
    args = ap.parse_args(argv)
    run(args.fields, size=args.size, repeats=args.repeats,
        smoke=args.smoke, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
