#!/usr/bin/env python
"""Region-retrieval bench for the chunked store: writes ``BENCH_pr8.json``.

Packs the 64^3 isotropic-turbulence field into a ``dpzs`` store with
16^3 chunks (sz codec, ``eps=1e-3``, two compression workers) and
measures what the chunked layout buys for partial reads:

* **pack** wall time and the on-disk compression ratio,
* **whole-field decode** via ``Store.get`` and, for reference, via the
  monolithic :class:`~repro.archive.FieldArchive` (which always decodes
  everything),
* **region reads** -- a seeded sequence of random 16^3 regions through
  ``Store.get_region``, run twice on the same handle.  The **cold**
  pass starts from an empty decoded-chunk cache; the **warm** pass
  replays the identical sequence against the populated cache.  Each
  pass reports p50/p95 latency, the **decoded-byte amplification**
  (bytes decompressed / bytes returned, from the store's own metrics)
  and the cache hit/miss/eviction counters.  A perfectly aligned 16^3
  read decodes exactly one chunk (amplification 1.0); a worst-case
  straddling read touches 8 chunks (amplification 8.0); a fully warm
  cache decodes nothing (amplification 0.0).  The whole-archive
  alternative decodes all 64 chunks every time,
* **dpz pack with basis reuse** -- the same field packed with the DPZ
  codec, reporting the ``store.basis.*`` counters (one representative
  fit, siblings verified against the cached basis).

The ``"store"`` section of the output extends the ``BENCH_*.json``
trajectory: ``benchmarks/compare.py`` gates region-read p50/p95 when
both records carry it, and ``--amplification-max`` gates the warm-pass
amplification.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py            # full run
    PYTHONPATH=src python benchmarks/bench_store.py --smoke    # CI quick
    PYTHONPATH=src python benchmarks/bench_store.py --out BENCH_pr8.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.archive import FieldArchive  # noqa: E402
from repro.datasets.registry import get_dataset  # noqa: E402
from repro.observability import (  # noqa: E402
    Tracer,
    metrics_reset,
    metrics_snapshot,
    use_tracer,
)
from repro.store import Store  # noqa: E402

FIELD = "Isotropic"
CHUNK = (16, 16, 16)
REGION_EDGE = 16
EPS = 1e-3


def _quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample list."""
    xs = sorted(samples)
    idx = min(len(xs) - 1, max(0, int(round(q * (len(xs) - 1)))))
    return xs[idx]


def bench_store(size: str, n_regions: int, repeats: int,
                tmpdir: str) -> dict:
    """Pack, whole-decode, and region-read measurements for one field."""
    data = get_dataset(FIELD, size)
    path = pathlib.Path(tmpdir) / "bench.dpzs"

    # -- pack (best-of-N; the store file is rebuilt each repeat) ----------
    best_pack = float("inf")
    for _ in range(repeats):
        path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with Store.create(path) as st:
            st.add("field", data, codec="sz", chunk_shape=CHUNK,
                   eps=EPS, n_jobs=2)
        best_pack = min(best_pack, time.perf_counter() - t0)
    compressed = path.stat().st_size

    # -- whole-field decode via the store (fresh handle per repeat, so
    # the number stays a *cold* decode comparable across the trajectory)
    best_whole = float("inf")
    for _ in range(repeats):
        with Store.open(path) as st:
            t0 = time.perf_counter()
            whole = st.get("field")
            best_whole = min(best_whole, time.perf_counter() - t0)
        assert whole.shape == data.shape

    # -- seeded random region reads: cold pass, then warm replay ----------
    rng = np.random.default_rng(1234)
    starts = [
        tuple(int(rng.integers(0, n - REGION_EDGE + 1))
              for n in data.shape)
        for _ in range(n_regions)
    ]
    bytes_returned = n_regions * REGION_EDGE ** data.ndim * data.itemsize

    def region_pass(st: Store) -> dict:
        latencies: list[float] = []
        metrics_reset()
        with use_tracer(Tracer()):
            for lo in starts:
                region = tuple(slice(a, a + REGION_EDGE) for a in lo)
                t0 = time.perf_counter()
                out = st.get_region("field", region)
                latencies.append(time.perf_counter() - t0)
                assert out.shape == (REGION_EDGE,) * len(lo)
            counters = metrics_snapshot()["counters"]
        bytes_decoded = counters.get("store.bytes.decoded", 0)
        return {
            "edge": REGION_EDGE,
            "n_reads": n_regions,
            "p50_s": round(_quantile(latencies, 0.50), 6),
            "p95_s": round(_quantile(latencies, 0.95), 6),
            "mean_s": round(sum(latencies) / len(latencies), 6),
            "bytes_decoded": int(bytes_decoded),
            "bytes_returned": int(bytes_returned),
            "amplification": round(bytes_decoded / bytes_returned, 3),
            "cache": {
                key: int(counters.get(f"store.cache.{key}", 0))
                for key in ("hits", "misses", "evictions")
            },
        }

    with Store.open(path) as st:
        cold = region_pass(st)   # fresh handle: empty cache
        warm = region_pass(st)   # same handle: populated cache

    # -- monolithic-archive reference (always decodes everything) ---------
    ar = FieldArchive()
    ar.add("field", data, codec="sz", eps=EPS)
    blob = ar.to_bytes()
    best_ar = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        FieldArchive.from_bytes(blob).get("field")
        best_ar = min(best_ar, time.perf_counter() - t0)

    return {
        "field": FIELD,
        "shape": list(data.shape),
        "chunk_shape": list(CHUNK),
        "codec": "sz",
        "eps": EPS,
        "original_nbytes": int(data.nbytes),
        "compressed_nbytes": int(compressed),
        "cr": round(data.nbytes / compressed, 4),
        "pack_s": round(best_pack, 6),
        "whole_decode_s": round(best_whole, 6),
        "archive_decode_s": round(best_ar, 6),
        "region": cold,
        "region_warm": warm,
        "dpz_pack": bench_dpz_pack(data, pathlib.Path(tmpdir)),
    }


def bench_dpz_pack(data: np.ndarray, tmpdir: pathlib.Path) -> dict:
    """DPZ-codec pack of the same field, with basis-reuse telemetry."""
    path = tmpdir / "bench_dpz.dpzs"
    metrics_reset()
    with use_tracer(Tracer()):
        t0 = time.perf_counter()
        with Store.create(path) as st:
            st.add("field", data, codec="dpz", chunk_shape=CHUNK,
                   n_jobs=2, scheme="s", tve_nines=6)
        pack_s = time.perf_counter() - t0
        counters = metrics_snapshot()["counters"]
    compressed = path.stat().st_size
    return {
        "codec": "dpz",
        "pack_s": round(pack_s, 6),
        "cr": round(data.nbytes / compressed, 4),
        "basis": {
            key: int(counters.get(f"store.basis.{key}", 0))
            for key in ("fits", "reuses", "refits")
        },
    }


def run(*, size: str = "small", smoke: bool = False,
        out: str | None = None) -> dict:
    """Run the store bench; returns (and optionally writes) the record."""
    n_regions = 8 if smoke else 64
    repeats = 2 if smoke else 3
    result: dict = {
        "bench": "pr7-store",
        "size": size,
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    print(f"[bench] {FIELD} pack + region reads ...", flush=True)
    with tempfile.TemporaryDirectory() as tmpdir:
        result["store"] = bench_store(size, n_regions, repeats, tmpdir)
    s = result["store"]
    r = s["region"]
    print(f"[bench]   CR {s['cr']:.2f}x  pack {s['pack_s'] * 1e3:.0f} ms  "
          f"whole decode {s['whole_decode_s'] * 1e3:.0f} ms  "
          f"(archive {s['archive_decode_s'] * 1e3:.0f} ms)", flush=True)
    w = s["region_warm"]
    print(f"[bench]   region {r['edge']}^3 x{r['n_reads']} cold: "
          f"p50 {r['p50_s'] * 1e3:.2f} ms  p95 {r['p95_s'] * 1e3:.2f} ms  "
          f"amplification {r['amplification']:.2f}x "
          f"(cache {r['cache']['hits']}h/{r['cache']['misses']}m)",
          flush=True)
    print(f"[bench]   region {w['edge']}^3 x{w['n_reads']} warm: "
          f"p50 {w['p50_s'] * 1e3:.2f} ms  p95 {w['p95_s'] * 1e3:.2f} ms  "
          f"amplification {w['amplification']:.2f}x "
          f"(cache {w['cache']['hits']}h/{w['cache']['misses']}m)",
          flush=True)
    d = s["dpz_pack"]
    print(f"[bench]   dpz pack {d['pack_s'] * 1e3:.0f} ms  "
          f"CR {d['cr']:.2f}x  basis {d['basis']['fits']} fit / "
          f"{d['basis']['reuses']} reused / {d['basis']['refits']} refit",
          flush=True)
    if out:
        p = pathlib.Path(out)
        record = result
        if p.exists():
            # Merge into an existing run_bench record so one
            # BENCH_pr8.json carries both the compress-throughput
            # fields and the store section.
            try:
                existing = json.loads(p.read_text())
            except (OSError, json.JSONDecodeError):
                existing = None
            if isinstance(existing, dict) and "fields" in existing:
                existing["store"] = result["store"]
                record = existing
        p.write_text(json.dumps(record, indent=2) + "\n")
        print(f"[bench] wrote {out}", flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=["small", "full"], default="small")
    ap.add_argument("--smoke", action="store_true",
                    help="fewer regions and repeats (CI)")
    ap.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr8.json"))
    args = ap.parse_args(argv)
    run(size=args.size, smoke=args.smoke, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
