"""``store``: pack, whole-field get and cold region reads through ``Store``.

The same codecs as ``fields``, but on 16 KB chunks, where fixed
per-call cost dominates: the store tax, PCA-basis reuse, ``auto``
codec selection and the parallel pack all show here, writes next to
reads.  A codec change that speeds large fields but adds per-call
set-up shows up here as a loss.

One repetition packs three fields into a fresh ``dpzs`` file with
``Store.add(..., n_jobs=0)`` (one thread per CPU, the CLI default) --
Isotropic as ``sz`` 16^3 chunks, Isotropic as ``dpz`` 16^3, FLDSC as
``codec="auto"`` 64^2 under a range-relative budget -- then decodes
each field with ``Store.get`` on a fresh ``cache_bytes=0`` handle.
After each repetition one caller issues a batch of cold
``get_region`` reads of seeded boxes of the dpz field (at least 1000
reads in a run).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench import inputs
from perfbench.ledger import (
    Tally,
    geomean,
    median,
    percentile,
    psnr_db,
    window_rate,
)


@dataclass
class Pack:
    name: str
    data: Any
    codec: str
    chunk: int
    kwargs: dict[str, Any]


@dataclass
class Context:
    packs: list[Pack]
    tmp: str
    seed: int
    read_field: str
    #: Outside-decoded reference per field (set by the first repetition).
    reference: dict[str, Any] = field(default_factory=dict)
    chunk_decode_s: dict[str, list[float]] = field(default_factory=dict)
    #: The first repetition's store, kept for the region reads.
    first_store: Any = None
    #: Bytes ``Store.get`` and the region reads returned.
    out_bytes: int = 0
    #: Seconds of the latest ``Store.get`` per field.
    get_s: dict[str, float] = field(default_factory=dict)
    reps: int = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def setup(seed: int, root: str, *, size: str = "small") -> Context:
    """Generate the seeded fields.  ``size`` is the Isotropic preset."""
    iso = inputs.field("Isotropic", size, seed)
    fl = inputs.field("FLDSC", "small" if size == "small" else "probe", seed)
    packs = [
        Pack("iso_sz", iso, "sz", 16, {"eps": inputs.bound(iso)}),
        Pack("iso_dpz", iso, "dpz", 16, {}),
        Pack("fl_auto", fl, "auto", 64, {"error_budget": inputs.bound(fl)}),
    ]
    return Context(packs, tempfile.mkdtemp(prefix="store-", dir=root),
                   seed, "iso_dpz")


def stored_chunks(st: Any, name: str) -> list[tuple[str, tuple[slice, ...],
                                                    bytes]]:
    """``(codec, array slices, payload)`` per chunk, read through the
    store's backend and manifest -- without the store's decode path."""
    from repro.store.backends import MANIFEST_KEY, chunk_key
    from repro.store.chunking import iter_chunks
    from repro.store.format import decode_manifest, unpack_kv_value

    bk = st.backend

    def value(key: str) -> bytes:
        raw = bk[key]
        return unpack_kv_value(raw) if bk.framed else raw

    meta = {m.name: m for m in decode_manifest(value(MANIFEST_KEY))}[name]
    return [(ref.codec, sl, value(chunk_key(name, i)))
            for i, (ref, (_, sl)) in enumerate(
                zip(meta.chunks, iter_chunks(meta.shape, meta.chunk_shape)))]


def outside_decode(st: Any, name: str, shape: tuple[int, ...],
                   dtype: Any, timings: dict[str, list[float]]) -> Any:
    """Decode every stored chunk with the registry and paste it."""
    from repro.codecs.registry import codec_functions

    out = np.empty(shape, dtype=dtype)
    for codec, sl, payload in stored_chunks(st, name):
        t0 = time.perf_counter()
        out[sl] = codec_functions(codec)[1](payload)
        timings.setdefault(codec, []).append(time.perf_counter() - t0)
    return out


def _pack_and_get(ctx: Context, tally: Tally,
                  op: list[int]) -> tuple[float, float, float]:
    """One repetition; returns (MB, pack seconds, get seconds)."""
    from repro.observability import span
    from repro.store import Store

    ctx.reps += 1
    path = os.path.join(ctx.tmp, f"pack{ctx.reps}.dpzs")
    mb = t_pack = t_get = 0.0
    st = Store.create(path)
    for p in ctx.packs:
        op[0] += 1
        with span("bench.store.add", op=op[0], field=p.name):
            t0 = time.perf_counter()
            st.add(p.name, p.data, codec=p.codec, chunk_shape=p.chunk,
                   n_jobs=0, **p.kwargs)
            t_pack += time.perf_counter() - t0
        mb += p.data.nbytes / 1e6
    cold = Store.open(path, cache_bytes=0)
    for p in ctx.packs:
        op[0] += 1
        with span("bench.store.get", op=op[0], field=p.name):
            t0 = time.perf_counter()
            got = cold.get(p.name)
            ctx.get_s[p.name] = time.perf_counter() - t0
            t_get += ctx.get_s[p.name]
        ctx.out_bytes += got.nbytes
        if p.name not in ctx.reference:
            ctx.reference[p.name] = outside_decode(
                cold, p.name, p.data.shape, p.data.dtype, ctx.chunk_decode_s)
        ref = ctx.reference[p.name]
        tally.check(got.dtype == ref.dtype and got.shape == ref.shape
                    and got.tobytes() == ref.tobytes(),
                    f"Store.get({p.name}) differs from its decoded chunks")
    if ctx.first_store is None:
        ctx.first_store = cold  # kept for cr and the region reads
    else:
        os.remove(path)
    return mb, t_pack, t_get


class StoreBench:
    """Pack/get repetitions, each followed by a batch of region reads.

    Interleaving the reads with the repetitions spreads every metric
    over the whole timed phase, so a slow spell of the shared host
    weighs on all of them alike instead of on whichever phase it hit.
    """

    MIN_REPS = 3
    MIN_READS = 1000
    READ_BATCH = 400

    def __init__(self, ctx: Context, tally: Tally, *,
                 reads: bool = True) -> None:
        self.ctx = ctx
        self.tally = tally
        self.reads = reads
        self.pack_rates: list[float] = []
        self.get_rates: list[float] = []
        self.lat: list[float] = []
        self.rng = np.random.default_rng([ctx.seed, 7])
        self.op = [0]
        self.cold: Any = None

    def ready(self) -> bool:
        return (len(self.pack_rates) >= self.MIN_REPS
                and (not self.reads or len(self.lat) >= self.MIN_READS))

    def step(self) -> None:
        mb, tp, tg = _pack_and_get(self.ctx, self.tally, self.op)
        self.pack_rates.append(mb / tp)
        self.get_rates.append(mb / tg)
        if self.reads:
            self._read_batch()

    def _read_batch(self) -> None:
        from repro.observability import span
        from repro.store import Store

        ctx = self.ctx
        if self.cold is None:
            self.cold = Store.open(ctx.first_store.path, cache_bytes=0)
        ref = ctx.reference[ctx.read_field]
        for box in inputs.boxes(self.rng, ref.shape, 16, self.READ_BATCH):
            self.op[0] += 1
            with span("bench.store.region", op=self.op[0]):
                t0 = time.perf_counter()
                got = self.cold.get_region(ctx.read_field, box)
                self.lat.append(time.perf_counter() - t0)
            ctx.out_bytes += got.nbytes
            self.tally.check(np.array_equal(got, ref[box]),
                             f"get_region{box} differs from Store.get")

    def result(self) -> dict[str, float]:
        ctx = self.ctx
        out = {"store.pack_mb_s": median(self.pack_rates),
               "store.get_mb_s": median(self.get_rates),
               "cr": geomean(ctx.first_store.info(p.name)["cr"]
                             for p in ctx.packs),
               "psnr_db": float(np.mean([
                   psnr_db(p.data, ctx.reference[p.name])
                   for p in ctx.packs]))}
        if self.reads:
            out["read.p50_ms"] = 1e3 * median(self.lat)
            out["read.p99_ms"] = 1e3 * percentile(self.lat, 99)
            out["reads_per_s"] = window_rate(self.lat)
        return out
