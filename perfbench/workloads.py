"""The three workloads: set-up, the timed phase, probes and traced runs.

``--trace 0`` imports what a workload's set-up needs, sets the workload
up :data:`SETUPS` times and reports ``setup_s`` as the import time plus
the median set-up time.  It then runs the timed phase and prints every
end-to-end metric.  The metrics a workload does not own (README.md has
the map) come from :class:`Probes`: the owning workload's code on the
``probe``-sized inputs, stepped in turn with the timed phase, so both
see the same host.

``--trace 1`` sets up once, runs a fixed amount of the timed phase as a
warm pass, then untraced and with the program's tracer installed in
turn, and prints the per-layer ledger of the last traced pass.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from typing import Any, Callable

from perfbench import fields, serve, store
from perfbench.ledger import (
    END_TO_END,
    PER_LAYER,
    Tally,
    counter_delta,
    layer_ledger,
    median,
)

SETUPS = 3
#: Untraced/traced pass pairs in a traced run.
TRACE_PAIRS = 3
#: Reads per pass of the traced ``serve`` run.
TRACE_READS = 5 * serve.WINDOW

#: Modules each workload's set-up imports; loaded before the first
#: set-up so that ``setup_s`` counts them exactly once.
IMPORTS = {
    "fields": ("repro.datasets.climate", "repro.datasets.cosmology",
               "repro.datasets.turbulence"),
    "store": ("repro.datasets.climate", "repro.datasets.turbulence",
              "repro.store"),
    "serve": ("repro.datasets.turbulence", "repro.store", "repro.serve"),
}

CODEC_METRICS = {f"{c}.{d}_mb_s" for c in fields.CODECS
                 for d in ("compress", "decompress")}
STORE_METRICS = {"store.pack_mb_s", "store.get_mb_s"}
READ_METRICS = {"read.p50_ms", "read.p99_ms", "reads_per_s"}
#: The end-to-end metrics each workload measures itself.
OWNED = {
    "fields": CODEC_METRICS | {"cr", "psnr_db", "setup_s"},
    "store": STORE_METRICS | READ_METRICS | {"cr", "psnr_db", "setup_s"},
    "serve": READ_METRICS | {"setup_s"},
}


def _repeat_setup(name: str, make: Callable[[int], Any],
                  close: Callable[[Any], None],
                  t_start: float) -> tuple[Any, float]:
    """Import, then set up :data:`SETUPS` times, closing each but the
    last.  Returns the last context and ``setup_s``: the seconds from
    process start to the end of the imports plus the median set-up."""
    for module in IMPORTS[name]:
        importlib.import_module(module)
    imports = time.perf_counter() - t_start
    durations = []
    ctx = None
    for i in range(SETUPS):
        if i:
            close(ctx)
        t0 = time.perf_counter()
        ctx = make(i)
        durations.append(time.perf_counter() - t0)
    return ctx, imports + median(durations)


def interleave(benches: list[Any], seconds: float) -> None:
    """Step each bench in turn until ``seconds`` have passed and every
    bench has its minimum samples.  Garbage is collected between steps,
    never switched off inside one."""
    deadline = time.perf_counter() + seconds
    while True:
        due = [b for b in benches
               if time.perf_counter() < deadline or not b.ready()]
        if not due:
            return
        for b in due:
            gc.collect()
            b.step()


class Probes:
    """The end-to-end metrics a workload does not own, measured by the
    owning workload's code on the ``probe``-sized inputs."""

    def __init__(self, name: str, seed: int, tmp: str,
                 tally: Tally) -> None:
        self.missing = set(END_TO_END) - OWNED[name]
        self.benches: list[Any] = []
        self.ctx: store.Context | None = None
        if self.missing & (STORE_METRICS | READ_METRICS):
            self.ctx = store.setup(seed, tmp, size="probe")
            self.benches.append(store.StoreBench(
                self.ctx, tally, reads=bool(self.missing & READ_METRICS)))
        if self.missing & CODEC_METRICS:
            self.benches.append(fields.CodecBench(
                fields.setup(seed, probe=True), tally))

    def fill(self, metrics: dict[str, float]) -> None:
        found: dict[str, float] = {}
        for bench in self.benches:  # codec results win cr / psnr_db
            found.update(bench.result())
        metrics.update({n: found[n] for n in self.missing})

    def close(self) -> None:
        if self.ctx is not None:
            self.ctx.close()


def _traced(run: Callable[[], float]
            ) -> tuple[Any, float, dict[str, float], float]:
    """Run ``run`` once to warm up, then :data:`TRACE_PAIRS` times
    untraced and traced in turn, so a drift of the host or of the
    program's own warm-up weighs on both sides alike.

    Returns the tracer, wall seconds and counter deltas of the last
    traced pass, and ``trace.overhead_frac``: the median traced wall
    over the median untraced wall, minus 1.
    """
    from repro.observability import Tracer, metrics_snapshot, use_tracer

    run()
    untraced: list[float] = []
    traced: list[float] = []
    for _ in range(TRACE_PAIRS):
        untraced.append(run())
        tracer = Tracer()
        before = metrics_snapshot()
        with use_tracer(tracer):
            traced.append(run())
        counters = counter_delta(before, metrics_snapshot())
    return (tracer, traced[-1], counters,
            median(traced) / median(untraced) - 1.0)


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _ledger(tracer: Any, wall: float, counters: dict[str, float],
            overhead: float) -> dict[str, float]:
    spans = tracer.spans
    out = layer_ledger(spans, counters, main_thread=threading.get_ident(),
                       wall_s=wall)
    capacity = sum(s.dur * int(s.meta.get("workers", 1)) for s in spans
                   if s.name == "parallel.map")
    out["parallel.busy_frac"] = (out["parallel.chunk_s"] / capacity
                                 if capacity else 0.0)
    out["trace.overhead_frac"] = overhead
    return out


# -- fields ------------------------------------------------------------------

def run_fields(seed: int, seconds: float, trace: bool, tmp: str,
               t_start: float, tally: Tally) -> dict[str, float]:
    if trace:
        bench = fields.CodecBench(fields.setup(seed), tally)
        return _ledger(*_traced(lambda: _timed(bench.step)))
    cases, setup_s = _repeat_setup("fields", lambda _: fields.setup(seed),
                                   lambda _: None, t_start)
    main = fields.CodecBench(cases, tally)
    probes = Probes("fields", seed, tmp, tally)
    try:
        interleave([main, *probes.benches], seconds)
        metrics = main.result()
        probes.fill(metrics)
    finally:
        probes.close()
    metrics["setup_s"] = setup_s
    return metrics


# -- store -------------------------------------------------------------------

def _store_setup(seed: int, tmp: str) -> store.Context:
    ctx = store.setup(seed, tmp)
    fields.warm_up()
    return ctx


def run_store(seed: int, seconds: float, trace: bool, tmp: str,
              t_start: float, tally: Tally) -> dict[str, float]:
    if trace:
        return _trace_store(seed, tmp, tally)
    ctx, setup_s = _repeat_setup("store", lambda _: _store_setup(seed, tmp),
                                 store.Context.close, t_start)
    probes = Probes("store", seed, tmp, tally)
    try:
        main = store.StoreBench(ctx, tally)
        interleave([main, *probes.benches], seconds)
        metrics = main.result()
        probes.fill(metrics)
    finally:
        probes.close()
        ctx.close()
    metrics["setup_s"] = setup_s
    return metrics


def _trace_store(seed: int, tmp: str, tally: Tally) -> dict[str, float]:
    ctx = _store_setup(seed, tmp)
    bench = store.StoreBench(ctx, tally)
    get_s: list[float] = []
    try:
        def one() -> float:
            ctx.out_bytes = 0
            wall = _timed(bench.step)
            get_s.append(sum(ctx.get_s.values()))
            return wall

        out = _ledger(*_traced(one))
    finally:
        ctx.close()
    decodes = ctx.chunk_decode_s
    n_chunks = sum(len(v) for v in decodes.values())
    for codec in ("sz", "dpz"):
        out[f"{codec}.chunk_decode_ms"] = 1e3 * median(decodes[codec])
    # The warm pass timed both Store.get and, right after it, the same
    # chunks decoded from outside the store.
    out["store.chunk_overhead_ms"] = 1e3 * (
        get_s[0] - sum(sum(v) for v in decodes.values())) / n_chunks
    out["store.amplification"] = out["store.bytes.decoded"] / ctx.out_bytes
    return out


# -- serve -------------------------------------------------------------------

def run_serve(seed: int, seconds: float, trace: bool, tmp: str,
              t_start: float, tally: Tally) -> dict[str, float]:
    def make(index: int) -> serve.Context:
        return serve.setup(seed, tmp, index=index)

    if trace:
        ctx = make(0)
    else:
        ctx, setup_s = _repeat_setup("serve", make,
                                     lambda c: c.close(tally), t_start)
    reader = None
    try:
        serve.prepare(ctx)
        reader = serve.Reader(ctx, tally)
        if trace:
            windows: list[serve.Window] = []
            scrapes: list[dict[str, Any]] = []

            def one() -> float:
                from repro.observability import tracing_enabled

                traced = tracing_enabled()
                if traced:
                    scrapes.append(serve.scrape(ctx))
                windows.append(reader.read(TRACE_READS))
                if traced:
                    scrapes.append(serve.scrape(ctx))
                return windows[-1].wall

            # Reads get faster over the first few thousand; warm past it.
            reader.read(TRACE_READS)
            metrics = _ledger(*_traced(one))
            metrics.update(serve.server_ledger(*scrapes[-2:], windows[-1]))
        else:
            # The server idles while the probes run between windows.
            main = serve.LoadBench(reader)
            probes = Probes("serve", seed, tmp, tally)
            try:
                interleave([main, *probes.benches], seconds)
                metrics = main.result()
                probes.fill(metrics)
            finally:
                probes.close()
            metrics["setup_s"] = setup_s
    finally:
        if reader is not None:
            reader.close()
        ctx.close(tally)
    return metrics


WORKLOADS: dict[str, Callable[..., dict[str, float]]] = {
    "fields": run_fields,
    "store": run_store,
    "serve": run_serve,
}


def run(name: str, seed: int, seconds: float, trace: bool, tmp: str,
        t_start: float) -> tuple[dict[str, float], Tally]:
    tally = Tally()
    metrics = WORKLOADS[name](seed, seconds, trace, tmp, t_start, tally)
    if trace:
        return {n: metrics.get(n, 0.0) for n in PER_LAYER}, tally
    return {n: metrics[n] for n in END_TO_END}, tally
