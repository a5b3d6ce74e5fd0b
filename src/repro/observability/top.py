"""The ``dpz top`` terminal dashboard: registry snapshots -> panels.

``dpz top`` polls a telemetry endpoint's ``/metrics.json`` (or, with
``--listen``, its own in-process server) and renders a compact
refreshing view of the metrics that matter while a pack or region
workload runs: throughput, cache behaviour, region-read latency, and
pool/queue pressure.  No curses -- the loop in :mod:`repro.cli` just
repaints with ANSI home/clear, so it works in any terminal and in a
``--once`` snapshot mode for scripts and tests.

This module is deliberately I/O-free: :class:`Dashboard` consumes
``metrics_snapshot()``-shaped dicts and returns strings.  Rates are
derived by differencing consecutive snapshots against a monotonic
clock, so the first frame shows totals only and every later frame
shows per-second rates; a counter that resets (process restart behind
the same URL) clamps to zero rather than printing a negative rate.
"""

from __future__ import annotations

import time

__all__ = ["Dashboard"]

#: (label, counter name) rows of the throughput panel.
_RATE_ROWS: tuple[tuple[str, str], ...] = (
    ("chunks compressed", "store.chunks.compressed"),
    ("chunks decoded", "store.chunks.decoded"),
    ("bytes read", "store.bytes.read"),
    ("bytes decoded", "store.bytes.decoded"),
    ("region reads", "store.region.reads"),
    ("compress runs", "dpz.compress.runs"),
)


def _fmt_num(v: float) -> str:
    """Human-scaled number: 1234567 -> '1.23M'."""
    av = abs(v)
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if av >= scale:
            return f"{v / scale:.2f}{unit}"
    if v == int(v):
        return str(int(v))
    return f"{v:.2f}"


def _fmt_secs(v: float) -> str:
    """Latency with a sensible unit: 0.00042 -> '420us'."""
    if v != v:  # NaN: histogram empty
        return "-"
    if v < 1e-3:
        return f"{v * 1e6:.0f}us"
    if v < 1.0:
        return f"{v * 1e3:.1f}ms"
    return f"{v:.2f}s"


def _hist_quantiles(rec: dict) -> tuple[float, float, int]:
    """(p50, p95, count) from a snapshot histogram record."""
    return (rec.get("p50", float("nan")), rec.get("p95", float("nan")),
            int(rec.get("count", 0)))


class Dashboard:
    """Stateful renderer: feed snapshots, get panel text back.

    ``update()`` remembers the previous (snapshot, clock) pair so the
    next call can print rates.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._prev: dict | None = None
        self._prev_t: float = 0.0
        self.frames = 0

    # -- derivation -------------------------------------------------------

    def _rate(self, counters: dict, prev_counters: dict, name: str,
              dt: float) -> float | None:
        if dt <= 0.0 or self._prev is None:
            return None
        delta = counters.get(name, 0) - prev_counters.get(name, 0)
        return max(delta, 0) / dt

    def update(self, snapshot: dict) -> str:
        """Render one frame from a ``metrics_snapshot()``-shaped dict."""
        now = self._clock()
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        hists = snapshot.get("histograms", {})
        prev_counters = (self._prev or {}).get("counters", {})
        dt = now - self._prev_t
        self.frames += 1

        lines: list[str] = []
        add = lines.append

        add("dpz top" + (f"  (frame {self.frames}, +{dt:.1f}s)"
                         if self._prev is not None else "  (first frame)"))
        add("")

        add("throughput")
        for label, name in _RATE_ROWS:
            total = counters.get(name, 0)
            if not total:
                continue
            rate = self._rate(counters, prev_counters, name, dt)
            suffix = f"  {_fmt_num(rate)}/s" if rate is not None else ""
            add(f"  {label:<18} {_fmt_num(total):>10}{suffix}")
        if lines[-1] == "throughput":
            add("  (no traffic yet)")
        add("")

        hits = counters.get("store.cache.hits", 0)
        misses = counters.get("store.cache.misses", 0)
        add("cache")
        if hits or misses:
            ratio = hits / (hits + misses)
            add(f"  hits/misses        {_fmt_num(hits)}/{_fmt_num(misses)}"
                f"  ({ratio:.0%} hit rate)")
            add(f"  evictions          "
                f"{_fmt_num(counters.get('store.cache.evictions', 0))}")
            add(f"  resident bytes     "
                f"{_fmt_num(gauges.get('store.cache.bytes', 0))}")
        else:
            add("  (cold)")
        add("")

        add("latency (p50 / p95)")
        shown = False
        for label, name in (("region read", "store.region.seconds"),
                            ("chunk compress", "store.chunk.compress.seconds"),
                            ("pool chunk", "parallel.chunk.seconds")):
            rec = hists.get(name)
            if not rec:
                continue
            p50, p95, count = _hist_quantiles(rec)
            add(f"  {label:<18} {_fmt_secs(p50)} / {_fmt_secs(p95)}"
                f"  (n={count})")
            shown = True
        if not shown:
            add("  (no samples)")
        add("")

        add("pool")
        add(f"  workers            "
            f"{_fmt_num(gauges.get('parallel.pool.size', 0))}")
        add(f"  queue depth        "
            f"{_fmt_num(gauges.get('parallel.queue.depth', 0))}")
        add(f"  maps/chunks        "
            f"{_fmt_num(counters.get('parallel.maps', 0))}/"
            f"{_fmt_num(counters.get('parallel.chunks', 0))}")

        self._prev = snapshot
        self._prev_t = now
        return "\n".join(lines) + "\n"
