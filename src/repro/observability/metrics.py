"""Typed metric registry: counters, gauges, log-scale histograms.

Z-checker argues that lossy-compression assessment must live *next to*
the compressor, not in a separate re-run; this registry is the
substrate that makes that cheap.  Three metric kinds:

* :class:`Counter` -- monotonic totals (bytes through zlib, runs
  completed).
* :class:`Gauge` -- last-written values, with ``add()`` for live
  level tracking (thread-pool size, queue depth, last run's CR).
* :class:`Histogram` -- **fixed-bucket log-scale** distributions.
  Bucket boundaries are a pure function of the constructor arguments
  (``lo``, ``hi``, ``buckets_per_decade``), so histograms from two
  runs -- or two machines -- merge and compare bucket-for-bucket.
  Quantiles are estimated by geometric interpolation inside the
  bucket, which is exact in log space and within one bucket width
  everywhere.

Discipline
----------
The module-level helpers (:func:`counter_inc`, :func:`gauge_set`,
:func:`gauge_add`, :func:`observe`) are the only thing hot paths call,
and they follow the same rule as :func:`repro.observability.span`:
**zero overhead when disabled**.  With no tracer installed each is a
global load, a ``None`` test and a return -- no lock, no allocation,
no clock read.

Every thread writes the one default registry, pooled
:func:`~repro.parallel.executor.parallel_map` tasks included: each
metric takes its own lock, so counter totals and histogram buckets do
not depend on ``n_jobs``.  Gauges are last-write-wins, so a
``*.last.*`` gauge set inside a pooled map holds the value of the last
task to finish, not that of the last item.

Output
------
:func:`MetricsRegistry.snapshot` returns a JSON-ready dict (the shape
embedded in ``runs.ndjson`` run records);
:func:`MetricsRegistry.render_prometheus` renders the standard text
exposition format (``# TYPE`` comments, ``_total`` counter suffix,
cumulative ``_bucket{le="..."}`` series) so a scrape endpoint needs no
extra translation layer.  FORMATS.md specifies the exported names.

>>> from repro.observability import Tracer, use_tracer, metrics_snapshot
>>> with use_tracer(Tracer()):
...     blob = repro.dpz_compress(field)
>>> metrics_snapshot()["gauges"]["dpz.last.cr"]     # doctest: +SKIP
7.31
"""

from __future__ import annotations

import math
from typing import Union

from repro.devtools.sanitize import checked_lock
from repro.errors import ConfigError
from repro.observability import tracer as _tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter_inc",
    "gauge_set",
    "gauge_add",
    "observe",
    "metrics_snapshot",
    "metrics_reset",
    "render_prometheus",
    "metrics_enabled",
]

#: Default histogram range: 1 ns .. ~16 min for latencies, and wide
#: enough (crossing 1.0) that ratios and byte counts land in-range too.
DEFAULT_LO = 1e-9
DEFAULT_HI = 1e3
DEFAULT_BUCKETS_PER_DECADE = 3


class Counter:
    """Monotonic counter; ``add()`` is the only mutator."""

    __slots__ = ("name", "help", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._lock = checked_lock("observability.metrics.Counter._lock")

    @property
    def value(self) -> int:
        return self._value

    def add(self, value: Union[int, float] = 1) -> None:
        if value < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (add {value})")
        with self._lock:
            self._value += int(value)

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def to_dict(self) -> int:
        return self._value


class Gauge:
    """Last-written value; ``add()`` supports live level tracking."""

    __slots__ = ("name", "help", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = checked_lock("observability.metrics.Gauge._lock")

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def to_dict(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket log-scale histogram of positive observations.

    Bucket ``i`` covers ``(bound[i-1], bound[i]]`` with geometric
    bounds ``lo * step**i``; observations below ``lo`` land in the
    underflow bucket (index 0 behaves as ``(0, lo]``), observations
    above ``hi`` in the overflow bucket.  Zero and negative values are
    counted in underflow (they carry no log-scale information but must
    not vanish from ``count``/``sum``).
    """

    __slots__ = ("name", "help", "lo", "hi", "buckets_per_decade",
                 "_bounds", "_counts", "_count", "_sum", "_min", "_max",
                 "_lock")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", *,
                 lo: float = DEFAULT_LO, hi: float = DEFAULT_HI,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE
                 ) -> None:
        if not (0.0 < lo < hi):
            raise ConfigError(
                f"histogram {name!r} needs 0 < lo < hi, got {lo}..{hi}")
        if buckets_per_decade < 1:
            raise ConfigError("buckets_per_decade must be >= 1")
        self.name = name
        self.help = help
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(hi / lo)
        n = max(1, int(round(decades * buckets_per_decade)))
        # Upper bound of bucket i (i in [0, n-1]); bucket n is overflow.
        self._bounds = [lo * 10.0 ** ((i + 1) / buckets_per_decade)
                        for i in range(n)]
        self._bounds[-1] = hi  # kill float drift on the last edge
        self._counts = [0] * (n + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = checked_lock(
            "observability.metrics.Histogram._lock")

    def _bucket_index(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value > self.hi:
            return len(self._counts) - 1
        idx = int(math.log10(value / self.lo) * self.buckets_per_decade)
        idx = min(idx, len(self._bounds) - 1)
        # log10 rounding can land one bucket low on exact boundaries.
        if value > self._bounds[idx]:
            idx += 1
        return idx

    def observe(self, value: float) -> None:
        value = float(value)
        idx = self._bucket_index(value) if value > 0.0 else 0
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (geometric mid-bucket interpolation).

        Returns ``nan`` with no observations.  Underflow reports
        ``lo``, overflow reports ``hi`` -- the estimate is always inside
        the configured range, which is what a regression *gate* wants
        (an outlier cannot produce an unbounded number).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return math.nan
        rank = q * total
        seen = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if seen + c >= rank:
                frac = min(max((rank - seen) / c, 0.0), 1.0)
                lo_edge = self.lo if i == 0 else self._bounds[i - 1]
                hi_edge = (self.hi if i >= len(self._bounds)
                           else self._bounds[i])
                return float(lo_edge * (hi_edge / lo_edge) ** frac)
            seen += c
        return self.hi

    def merge_binned(self, counts: list[int], count: int, total: float,
                     vmin: float | None = None,
                     vmax: float | None = None) -> None:
        """Fold pre-binned observations in, bucket for bucket.

        ``counts`` must already be laid out for this histogram's bounds
        (a histogram built with the same ``lo``/``hi``/
        ``buckets_per_decade``); only the bucket count is checked.  The
        merge is exact: after merging, ``counts``/``count``/``sum`` equal
        what direct ``observe()`` calls would have produced.
        """
        if len(counts) != len(self._counts):
            raise ConfigError(
                f"histogram {self.name!r}: cannot merge {len(counts)} "
                f"buckets into {len(self._counts)}")
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += int(c)
            self._count += int(count)
            self._sum += float(total)
            if vmin is not None and vmin < self._min:
                self._min = float(vmin)
            if vmax is not None and vmax > self._max:
                self._max = float(vmax)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def to_dict(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            vmin, vmax = self._min, self._max
        rec = {
            "lo": self.lo, "hi": self.hi,
            "buckets_per_decade": self.buckets_per_decade,
            "bounds": [float(f"{b:.6g}") for b in self._bounds],
            "counts": counts,
            "count": count,
            "sum": float(f"{total:.6g}"),
        }
        if count:
            rec["min"] = float(f"{vmin:.6g}")
            rec["max"] = float(f"{vmax:.6g}")
            rec["p50"] = float(f"{self.quantile(0.5):.6g}")
            rec["p95"] = float(f"{self.quantile(0.95):.6g}")
            rec["p99"] = float(f"{self.quantile(0.99):.6g}")
        return rec


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe name -> metric map with typed get-or-create."""

    def __init__(self) -> None:
        self._lock = checked_lock(
            "observability.metrics.MetricsRegistry._lock")
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kw) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kw)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", *,
                  lo: float = DEFAULT_LO, hi: float = DEFAULT_HI,
                  buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, lo=lo, hi=hi,
                                   buckets_per_decade=buckets_per_decade)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """JSON-ready ``{"counters", "gauges", "histograms"}`` dict."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in metrics:
            out[metric.kind + "s"][name] = metric.to_dict()
        return out

    def reset(self, *, kinds: tuple[str, ...] | None = None) -> None:
        """Zero every metric (optionally only the given kinds)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if kinds is None or metric.kind in kinds:
                metric.reset()

    def clear(self) -> None:
        """Drop every registered metric (tests; ``reset`` for prod)."""
        with self._lock:
            self._metrics.clear()

    # -- Prometheus text exposition --------------------------------------

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Standard text exposition format, one family per metric.

        Dots in metric names become underscores; counters get the
        conventional ``_total`` suffix; histograms render cumulative
        ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: list[str] = []
        for name, metric in metrics:
            base = prefix + name.replace(".", "_").replace("-", "_")
            if metric.kind == "counter":
                fam = base + "_total"
                if metric.help:
                    lines.append(f"# HELP {fam} {metric.help}")
                lines.append(f"# TYPE {fam} counter")
                lines.append(f"{fam} {metric.value}")
            elif metric.kind == "gauge":
                if metric.help:
                    lines.append(f"# HELP {base} {metric.help}")
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {_fmt(metric.value)}")
            else:
                if metric.help:
                    lines.append(f"# HELP {base} {metric.help}")
                lines.append(f"# TYPE {base} histogram")
                cumulative = 0
                with metric._lock:
                    counts = list(metric._counts)
                    count, total = metric._count, metric._sum
                for i, c in enumerate(counts[:-1]):
                    cumulative += c
                    lines.append(f'{base}_bucket{{le="'
                                 f'{_fmt(metric._bounds[i])}"}} {cumulative}')
                lines.append(f'{base}_bucket{{le="+Inf"}} {count}')
                lines.append(f"{base}_sum {_fmt(total)}")
                lines.append(f"{base}_count {count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(v: float) -> str:
    """Prometheus-friendly float rendering (no trailing .0 on ints)."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(f"{v:.9g}"))


# -- default registry and gated hot-path helpers ----------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """Metrics share the tracing switch: on iff a tracer is installed."""
    return _tracer._ACTIVE is not None


def counter_inc(name: str, value: Union[int, float] = 1) -> None:
    """Add to a counter in the default registry (no-op when disabled)."""
    if _tracer._ACTIVE is None:
        return
    _REGISTRY.counter(name).add(value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge in the default registry (no-op when disabled)."""
    if _tracer._ACTIVE is None:
        return
    _REGISTRY.gauge(name).set(value)


def gauge_add(name: str, delta: float) -> None:
    """Adjust a gauge in the default registry (no-op when disabled)."""
    if _tracer._ACTIVE is None:
        return
    _REGISTRY.gauge(name).add(delta)


def observe(name: str, value: float, *,
            lo: float = DEFAULT_LO, hi: float = DEFAULT_HI) -> None:
    """Observe into a histogram in the default registry (no-op when
    disabled).  ``lo``/``hi`` only apply on first creation."""
    if _tracer._ACTIVE is None:
        return
    _REGISTRY.histogram(name, lo=lo, hi=hi).observe(value)


def metrics_snapshot() -> dict:
    """Snapshot of the default registry."""
    return _REGISTRY.snapshot()


def metrics_reset() -> None:
    """Zero every metric in the default registry."""
    _REGISTRY.reset()


def render_prometheus(prefix: str = "repro_") -> str:
    """Prometheus text exposition of the default registry."""
    return _REGISTRY.render_prometheus(prefix)
