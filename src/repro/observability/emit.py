"""Render traces and metrics as NDJSON / JSON; load and diff traces.

NDJSON (one JSON object per line) is the trace interchange format: it
streams, ``grep``s, and loads into any dataframe library.  A trace file
contains one ``{"event": "meta", ...}`` header line, one
``{"event": "span", ...}`` line per finished span (in completion
order), and a final ``{"event": "metrics", ...}`` line carrying the
counter / gauge / histogram snapshot when anything was recorded.

:func:`trace_summary` folds a tracer's spans into a JSON-ready
per-stage summary: seconds and shares plus total bytes moved.
:func:`load_trace` reads a trace file back, and :func:`trace_diff`
renders the per-stage regression triage behind
``dpz trace --diff A.ndjson B.ndjson``.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.observability.metrics import metrics_snapshot
from repro.observability.tracer import Span, Tracer

__all__ = ["spans_to_ndjson", "write_ndjson", "trace_summary",
           "load_trace", "trace_diff"]


def spans_to_ndjson(spans: Iterable[Span], *,
                    meta: dict | None = None) -> str:
    """Serialize spans plus a header and the default registry's
    snapshot as NDJSON.

    The metrics line drops zero counters, empty histograms and empty
    kinds, and is left out when nothing remains.
    """
    lines = []
    header = {"event": "meta", "format": "repro-trace", "version": 1}
    if meta:
        header.update(meta)
    lines.append(json.dumps(header, sort_keys=True))
    for s in spans:
        rec = {"event": "span"}
        rec.update(s.to_dict())
        lines.append(json.dumps(rec, sort_keys=True))
    snap = metrics_snapshot()
    metrics = {
        "counters": {n: v for n, v in snap["counters"].items() if v},
        "gauges": snap["gauges"],
        "histograms": {n: h for n, h in snap["histograms"].items()
                       if h["count"]},
    }
    metrics = {kind: recs for kind, recs in metrics.items() if recs}
    if metrics:
        lines.append(json.dumps(
            {"event": "metrics", **metrics}, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_ndjson(tracer: Tracer, fh_or_path: IO[str] | str, *,
                 meta: dict | None = None) -> int:
    """Write a tracer's spans as NDJSON; returns the span count."""
    spans = tracer.spans
    text = spans_to_ndjson(spans, meta=meta)
    if hasattr(fh_or_path, "write"):
        fh_or_path.write(text)
    else:
        with open(fh_or_path, "w") as fh:
            fh.write(text)
    return len(spans)


def trace_summary(tracer: Tracer, prefix: str = "") -> dict:
    """JSON-ready digest of one traced run.

    Returns ``{"stage_times_s", "stage_shares", "total_s",
    "bytes_in", "bytes_out", "n_spans"}`` where the stage maps cover
    top-level spans matching ``prefix`` (see
    :meth:`Tracer.stage_times`).
    """
    times = tracer.stage_times(prefix)
    shares = tracer.stage_shares(prefix)
    spans = [s for s in tracer.spans if s.name.startswith(prefix)]
    return {
        "stage_times_s": {k: round(v, 6) for k, v in times.items()},
        "stage_shares": {k: round(v, 4) for k, v in shares.items()},
        "total_s": round(sum(times.values()), 6),
        "bytes_in": sum(s.bytes_in or 0 for s in spans),
        "bytes_out": sum(s.bytes_out or 0 for s in spans),
        "n_spans": len(spans),
    }


def load_trace(path_or_fh: str | IO[str]) -> dict:
    """Read a trace NDJSON file back into parts.

    Returns ``{"meta", "spans", "metrics"}`` where ``spans`` is a list
    of plain span dicts and ``metrics`` the ``{"counters", "gauges",
    "histograms"}`` snapshot (kinds the file lacks are absent).  Traces
    written before the counters moved into the metrics line carry them
    on a separate ``counters`` line, which is read into the same place.
    Raises :class:`~repro.errors.FormatError` when the file is not a
    repro-trace.
    """
    from repro.errors import FormatError

    if hasattr(path_or_fh, "read"):
        text = path_or_fh.read()
    else:
        with open(path_or_fh) as fh:
            text = fh.read()
    out: dict = {"meta": {}, "spans": [], "metrics": {}}
    first = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not a trace file: bad JSON line "
                              f"({exc})") from exc
        event = rec.pop("event", None)
        if first:
            if event != "meta" or rec.get("format") != "repro-trace":
                raise FormatError(
                    "not a repro-trace file (missing meta header)")
            out["meta"] = rec
            first = False
        elif event == "span":
            out["spans"].append(rec)
        elif event == "counters":
            out["metrics"]["counters"] = rec
        elif event == "metrics":
            out["metrics"].update(rec)
    if first:
        raise FormatError("empty trace file")
    return out


def _stage_times_from_records(spans: list[dict],
                              prefix: str = "dpz.") -> dict[str, float]:
    """Per-name total seconds over minimum-depth records (mirrors
    :meth:`Tracer.stage_times`)."""
    matching = [s for s in spans
                if str(s.get("name", "")).startswith(prefix)]
    if not matching:
        return {}
    dmin = min(int(s.get("depth", 0)) for s in matching)
    out: dict[str, float] = {}
    for s in matching:
        if int(s.get("depth", 0)) == dmin:
            name = s["name"]
            out[name] = out.get(name, 0.0) + float(s.get("dur", 0.0))
    return out


def trace_diff(path_a: str, path_b: str, *,
               prefix: str = "dpz.") -> str:
    """Per-stage wall-time diff of two trace files (regression triage).

    Stages are aggregated exactly like :meth:`Tracer.stage_times`, so
    the numbers line up with ``trace_summary`` and the bench records.
    """
    a, b = load_trace(path_a), load_trace(path_b)
    ta = _stage_times_from_records(a["spans"], prefix)
    tb = _stage_times_from_records(b["spans"], prefix)
    tot_a, tot_b = sum(ta.values()), sum(tb.values())
    lines = [f"A: {path_a}  ({a['meta'].get('dataset', '?')}, "
             f"{len(a['spans'])} spans)",
             f"B: {path_b}  ({b['meta'].get('dataset', '?')}, "
             f"{len(b['spans'])} spans)",
             f"{'stage':<22s} {'A ms':>10s} {'B ms':>10s} "
             f"{'delta':>8s}  {'A share':>8s} {'B share':>8s}"]
    for stage in sorted(set(ta) | set(tb)):
        va, vb = ta.get(stage, 0.0), tb.get(stage, 0.0)
        delta = f"{(vb - va) / va:+.1%}" if va > 0 else "new"
        sh_a = f"{va / tot_a:7.1%}" if tot_a > 0 else "      -"
        sh_b = f"{vb / tot_b:7.1%}" if tot_b > 0 else "      -"
        lines.append(f"{stage:<22s} {va * 1e3:>10.2f} {vb * 1e3:>10.2f} "
                     f"{delta:>8s}  {sh_a:>8s} {sh_b:>8s}")
    delta_tot = f"{(tot_b - tot_a) / tot_a:+.1%}" if tot_a > 0 else "n/a"
    lines.append(f"{'total':<22s} {tot_a * 1e3:>10.2f} "
                 f"{tot_b * 1e3:>10.2f} {delta_tot:>8s}")
    return "\n".join(lines)
