"""Command-line interface: ``dpz`` (or ``python -m repro``).

Subcommands
-----------
compress
    ``dpz compress IN OUT [--scheme l|s] [--nines N | --knee] ...``
    Input is ``.npy`` or raw ``.f32`` (pass ``--shape``).
decompress
    ``dpz decompress IN OUT`` -- output format chosen by extension.
probe
    ``dpz probe IN`` -- run the sampling strategy (Alg. 2) and print
    the estimated k, VIF summary and preliminary CR range.
info
    ``dpz info IN`` -- show a compressed container's metadata.
datasets
    ``dpz datasets`` -- list the built-in synthetic datasets (Table I).
bench
    ``dpz bench ARTIFACT`` -- run one paper-artifact harness (e.g.
    ``table3``, ``fig6``, ``fig10``) and print its report.
trace
    ``dpz trace DATASET_OR_FILE [--out trace.ndjson]`` -- run a traced
    DPZ compress+decompress and emit per-stage NDJSON spans plus a
    stage-share summary (see ``repro.observability``).
pack / unpack / list
    Multi-field archives: ``dpz pack out.dpza NAME=FILE ...
    [--codec dpz] [--nines N]``, ``dpz unpack in.dpza NAME out.npy``,
    ``dpz list in.dpza``.
store
    Chunked random-access stores (``.dpzs``): ``dpz store pack
    out.dpzs NAME=FILE ... [--codec auto --budget 1e-3] [--chunk 16 16
    16] [--jobs N] [--backend auto|file|dir|memory]``, ``dpz store
    list in.dpzs``, ``dpz store get in.dpzs NAME out.npy``, ``dpz
    store region in.dpzs NAME 0:16,8:24,3 out.npy``, ``dpz store
    from-archive in.dpza out.dpzs``, ``dpz store codecs`` (list the
    registered codec ids).
serve
    ``dpz serve STORE ... [--port 8742 | --unix-socket PATH]
    [--workers N] [--cache-bytes B]`` -- serve store regions over the
    HTTP wire protocol (FORMATS.md), with queue-depth backpressure;
    SIGTERM/SIGINT drain gracefully.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.metrics import compression_ratio
from repro.api import dpz_decompress, dpz_probe, scheme_config
from repro.core.compressor import DPZCompressor
from repro.core.stream import deserialize
from repro.datasets.io import load_field, save_field
from repro.datasets.registry import all_dataset_names, get_spec
from repro.errors import ConfigError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    ap = argparse.ArgumentParser(
        prog="dpz",
        description="DPZ lossy compressor for scientific data "
                    "(CLUSTER 2021 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(p, out: bool = True):
        p.add_argument("input", help="input file (.npy or raw .f32)")
        if out:
            p.add_argument("output", help="output file")
        p.add_argument("--shape", type=int, nargs="+", default=None,
                       help="shape for raw float32 inputs, e.g. "
                            "--shape 1800 3600")

    pc = sub.add_parser("compress", help="compress a dataset")
    add_input(pc)
    pc.add_argument("--scheme", choices=["l", "s"], default="l",
                    help="DPZ-l (P=1e-3, 1-byte) or DPZ-s (P=1e-4, 2-byte)")
    group = pc.add_mutually_exclusive_group()
    group.add_argument("--nines", type=int, default=None,
                       help="TVE threshold as a number of nines (3..8)")
    group.add_argument("--knee", action="store_true",
                       help="select k by knee-point detection")
    pc.add_argument("--knee-fit", choices=["1d", "polyn"], default="1d")
    pc.add_argument("--sampling", action="store_true",
                    help="estimate k via the sampling strategy (Alg. 2)")
    pc.add_argument("--stats", action="store_true",
                    help="print per-stage timing and size breakdown")

    pd = sub.add_parser("decompress", help="decompress a DPZ container")
    pd.add_argument("input")
    pd.add_argument("output")

    pp = sub.add_parser("probe", help="estimate compressibility (Alg. 2)")
    add_input(pp, out=False)
    pp.add_argument("--scheme", choices=["l", "s"], default="l")
    pp.add_argument("--nines", type=int, default=5)

    pi = sub.add_parser("info", help="describe a DPZ container")
    pi.add_argument("input")

    sub.add_parser("datasets", help="list built-in synthetic datasets")

    pb = sub.add_parser("bench",
                        help="run one paper-artifact harness and print "
                             "its report")
    pb.add_argument("artifact", choices=sorted(_ARTIFACTS) + ["all"],
                    help="which table/figure to regenerate ('all' runs "
                         "every harness in sequence)")
    pb.add_argument("--size", choices=["small", "full"], default="small",
                    help="dataset size preset")

    pt = sub.add_parser("trace",
                        help="trace a DPZ compress+decompress run "
                             "(per-stage NDJSON spans)")
    pt.add_argument("input", nargs="?", default=None,
                    help="built-in dataset name (see 'dpz datasets') or "
                         "input file (.npy / raw .f32)")
    pt.add_argument("--shape", type=int, nargs="+", default=None,
                    help="shape for raw float32 inputs")
    pt.add_argument("--size", choices=["small", "full"], default="small",
                    help="size preset for built-in datasets")
    pt.add_argument("--scheme", choices=["l", "s"], default="l")
    pt.add_argument("--nines", type=int, default=None,
                    help="TVE threshold as a number of nines (3..8)")
    pt.add_argument("--out", default=None,
                    help="write NDJSON here instead of stdout (stdout "
                         "then carries the stage summary)")
    pt.add_argument("--flamegraph", default=None, metavar="OUT.html",
                    help="also render the trace as a self-contained "
                         "flamegraph HTML file")
    pt.add_argument("--profile", default=None, metavar="OUT.html",
                    help="run a wall-clock sampling profiler alongside "
                         "the trace and render the sampled stacks as a "
                         "flamegraph HTML file")
    pt.add_argument("--profile-interval", type=float, default=0.002,
                    metavar="SECONDS",
                    help="sampling period for --profile (default 2ms)")
    pt.add_argument("--diff", nargs=2, default=None,
                    metavar=("A.ndjson", "B.ndjson"),
                    help="compare two existing trace files per stage "
                         "instead of running a new trace")
    pt.add_argument("--runlog", default=None, metavar="PATH",
                    help="run-registry file to append to "
                         "(default: $DPZ_RUNLOG or ./runs.ndjson)")
    pt.add_argument("--no-runlog", action="store_true",
                    help="do not append this run to the run registry")

    po = sub.add_parser("top",
                        help="live terminal dashboard over the metric "
                             "registry (local or a telemetry endpoint)")
    po.add_argument("--url", default=None, metavar="URL",
                    help="poll this telemetry endpoint's /metrics.json "
                         "(e.g. http://127.0.0.1:9412); default: this "
                         "process's own registry")
    po.add_argument("--listen", type=int, default=None, metavar="PORT",
                    help="also serve /metrics, /healthz and /runs on "
                         "this port while the dashboard runs (0 = "
                         "ephemeral)")
    po.add_argument("--interval", type=float, default=1.0,
                    help="refresh period in seconds (default 1.0)")
    po.add_argument("--iterations", type=int, default=None, metavar="N",
                    help="render N frames then exit (default: until ^C)")
    po.add_argument("--once", action="store_true",
                    help="render a single frame without clearing the "
                         "screen (scripts, tests)")

    pr = sub.add_parser("runs",
                        help="inspect the persistent run registry "
                             "(runs.ndjson)")
    pr.add_argument("action", choices=["list", "show", "diff"],
                    help="list all runs, show one record as JSON, or "
                         "diff two records")
    pr.add_argument("keys", nargs="*",
                    help="run selector(s): an index (0, -1, ...) or a "
                         "run_id prefix; 'show' takes one, 'diff' two")
    pr.add_argument("--file", default=None, metavar="PATH",
                    help="registry file (default: $DPZ_RUNLOG or "
                         "./runs.ndjson)")

    pk = sub.add_parser("pack", help="bundle fields into an archive")
    pk.add_argument("output", help="archive file (.dpza)")
    pk.add_argument("fields", nargs="+", metavar="NAME=FILE",
                    help="named inputs, e.g. CLDHGH=cloud.npy")
    pk.add_argument("--codec", default="dpz",
                    help="codec for every field (dpz/sz/zfp/mgard/dctz/"
                         "tucker/raw)")
    pk.add_argument("--scheme", choices=["l", "s"], default="l",
                    help="DPZ scheme (dpz codec only)")
    pk.add_argument("--nines", type=int, default=None,
                    help="DPZ TVE nines (dpz codec only)")
    pk.add_argument("--rel-eps", type=float, default=1e-4,
                    help="relative bound (sz/mgard codecs)")
    pk.add_argument("--rate", type=float, default=8.0,
                    help="bits per value (zfp codec)")

    pu = sub.add_parser("unpack", help="extract one field from an archive")
    pu.add_argument("input")
    pu.add_argument("name")
    pu.add_argument("output", help="output file (.npy or raw .f32)")

    pl = sub.add_parser("list", help="list an archive's contents")
    pl.add_argument("input")

    ps = sub.add_parser("store",
                        help="chunked random-access stores (.dpzs)")
    ssub = ps.add_subparsers(dest="store_command", required=True)

    def _backend_arg(p) -> None:
        p.add_argument("--backend", default="auto",
                       choices=("auto", "file", "dir", "memory"),
                       help="storage backend: 'file' is the .dpzs "
                            "single file, 'dir' a sharded key "
                            "directory; 'auto' picks 'dir' for "
                            "existing directories / trailing '/'")

    sp = ssub.add_parser("pack",
                         help="chunk, compress and pack fields")
    sp.add_argument("output", help="store file (.dpzs) or directory")
    sp.add_argument("fields", nargs="+", metavar="NAME=FILE",
                    help="named inputs, e.g. vx=velocities.npy")
    _backend_arg(sp)
    sp.add_argument("--codec", default="dpz",
                    help="per-chunk codec (any registered id -- see "
                         "'dpz store codecs'); 'auto' selects per "
                         "chunk against --budget")
    sp.add_argument("--chunk", nargs="+", default=None,
                    help="chunk shape, e.g. --chunk 16 16 16, or "
                         "'auto' for plane-aligned chunks tuned for "
                         "slab reads (default: a per-ndim heuristic)")
    sp.add_argument("--budget", type=float, default=None,
                    help="absolute error budget (codec=auto)")
    sp.add_argument("--jobs", type=int, default=0,
                    help="parallel chunk-compression workers "
                         "(0 = all cores)")
    sp.add_argument("--scheme", choices=["l", "s"], default="l",
                    help="DPZ scheme (dpz codec only)")
    sp.add_argument("--nines", type=int, default=None,
                    help="DPZ TVE nines (dpz codec only)")
    sp.add_argument("--rel-eps", type=float, default=1e-4,
                    help="relative bound (sz/mgard codecs)")
    sp.add_argument("--rate", type=float, default=8.0,
                    help="bits per value (zfp codec)")

    sl = ssub.add_parser("list", help="describe a store's fields")
    sl.add_argument("input")
    _backend_arg(sl)

    sg = ssub.add_parser("get", help="extract one whole field")
    sg.add_argument("input")
    sg.add_argument("name")
    sg.add_argument("output", help="output file (.npy or raw .f32)")
    _backend_arg(sg)

    sr = ssub.add_parser("region",
                         help="extract a rectangular region of a field")
    sr.add_argument("input")
    sr.add_argument("name")
    sr.add_argument("region",
                    help="per-dim selectors, e.g. 0:16,8:24,3 "
                         "(unit-step slices and integer indices)")
    sr.add_argument("output", help="output file (.npy or raw .f32)")
    _backend_arg(sr)

    sa = ssub.add_parser("from-archive",
                         help="re-pack a .dpza archive as a chunked "
                              "store")
    sa.add_argument("input", help="archive file (.dpza)")
    sa.add_argument("output", help="store file (.dpzs) or directory")
    _backend_arg(sa)
    sa.add_argument("--chunk", nargs="+", default=None,
                    help="chunk shape for every field (ints or 'auto')")
    sa.add_argument("--jobs", type=int, default=0,
                    help="parallel workers (0 = all cores)")

    ssub.add_parser("codecs",
                    help="list the registered codec ids")

    pv = sub.add_parser("serve",
                        help="serve store regions over HTTP "
                             "(backpressure; wire protocol in "
                             "FORMATS.md)")
    pv.add_argument("stores", nargs="+", metavar="SPEC",
                    help="store path or ALIAS=PATH "
                         "(e.g. snap.dpzs hot=run42.dpzs)")
    pv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    pv.add_argument("--port", type=int, default=8742,
                    help="TCP port (0 = ephemeral; default 8742)")
    pv.add_argument("--unix-socket", default=None, metavar="PATH",
                    help="listen on a unix-domain socket instead of "
                         "TCP")
    pv.add_argument("--workers", type=int, default=4,
                    help="decode worker threads (default 4)")
    pv.add_argument("--max-queue", type=int, default=None,
                    help="queued+running decode cap before shedding "
                         "503s (default: workers * 8)")
    pv.add_argument("--cache-bytes", type=int, default=None,
                    help="decoded-chunk cache budget, split across "
                         "stores (default 64 MiB)")

    pn = sub.add_parser("lint",
                        help="run the repo-native static-analysis pass")
    pn.add_argument("paths", nargs="+",
                    help="files or directories to lint")
    pn.add_argument("--format", choices=("human", "json"),
                    default="human", help="output format")
    pn.add_argument("--select", default=None,
                    help="comma-separated rule ids to run "
                         "(default: all)")
    pn.add_argument("--out", default=None,
                    help="also write the report to this file")
    return ap


def _load(path: str, shape: list[int] | None = None,
          missing: str = "no such file") -> np.ndarray:
    """Load one input field; a missing or unreadable file is a _CLIError."""
    try:
        return load_field(path, tuple(shape) if shape else None)
    except FileNotFoundError:
        raise _CLIError(f"{path!r}: {missing}") from None
    except ValueError as exc:
        raise _CLIError(f"cannot load {path!r}: {exc}") from None


def _load_fields(specs: list[str]) -> list[tuple[str, np.ndarray]]:
    """Parse and load every ``NAME=FILE`` spec before any output exists."""
    fields = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            raise _CLIError(f"field spec must be NAME=FILE, got {spec!r}")
        fields.append((name, _load(path)))
    return fields


def _codec_kwargs(args) -> dict:
    """The ``pack``/``store pack`` codec flags as ``add`` keywords."""
    kw: dict = {}
    if args.codec == "dpz":
        kw["scheme"] = args.scheme
        if args.nines is not None:
            kw["tve_nines"] = args.nines
    elif args.codec in ("sz", "mgard"):
        kw["rel_eps"] = args.rel_eps
    elif args.codec == "zfp":
        kw["rate"] = args.rate
    return kw


def _cmd_compress(args) -> int:
    data = _load(args.input, args.shape)
    cfg = scheme_config(args.scheme, tve_nines=args.nines, knee=args.knee,
                        knee_fit=args.knee_fit, use_sampling=args.sampling)
    comp = DPZCompressor(cfg)
    blob, stats = comp.compress_with_stats(data)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    cr = compression_ratio(data.nbytes, len(blob))
    print(f"compressed {data.nbytes} -> {len(blob)} bytes "
          f"(CR {cr:.2f}x, k={stats.k}/{stats.m_blocks}, "
          f"TVE@k={stats.tve_at_k:.8f})")
    if args.stats:
        for stage, secs in stats.times.items():
            print(f"  {stage:<10s} {secs*1e3:9.2f} ms")
        print(f"  stage1&2 CR {stats.cr_stage12:.3f}  "
              f"stage3 CR {stats.cr_stage3:.3f}  "
              f"zlib CR {stats.cr_zlib:.3f}")
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    data = dpz_decompress(blob)
    save_field(args.output, data)
    print(f"decompressed to {args.output}: shape {data.shape}, "
          f"dtype {data.dtype}")
    return 0


def _cmd_probe(args) -> int:
    data = _load(args.input, args.shape)
    report = dpz_probe(data, args.scheme, tve_nines=args.nines)
    print(f"estimated k:        {report.k_estimate} "
          f"(subsets: {list(report.subset_ks)})")
    print(f"VIF mean/median:    {report.vif_mean:.2f} / "
          f"{report.vif_median:.2f}")
    print(f"low linearity:      {report.low_linearity} "
          f"(cutoff 5.0 -> {'standardize' if report.low_linearity else 'no scaling'})")
    print(f"preliminary CR:     {report.cr_low:.2f}x .. {report.cr_high:.2f}x")
    return 0


def _cmd_info(args) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    a = deserialize(blob)
    print(f"shape:        {a.shape}  dtype {a.dtype_tag}")
    print(f"blocks:       M={a.m_blocks} x N={a.n_points}")
    print(f"components:   k={a.k}  (ratio {a.k / a.m_blocks:.4f})")
    print(f"quantizer:    P={a.p:g}, {a.n_bins} bins, "
          f"{a.index_bytes}-byte indices")
    print(f"outliers:     {a.outliers.size} "
          f"({100.0 * a.outliers.size / max(a.indices.size, 1):.2f}% of scores)")
    print(f"standardized: {a.standardized}")
    print(f"container:    {len(blob)} bytes "
          f"(CR {int(np.prod(a.shape)) * (4 if a.dtype_tag == 'f4' else 8) / len(blob):.2f}x)")
    return 0


def _cmd_datasets(_args) -> int:
    print(f"{'name':10s} {'source':16s} {'dims':>6s} {'small':>16s} "
          f"{'full':>16s}  description")
    for name in all_dataset_names():
        spec = get_spec(name)
        print(f"{spec.name:10s} {spec.source:16s} {spec.ndim:>5d}D "
              f"{str(spec.small_shape):>16s} {str(spec.full_shape):>16s}  "
              f"{spec.description}")
    return 0


#: Artifact name -> experiment module (lazy import targets).
_ARTIFACTS = {
    "table1": "table1", "table2": "table2", "table3": "table3",
    "table4": "table4", "fig1": "fig1", "fig2": "fig2", "fig3": "fig3",
    "fig4": "fig4", "fig6": "fig6", "fig7": "fig7", "fig8": "fig8",
    "fig9": "fig9", "fig10": "fig10", "sampling": "sampling_eval",
}


def _run_artifact(artifact: str, size: str) -> None:
    import importlib

    mod = importlib.import_module(
        f"repro.experiments.{_ARTIFACTS[artifact]}"
    )
    if artifact == "fig6":
        result = mod.run_all(size=size)
    else:
        result = mod.run(size=size)
    print(mod.format_report(result))


def _cmd_bench(args) -> int:
    artifacts = (sorted(_ARTIFACTS) if args.artifact == "all"
                 else [args.artifact])
    for i, artifact in enumerate(artifacts):
        if i:
            print()
        _run_artifact(artifact, args.size)
    return 0


class _CLIError(Exception):
    """User-facing CLI failure: printed as one line, exit code 2."""


def _load_trace_input(args) -> tuple[str, np.ndarray]:
    """Resolve the trace input: registry name first, then file path."""
    try:
        get_spec(args.input)
    except ConfigError:
        return args.input, _load(
            args.input, args.shape,
            missing="neither a built-in dataset (see 'dpz datasets') "
                    "nor an existing file")
    from repro.datasets.registry import get_dataset
    return args.input, get_dataset(args.input, args.size)


def _cmd_trace(args) -> int:
    from repro.observability import (
        Tracer,
        append_record,
        build_record,
        metrics_reset,
        metrics_snapshot,
        trace_diff,
        use_quality,
        use_tracer,
        write_flamegraph,
        write_ndjson,
    )

    if args.diff:
        print(trace_diff(args.diff[0], args.diff[1]))
        return 0
    if args.input is None:
        raise _CLIError("trace needs a dataset/file argument "
                        "(or --diff A.ndjson B.ndjson)")

    import time as _time

    name, data = _load_trace_input(args)
    cfg = scheme_config(args.scheme, tve_nines=args.nines)
    comp = DPZCompressor(cfg)
    metrics_reset()
    tracer = Tracer()
    profiler = None
    if args.profile:
        from repro.observability import SamplingProfiler

        profiler = SamplingProfiler(
            tracer, interval=args.profile_interval).start()
    t0 = _time.perf_counter()
    try:
        with use_tracer(tracer), use_quality():
            blob, stats = comp.compress_with_stats(data)
            recon = DPZCompressor.decompress(blob)
    finally:
        if profiler is not None:
            profiler.stop()
    wall_s = _time.perf_counter() - t0
    snapshot = metrics_snapshot()
    meta = {
        "dataset": name, "shape": list(data.shape),
        "dtype": str(data.dtype), "scheme": args.scheme,
        "original_nbytes": int(data.nbytes),
        "compressed_nbytes": len(blob), "cr": round(stats.cr, 4),
        "k": stats.k, "m_blocks": stats.m_blocks,
    }
    if args.out:
        n_spans = write_ndjson(tracer, args.out, meta=meta)
        print(f"{name}: {n_spans} spans -> {args.out} "
              f"(CR {stats.cr:.2f}x, k={stats.k}/{stats.m_blocks})")
        total = sum(tracer.stage_times("dpz.").values())
        for stage, share in tracer.stage_shares("dpz.").items():
            secs = tracer.stage_times("dpz.")[stage]
            print(f"  {stage:<22s} {secs*1e3:9.2f} ms  {share:6.1%}")
        print(f"  {'total':<22s} {total*1e3:9.2f} ms")
    else:
        write_ndjson(tracer, sys.stdout, meta=meta)
    if args.flamegraph:
        n_roots = write_flamegraph(tracer, args.flamegraph,
                                   title=f"dpz trace: {name}")
        print(f"flamegraph ({n_roots} root frames) -> {args.flamegraph}")
    if profiler is not None:
        profiler.write_flamegraph(args.profile,
                                  title=f"dpz profile: {name}")
        print(f"profile ({profiler.total_samples} samples @ "
              f"{profiler.interval * 1e3:g}ms) -> {args.profile}")
    if not args.no_runlog:
        quality = {
            g[len("quality."):]: v for g, v in snapshot["gauges"].items()
            if g.startswith("quality.")
        }
        record = build_record(
            dataset=name, shape=data.shape, dtype=str(data.dtype),
            config=cfg, cr=stats.cr, compressed_nbytes=len(blob),
            original_nbytes=int(data.nbytes), wall_s=wall_s,
            tracer=tracer, k=stats.k, m_blocks=stats.m_blocks,
            quality=quality or None, metrics=snapshot,
            extra={"scheme": args.scheme},
        )
        path = append_record(record, args.runlog)
        # Keep stdout pure NDJSON when the trace itself went there.
        print(f"run {record['run_id']} -> {path}",
              file=sys.stdout if args.out else sys.stderr)
    # Tracing must not perturb the archive: quick shape sanity check.
    assert recon.shape == data.shape
    return 0


def _cmd_top(args) -> int:
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from repro.observability import metrics_snapshot
    from repro.observability.top import Dashboard

    server = None
    if args.listen is not None:
        server = _start_telemetry(args.listen)

    def fetch() -> dict:
        if args.url:
            url = args.url.rstrip("/") + "/metrics.json"
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    return _json.loads(resp.read())
            except (urllib.error.URLError, OSError, ValueError) as exc:
                reason = getattr(exc, "reason", exc)
                raise _CLIError(f"cannot fetch {url}: {reason}") from None
        return metrics_snapshot()

    dash = Dashboard()
    frames = 1 if args.once else args.iterations
    try:
        while True:
            rendered = dash.update(fetch())
            if not args.once:
                # Home + clear-to-end repaint: flicker-free in any
                # terminal, no curses dependency.
                sys.stdout.write("\x1b[H\x1b[J")
            sys.stdout.write(rendered)
            sys.stdout.flush()
            if frames is not None and dash.frames >= frames:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        if server is not None:
            server.close()


def _cmd_runs(args) -> int:
    import json as _json

    from repro.observability import (
        diff_runs,
        find_run,
        format_run_table,
        load_runs,
    )
    from repro.observability.runlog import resolve_runlog

    path = resolve_runlog(args.file)
    try:
        runs = load_runs(path)
    except FileNotFoundError:
        raise _CLIError(f"no run registry at {path!r} "
                        f"(run 'dpz trace DATASET --out t.ndjson' "
                        f"first)") from None
    if args.action == "list":
        if not runs:
            print(f"{path}: no runs recorded")
            return 0
        print(format_run_table(runs))
        return 0
    try:
        if args.action == "show":
            if len(args.keys) != 1:
                raise _CLIError("'runs show' takes exactly one run "
                                "selector (index or run_id prefix)")
            print(_json.dumps(find_run(runs, args.keys[0]), indent=2,
                              sort_keys=True))
            return 0
        if len(args.keys) != 2:
            raise _CLIError("'runs diff' takes exactly two run "
                            "selectors (index or run_id prefix)")
        print(diff_runs(find_run(runs, args.keys[0]),
                        find_run(runs, args.keys[1])))
        return 0
    except KeyError as exc:
        raise _CLIError(str(exc.args[0]) if exc.args else str(exc)) \
            from None


def _cmd_pack(args) -> int:
    from repro.archive import FieldArchive

    fields = _load_fields(args.fields)
    kw = _codec_kwargs(args)
    archive = FieldArchive()
    for name, data in fields:
        archive.add(name, data, codec=args.codec, **kw)
    archive.save(args.output)
    print(f"packed {len(archive.names())} fields "
          f"(total CR {archive.total_cr():.2f}x) -> {args.output}")
    return 0


def _cmd_unpack(args) -> int:
    from repro.archive import FieldArchive

    archive = FieldArchive.load(args.input)
    data = archive.get(args.name)
    save_field(args.output, data)
    print(f"extracted {args.name}: shape {data.shape}, dtype {data.dtype}")
    return 0


def _cmd_list(args) -> int:
    from repro.archive import FieldArchive

    archive = FieldArchive.load(args.input)
    print(f"{'field':16s} {'codec':8s} {'original':>12s} "
          f"{'compressed':>12s} {'CR':>8s}")
    for name in archive.names():
        info = archive.info(name)
        print(f"{info['name']:16s} {info['codec']:8s} "
              f"{info['original_nbytes']:>12d} "
              f"{info['compressed_nbytes']:>12d} {info['cr']:>8.2f}")
    print(f"total CR {archive.total_cr():.2f}x")
    return 0


def _parse_chunk(values):
    """``--chunk`` values -> ``Store.add`` chunk_shape argument."""
    if not values:
        return None
    if values == ["auto"]:
        return "auto"
    try:
        return tuple(int(v) for v in values)
    except ValueError:
        raise _CLIError(
            "--chunk takes integers or the single word 'auto', "
            f"got {values!r}") from None


def _cmd_store(args) -> int:
    from repro.store import Store

    if args.store_command == "codecs":
        from repro.codecs.registry import codec_ids, get_codec

        print(f"{'codec':14s} {'kind':10s} source")
        for name in codec_ids():
            spec = get_codec(name)
            print(f"{spec.name:14s} {spec.kind:10s} {spec.source}")
        return 0

    if args.store_command == "pack":
        chunk = _parse_chunk(args.chunk)
        fields = _load_fields(args.fields)
        kw = _codec_kwargs(args)
        if args.codec == "auto":
            kw["error_budget"] = args.budget
        Store.check_codec(args.codec, kw.get("error_budget"))
        store = Store.create(args.output, backend=args.backend)
        for name, data in fields:
            store.add(name, data, codec=args.codec, chunk_shape=chunk,
                      n_jobs=args.jobs, **kw)
        print(f"packed {len(store.names())} fields "
              f"(total CR {store.total_cr():.2f}x) -> {args.output}")
        return 0

    if args.store_command == "from-archive":
        from repro.archive import FieldArchive

        chunk = _parse_chunk(args.chunk)
        store = Store.from_archive(FieldArchive.load(args.input),
                                   args.output, backend=args.backend,
                                   chunk_shape=chunk,
                                   n_jobs=args.jobs)
        print(f"re-packed {len(store.names())} fields "
              f"(total CR {store.total_cr():.2f}x) -> {args.output}")
        return 0

    store = Store.open(args.input, backend=args.backend)
    if args.store_command == "list":
        print(f"{'field':16s} {'codec':8s} {'shape':>16s} "
              f"{'chunks':>14s} {'compressed':>12s} {'CR':>8s}")
        for name in store.names():
            info = store.info(name)
            chunks = "x".join(str(c) for c in info["chunk_shape"])
            print(f"{info['name']:16s} {info['codec']:8s} "
                  f"{str(info['shape']):>16s} "
                  f"{info['n_chunks']:>6d}@{chunks:<7s} "
                  f"{info['compressed_nbytes']:>12d} "
                  f"{info['cr']:>8.2f}")
        print(f"total CR {store.total_cr():.2f}x")
        return 0
    if args.store_command == "get":
        data = store.get(args.name)
        save_field(args.output, data)
        print(f"extracted {args.name}: shape {data.shape}, "
              f"dtype {data.dtype}")
        return 0
    # region
    from repro.serve.protocol import parse_slices

    region = parse_slices(args.region)
    data = store.get_region(args.name, region)
    save_field(args.output, data)
    print(f"extracted {args.name}[{args.region}]: shape {data.shape}, "
          f"dtype {data.dtype}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import ServeApp, StoreRegistry
    from repro.store.cache import DEFAULT_CACHE_BYTES

    cache_bytes = (DEFAULT_CACHE_BYTES if args.cache_bytes is None
                   else args.cache_bytes)
    registry = StoreRegistry(args.stores, cache_bytes=cache_bytes)
    app = ServeApp(registry, host=args.host, port=args.port,
                   unix_socket=args.unix_socket, workers=args.workers,
                   max_queue=args.max_queue)
    print(f"serving {registry.aliases()} on {app.url} "
          f"({app.workers} workers, queue cap {app.max_queue})",
          file=sys.stderr)

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal support; ^C still works
        await app.run(stop)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    print("serve: drained and shut down", file=sys.stderr)
    return 0


def _cmd_lint(args) -> int:
    from repro.devtools.lint import (
        lint_paths,
        resolve_selection,
        to_json,
        to_text,
    )

    rules = resolve_selection(args.select)
    report = lint_paths(args.paths, rules)
    renderers = {"json": to_json, "human": to_text}
    rendered = renderers[args.format](report, rules)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    print(rendered)
    return 1 if report.findings else 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "probe": _cmd_probe,
    "info": _cmd_info,
    "datasets": _cmd_datasets,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "runs": _cmd_runs,
    "pack": _cmd_pack,
    "unpack": _cmd_unpack,
    "list": _cmd_list,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def _start_telemetry(port: int):
    """Serve ``/metrics``, ``/metrics.json``, ``/healthz`` and ``/runs``
    on ``port`` from a store-less :class:`~repro.serve.ServeApp` on a
    background thread.

    The app installs a ``retain_spans=False`` tracer (when none is
    active) before this returns, so metrics flow for the whole command
    without keeping one span per request.
    """
    from repro.serve import BackgroundServer, ServeApp, StoreRegistry

    server = BackgroundServer(
        ServeApp(StoreRegistry([], cache_bytes=0), port=port)).start()
    print(f"serving telemetry on {server.app.url}", file=sys.stderr)
    return server


def _metrics_port_env() -> int | None:
    """The ``$DPZ_METRICS_PORT`` port, or ``None`` when unset/empty."""
    import os

    raw = os.environ.get("DPZ_METRICS_PORT", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"$DPZ_METRICS_PORT must be an integer port, got {raw!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Anticipated failures (missing or unreadable file, malformed
    container, unknown run id) print one line to stderr and exit 2 --
    no traceback.

    ``DPZ_METRICS_PORT=<port>`` serves live ``/metrics`` / ``/healthz``
    / ``/runs`` for the duration of any command, letting ``dpz top
    --url`` or a Prometheus scrape watch e.g. a long ``dpz store pack``
    from another terminal.  ``dpz top`` itself is exempt: it has its
    own ``--listen`` flag and must not steal the port it wants to poll.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    server = None
    try:
        port = _metrics_port_env() if args.command != "top" else None
        if port is not None:
            server = _start_telemetry(port)
        return _COMMANDS[args.command](args)
    except (_CLIError, ReproError, OSError) as exc:
        print(f"dpz {args.command}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
