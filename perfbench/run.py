"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 10 --trace 0

Workloads: ``fields``, ``store``, ``serve`` (see README.md).
Run from the root of a source checkout: the program is imported from
``src/`` and scratch files go under ``.perfbench-tmp/``, removed on exit.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end set, with ``--trace 1`` the per-layer
ledger of a traced run.  Exits 2 without a result when the program
cannot be imported.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fields", "store", "serve")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, src]
    try:
        import repro.codecs.registry  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's {src}", file=sys.stderr)
        return 2
    from perfbench.ledger import END_TO_END, PER_LAYER
    from perfbench.workloads import run

    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        metrics, tally = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), tmp, T_START)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass
    for reason in tally.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.data_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(v),
                        "unit": (PER_LAYER if args.trace else END_TO_END)[n][0]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
