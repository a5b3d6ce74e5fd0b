"""``fields``: whole-field compress + decompress through the codec registry.

One field per family (Isotropic 3-D, FLDSC 2-D, HACC-x 1-D).  DPZ runs
on the registry's ``full`` sizes, SZ on ``small``, and ZFP on crops of
the ``small`` fields sized so its three round trips take about a
second (its bit-plane coder is pure Python).  This is the paper's own
measurement (Fig. 8): codec kernels do nearly all the work, and the
store and server are untouched.

A repetition compresses and decompresses every (codec, field) case
once; a codec's throughput in one repetition is original MB over the
seconds summed across its field set, and the reported figure is the
median over repetitions.  The first repetition's outputs give ``cr``
and ``psnr_db``; later repetitions check that DPZ recompresses to the
same bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from perfbench import inputs
from perfbench.ledger import Tally, geomean, median, psnr_db

CODECS = ("dpz", "sz", "zfp")

#: ZFP crop shapes (about one second for the three round trips).
ZFP_CROPS = {"Isotropic": (40, 40, 40), "FLDSC": (200, 200),
             "HACC-x": (32768,)}
#: The same, for the small probe other workloads run.
ZFP_PROBE_CROPS = {"Isotropic": (24, 24, 24), "FLDSC": (96, 96),
                   "HACC-x": (8192,)}


@dataclass
class Case:
    codec: str
    family: str
    data: Any
    kwargs: dict[str, Any]
    bound: float | None  # absolute error bound; None for DPZ


def make_cases(seed: int, *, probe: bool = False) -> list[Case]:
    """The workload's (codec, field) cases, generated from ``seed``."""
    cases = []
    for fam in inputs.FAMILIES:
        small = inputs.field(fam, "probe" if probe else "small", seed)
        big = small if probe else inputs.field(fam, "full", seed)
        zfp = inputs.crop(small, (ZFP_PROBE_CROPS if probe
                                  else ZFP_CROPS)[fam])
        cases.append(Case("dpz", fam, big, {}, None))
        e = inputs.bound(small)
        cases.append(Case("sz", fam, small, {"eps": e}, e))
        e = inputs.bound(zfp)
        cases.append(Case("zfp", fam, zfp, {"tolerance": e}, e))
    return cases


def warm_up() -> None:
    """Pay every codec's lazy first-call cost on a tiny input."""
    from repro.codecs.registry import codec_functions

    tiny = np.linspace(0.0, 1.0, 8 ** 3, dtype=np.float32).reshape(8, 8, 8)
    for codec, kw in (("dpz", {}), ("sz", {"eps": 1e-3}),
                      ("zfp", {"tolerance": 1e-3})):
        comp, decomp = codec_functions(codec)
        decomp(comp(tiny, **kw))


def setup(seed: int, *, probe: bool = False) -> list[Case]:
    cases = make_cases(seed, probe=probe)
    warm_up()
    return cases


def _check(case: Case, out: Any, blob: bytes, first: dict[int, bytes],
           key: int, tally: Tally) -> None:
    arr = case.data
    if case.bound is None:
        same = out.shape == arr.shape and out.dtype == arr.dtype
        ok = same and first.setdefault(key, blob) == blob
        tally.check(ok, f"dpz {case.family}: shape/dtype or "
                        f"recompressed bytes differ")
        return
    ok = out.shape == arr.shape and out.dtype == arr.dtype
    if ok:
        err = float(np.max(np.abs(out.astype(np.float64)
                                  - arr.astype(np.float64))))
        ok = err <= case.bound
    tally.check(ok, f"{case.codec} {case.family}: error bound missed")


class CodecBench:
    """Repetitions of every (codec, field) round trip.

    One :meth:`step` is one repetition; the reported throughputs are
    medians over repetitions.
    """

    MIN_REPS = 3

    def __init__(self, cases: list[Case], tally: Tally) -> None:
        from repro.codecs.registry import codec_functions

        self.cases = cases
        self.tally = tally
        self.funcs = {c: codec_functions(c) for c in CODECS}
        self.rates: dict[str, list[float]] = {
            f"{c}.{d}_mb_s": [] for c in CODECS
            for d in ("compress", "decompress")}
        self.ratios: list[float] = []
        self.psnrs: list[float] = []
        self.first: dict[int, bytes] = {}
        self.reps = 0
        self.op = 0

    def ready(self) -> bool:
        return self.reps >= self.MIN_REPS

    def step(self) -> None:
        from repro.observability import span

        for codec in CODECS:
            comp, decomp = self.funcs[codec]
            mb = tc = td = 0.0
            for key, case in enumerate(self.cases):
                if case.codec != codec:
                    continue
                self.op += 1
                with span("bench.compress", op=self.op, codec=codec,
                          field=case.family):
                    t0 = time.perf_counter()
                    blob = comp(case.data, **case.kwargs)
                    t1 = time.perf_counter()
                with span("bench.decompress", op=self.op, codec=codec,
                          field=case.family):
                    t2 = time.perf_counter()
                    out = decomp(blob)
                    t3 = time.perf_counter()
                mb += case.data.nbytes / 1e6
                tc += t1 - t0
                td += t3 - t2
                _check(case, out, blob, self.first, key, self.tally)
                if self.reps == 0:
                    self.ratios.append(case.data.nbytes / len(blob))
                    self.psnrs.append(psnr_db(case.data, out))
            self.rates[f"{codec}.compress_mb_s"].append(mb / tc)
            self.rates[f"{codec}.decompress_mb_s"].append(mb / td)
        self.reps += 1

    def result(self) -> dict[str, float]:
        out = {name: median(vals) for name, vals in self.rates.items()}
        out["cr"] = geomean(self.ratios)
        out["psnr_db"] = float(np.mean(self.psnrs))
        return out
