"""Smoke tests for the benchmark itself.

Run from the repository root::

    python -m pytest perfbench -q

Inputs are shrunk to smoke size (32^3 / 64x128 / 2^13 fields, one
set-up, two load windows); everything else runs as in a real run,
including the ``python -m repro serve`` child.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, ledger, run, serve, workloads  # noqa: E402

@pytest.fixture(autouse=True)
def smoke(monkeypatch):
    shapes = {
        "Isotropic": {"full": (32, 32, 32), "small": (32, 32, 32),
                      "probe": (32, 32, 32)},
        "FLDSC": {"full": (64, 128), "small": (64, 128),
                  "probe": (64, 128)},
        "HACC-x": {"full": (2 ** 13,), "small": (2 ** 13,),
                   "probe": (2 ** 13,)},
    }
    monkeypatch.setattr(inputs, "SHAPES", shapes)
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(serve.LoadBench, "MIN_WINDOWS", 2)
    monkeypatch.setattr(workloads, "TRACE_READS", serve.WINDOW)


def _run(name, tmp_path, *, trace=False, seconds=1.0):
    return workloads.run(name, 3, seconds, trace, str(tmp_path),
                         t_start=0.0)


def test_percentile_needs_ten_samples_beyond():
    assert ledger.percentile(range(1000), 99) == 989
    with pytest.raises(ledger.TooFewSamples):
        ledger.percentile(range(999), 99)
    assert ledger.percentile(range(20), 50) == 9
    with pytest.raises(ledger.TooFewSamples):
        ledger.percentile(range(19), 50)


def test_every_serve_window_yields_a_p99():
    assert ledger.percentile(range(serve.WINDOW), 99) == serve.WINDOW - 11


def test_benchmark_json_matches_the_catalogs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, catalog in (("end_to_end", ledger.END_TO_END),
                         ("per_layer", ledger.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} \
            == catalog
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_boxes_are_seeded_and_mix_sizes():
    a = inputs.boxes(np.random.default_rng(1), (64, 64, 64), 16, 8)
    b = inputs.boxes(np.random.default_rng(1), (64, 64, 64), 16, 8)
    c = inputs.boxes(np.random.default_rng(2), (64, 64, 64), 16, 8)
    assert a == b and a != c
    extents = [tuple(s.stop - s.start for s in box) for box in a]
    assert extents[:4] == [(16,) * 3, (8,) * 3, (16,) * 3, (16,) * 3]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_prints_every_metric(name, tmp_path):
    metrics, tally = _run(name, tmp_path)
    assert list(metrics) == list(ledger.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    assert tally.attempted > 0
    assert tally.failed == 0, tally.reasons


@pytest.mark.xfail(strict=True, reason="dpz serve leaves its unix socket "
                   "file behind after a clean SIGTERM shutdown")
def test_unix_socket_child_shuts_down_cleanly(tmp_path):
    ctx = serve.setup(3, str(tmp_path))
    tally = ledger.Tally()
    try:
        child = serve.Child(ctx.store_path,
                            log_path=str(tmp_path / "u.log"),
                            unix_socket=str(tmp_path / "u.sock"))
        try:
            child.wait_healthy()
        finally:
            child.stop(tally)
    finally:
        ctx.close(ledger.Tally())
    assert tally.failed == 0, tally.reasons


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_the_ledger(name, tmp_path):
    metrics, tally = _run(name, tmp_path, trace=True)
    assert list(metrics) == list(ledger.PER_LAYER)
    assert tally.data_failed == 0, tally.reasons
    assert metrics["unattributed_s"] != 0.0
    assert metrics["trace.overhead_frac"] != 0.0
    owned = {"fields": "dpz.pca_s", "store": "store.chunks.decoded",
             "serve": "serve.requests"}
    assert metrics[owned[name]] > 0


def test_corrupted_response_counts_as_failure(tmp_path, monkeypatch):
    from repro.serve import ServeClient

    real = ServeClient.region
    calls = [0]

    def corrupt(self, alias, field, region):
        arr = np.array(real(self, alias, field, region))
        calls[0] += 1
        if calls[0] % 10 == 0:
            arr.view(np.uint8).flat[0] ^= 1
        return arr

    ctx = serve.setup(3, str(tmp_path))
    tally = ledger.Tally()
    try:
        serve.prepare(ctx)
        monkeypatch.setattr(ServeClient, "region", corrupt)
        reader = serve.Reader(ctx, tally)
        try:
            reader.read(100)
        finally:
            reader.close()
    finally:
        ctx.close(ledger.Tally())
    assert calls[0] == 100
    assert tally.attempted == 100
    assert tally.data_failed == 10


def test_cli_prints_one_json_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "store", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: unit for n, (unit, _) in ledger.END_TO_END.items()}
