"""Tests for cross-chunk PCA-basis reuse (``repro.store.basis``).

The reuse contract: a cached basis is *verified, never trusted* -- the
compressor projects the chunk, checks the captured energy against the
configured TVE threshold (after checking the basis is orthonormal at
all), and silently refits on any miss.  So reuse can only change how
fast a chunk compresses, never whether its error bound holds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.api import dpz_decompress, scheme_config
from repro.core.compressor import DPZCompressor
from repro.observability import (
    Tracer,
    metrics_reset,
    metrics_snapshot,
    use_tracer,
)
from repro.store import Store
from repro.store.basis import (
    BasisCache,
    compress_dpz,
    representative_index,
)


def sibling_chunks(rng, n_chunks=6, edge=16):
    """Chunks drawn from one smooth field: statistically alike."""
    g = np.linspace(0, 4 * np.pi, edge * n_chunks)
    x = np.linspace(0, 2 * np.pi, edge)
    field = (np.sin(g)[:, None, None]
             * np.cos(x)[None, :, None]
             * np.sin(2 * x)[None, None, :]
             + 0.02 * rng.normal(size=(edge * n_chunks, edge, edge)))
    return [np.ascontiguousarray(field[i * edge:(i + 1) * edge])
            for i in range(n_chunks)]


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    energy = float((a.astype("<f8") ** 2).sum())
    resid = float(((a.astype("<f8") - b.astype("<f8")) ** 2).sum())
    return resid / energy if energy > 0 else 0.0


class TestBasisCache:
    def test_write_once_then_sealed(self, rng):
        chunks = sibling_chunks(rng, n_chunks=2)
        cache = BasisCache(chunks[0].shape)
        assert cache.get(chunks[0].shape) is None
        compress_dpz(chunks[0], cache, scheme="s", tve_nines=4)
        first = cache.get(chunks[0].shape)
        assert first is not None
        cache.seal()
        # A fresh fit after sealing must not replace the basis.
        compress_dpz(rng.normal(size=chunks[0].shape), cache,
                     scheme="s", tve_nines=4)
        assert cache.get(chunks[0].shape) is first

    def test_shape_mismatch_returns_none(self, rng):
        cache = BasisCache((16, 16, 16))
        compress_dpz(sibling_chunks(rng, n_chunks=1)[0], cache,
                     scheme="s", tve_nines=4)
        assert cache.get((8, 16, 16)) is None

    def test_representative_index_prefers_middle_full_chunk(self):
        full = (16, 16, 16)
        shapes = [full, full, full, (8, 16, 16)]
        assert representative_index(shapes, full) == 1
        assert representative_index([(8, 16, 16)], full) is None


class TestReuseContract:
    def test_siblings_reuse_and_stay_within_budget(self, rng):
        chunks = sibling_chunks(rng)
        cache = BasisCache(chunks[0].shape)
        tve = 1.0 - 1e-6
        with use_tracer(Tracer()):
            metrics_reset()
            blobs = [compress_dpz(c, cache, scheme="s", tve_nines=6)
                     for c in chunks]
            c = metrics_snapshot()["counters"]
        assert c["store.basis.fits"] == 1
        assert c["store.basis.reuses"] >= 1
        for chunk, blob in zip(chunks, blobs):
            out = dpz_decompress(blob).reshape(chunk.shape)
            assert rel_l2(chunk, out) <= (1.0 - tve) * 4 + 1e-7

    def test_alien_chunk_triggers_refit(self, rng):
        chunks = sibling_chunks(rng, n_chunks=2)
        cache = BasisCache(chunks[0].shape)
        compress_dpz(chunks[0], cache, scheme="s", tve_nines=6)
        cache.seal()
        # White noise shares no structure with the smooth seed chunk:
        # the cached basis cannot clear the threshold, so refit.
        alien = rng.normal(size=chunks[0].shape)
        with use_tracer(Tracer()):
            metrics_reset()
            blob = compress_dpz(alien, cache, scheme="s", tve_nines=6)
            c = metrics_snapshot()["counters"]
        assert c.get("store.basis.refits") == 1
        assert c.get("store.basis.reuses", 0) == 0
        out = dpz_decompress(blob).reshape(alien.shape)
        assert rel_l2(alien, out) <= 1e-5

    def test_junk_basis_rejected_by_gram_check(self, rng):
        # A non-orthonormal basis inflates projected score norms, so a
        # pure energy test could pass it spuriously; the orthonormality
        # (Gram) check must catch it and force a refit.
        chunk = sibling_chunks(rng, n_chunks=1)[0]
        cfg = scheme_config("s", tve_nines=6)
        probe = DPZCompressor(cfg).compress_with_stats(chunk)[1]
        junk = 3.0 * rng.normal(
            size=probe.basis.shape).astype(np.float32)
        blob, stats = DPZCompressor(cfg).compress_with_stats(
            chunk, reuse_basis=junk)
        assert not stats.basis_reused
        out = dpz_decompress(blob).reshape(chunk.shape)
        assert rel_l2(chunk, out) <= 1e-5

    def test_reuse_declined_when_standardizing(self, rng):
        chunk = sibling_chunks(rng, n_chunks=1)[0]
        cfg = scheme_config("s", tve_nines=6)
        probe = DPZCompressor(cfg).compress_with_stats(chunk)[1]
        std_cfg = dataclasses.replace(
            scheme_config("s", tve_nines=6), standardize="always")
        _, stats = DPZCompressor(std_cfg).compress_with_stats(
            chunk, reuse_basis=probe.basis)
        assert not stats.basis_reused


class TestStoreIntegration:
    def test_pack_reuses_across_chunks(self, rng, tmp_path):
        chunks = sibling_chunks(rng, n_chunks=4)
        field = np.concatenate(chunks, axis=0)
        with use_tracer(Tracer()):
            metrics_reset()
            with Store.create(tmp_path / "s.dpzs") as st:
                st.add("f", field, codec="dpz", chunk_shape=(16, 16, 16),
                       scheme="s", tve_nines=6)
            c = metrics_snapshot()["counters"]
        assert c["store.basis.fits"] == 1
        assert c["store.basis.reuses"] >= 1

    def test_pack_bytes_independent_of_n_jobs(self, rng, tmp_path):
        chunks = sibling_chunks(rng, n_chunks=4)
        field = np.concatenate(chunks, axis=0)

        def payload_bytes(n_jobs: int) -> list[bytes]:
            path = tmp_path / f"s{n_jobs}.dpzs"
            with Store.create(path) as st:
                st.add("f", field, codec="dpz",
                       chunk_shape=(16, 16, 16), n_jobs=n_jobs,
                       scheme="s", tve_nines=6)
            return [p.read_bytes()
                    for p in sorted(path.rglob("*")) if p.is_file()]

        assert payload_bytes(1) == payload_bytes(4)


@settings(max_examples=20)
@given(seed=hst.integers(0, 2**31 - 1), nines=hst.integers(2, 6))
def test_property_reuse_never_violates_tve(seed, nines):
    # Property (issue acceptance): whatever the chunks look like and
    # whatever the threshold, packing with basis reuse decodes within
    # the configured energy budget on every chunk.
    rng = np.random.default_rng(seed)
    chunks = sibling_chunks(rng, n_chunks=3, edge=8)
    cache = BasisCache(chunks[0].shape)
    budget = 10.0 ** -nines
    for chunk in chunks:
        blob = compress_dpz(chunk, cache, scheme="s", tve_nines=nines)
        out = dpz_decompress(blob).reshape(chunk.shape)
        assert rel_l2(chunk, out) <= budget * 4 + 1e-7
