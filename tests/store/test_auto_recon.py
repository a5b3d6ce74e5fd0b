"""``codec="auto"`` against its decode-based oracle.

Selection checks each candidate's error on the encoder's own
reconstruction instead of decoding the payload.  That may not change a
single pick or byte: on Table-I-style fields and mixed textures,
``compress_chunk_auto`` must return exactly what the decode-based loop
of ``tests/store/auto_oracle.py`` returns, and a traced pack must decode
no SZ or ZFP payload at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import climate, cosmology, turbulence
from repro.observability import (
    Tracer,
    get_registry,
    metrics_snapshot,
    use_tracer,
)
from repro.store import MemoryStore, Store, compress_chunk_auto
from repro.store.basis import BasisCache
from repro.store.chunking import iter_chunks
from tests.store import auto_oracle


def _textures() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    g = np.linspace(-1, 1, 32)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    smooth = np.sin(4 * xx) * np.cos(3 * yy) * zz
    noisy = rng.normal(size=(32, 32, 32))
    return {"smooth": smooth, "noisy": noisy,
            "mixed": np.where(xx > 0, smooth, 0.2 * noisy)}


FIELDS = {
    "FLDSC": (lambda: climate.fldsc((128, 256), seed=3), 64),
    "Isotropic": (lambda: turbulence.isotropic((32, 32, 32), seed=3), 16),
    "HACC-x": (lambda: cosmology.hacc_x(n=2 ** 14, seed=3), 4096),
    **{name: (lambda arr=arr: arr.astype(np.float32), 16)
       for name, arr in _textures().items()},
}


@pytest.mark.parametrize("rel", [1e-4, 1e-2])
@pytest.mark.parametrize("name", list(FIELDS))
def test_picks_and_payloads_match_oracle(name, rel):
    make, edge = FIELDS[name]
    data = make()
    budget = rel * float(np.max(data) - np.min(data))
    cshape = (edge,) * data.ndim
    cache, oracle_cache = BasisCache(cshape), BasisCache(cshape)
    for _, sl in iter_chunks(data.shape, cshape):
        chunk = np.ascontiguousarray(data[sl])
        got = compress_chunk_auto(chunk, budget, cache)
        assert got == auto_oracle.compress_chunk_auto(chunk, budget,
                                                      oracle_cache), sl


def test_traced_auto_pack_decodes_no_sz_or_zfp_payload():
    data = climate.fldsc((128, 256), seed=3)
    budget = 1e-4 * float(np.max(data) - np.min(data))
    get_registry().reset(kinds=("counter",))
    with use_tracer(Tracer()):
        with Store.create(MemoryStore()) as st:
            st.add("f", data, codec="auto", chunk_shape=64,
                   error_budget=budget)
        counters = metrics_snapshot()["counters"]
    n_chunks = 2 * 4
    assert counters["store.auto.trials"] == 3 * n_chunks
    assert counters["sz.compress.runs"] >= n_chunks
    assert counters["zfp.compress.runs"] >= n_chunks
    assert counters.get("sz.decompress.runs", 0) == 0
    assert counters.get("zfp.decompress.runs", 0) == 0
    assert set(st.info("f")["chunk_codecs"]) & {"sz", "zfp"}
