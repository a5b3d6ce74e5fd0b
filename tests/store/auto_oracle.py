"""The decode-based ``codec="auto"`` selection loop, kept as an oracle.

``repro.store.select`` checks each candidate's error on the array its
encoder says the payload decodes to
(:meth:`~repro.codecs.registry.CodecSpec.compress_recon`).  This module
keeps the loop that got that array by decoding every trial and verify
payload.  The tests check that both pick the same codec and write the
same payload.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.codecs.registry import codec_functions
from repro.errors import ReproError
from repro.store.basis import BasisCache, compress_dpz
from repro.store.select import AUTO_CANDIDATES, candidate_kwargs, trial_plane


def _max_abs_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a.astype("<f8") - b.astype("<f8"))))


def compress_chunk_auto(chunk: np.ndarray, budget: float,
                        basis_cache: BasisCache | None = None
                        ) -> tuple[str, bytes]:
    """``repro.store.select.compress_chunk_auto``, decoding every payload."""
    plane = trial_plane(chunk)
    ranked: list[tuple[int, str]] = []
    for codec in AUTO_CANDIDATES:
        compress, decompress = codec_functions(codec)
        try:
            blob = compress(plane, **candidate_kwargs(codec, budget))
            recon = decompress(blob)
        except ReproError:
            continue
        if _max_abs_err(plane, recon) <= budget:
            ranked.append((len(blob), codec))
    ranked.sort()
    for _, codec in ranked:
        compress, decompress = codec_functions(codec)
        kwargs: dict[str, Any] = candidate_kwargs(codec, budget)
        try:
            if codec == "dpz" and basis_cache is not None:
                payload = compress_dpz(chunk, basis_cache, **kwargs)
            else:
                payload = compress(chunk, **kwargs)
            recon = decompress(payload)
        except ReproError:
            continue
        if _max_abs_err(chunk, recon) <= budget:
            return codec, payload
    return "raw", codec_functions("raw")[0](chunk)
