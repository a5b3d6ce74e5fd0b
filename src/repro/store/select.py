"""Per-chunk automatic codec selection against an error budget.

Tao et al. ("Optimizing Lossy Compression Rate-Distortion from
Automatic Online Selection between SZ and ZFP") showed that the best
error-bounded compressor flips between SZ and ZFP *per region* of a
field; a chunked store is exactly the granularity at which that choice
pays.  ``codec="auto"`` implements the online-selection loop per
chunk:

1. **trial**: compress a deterministic sampled plane of the chunk with
   each candidate (SZ at ``eps=budget``, ZFP at ``tolerance=budget``,
   DPZ-s) and discard candidates whose plane error exceeds the budget;
2. **rank** the survivors by trial compressed size (best ratio first);
3. **verify**: compress the full chunk with the winner and check the
   *actual* max absolute error against the budget; on violation fall
   through to the next candidate, and ultimately to the lossless
   ``raw`` codec, which satisfies any budget by construction.

Steps 1 and 3 measure the error on the array the payload decodes to,
as :meth:`~repro.codecs.registry.CodecSpec.compress_recon` returns it:
SZ and ZFP build it from their encoder's own lattice and kept bit
planes, bit-identical to a decode, so a pack decodes no SZ or ZFP
payload; DPZ (no such encoder) compresses and then decodes.

Step 3 is what turns a heuristic into a guarantee: whatever the trial
plane missed, no chunk ever leaves ``compress_chunk_auto`` violating
the requested budget.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.codecs.registry import CompressReconFn, get_codec
from repro.errors import ConfigError, ReproError
from repro.observability import counter_inc
from repro.store.basis import BasisCache, compress_dpz

__all__ = ["AUTO_CANDIDATES", "candidate_kwargs", "trial_plane",
           "compress_chunk_auto"]

#: Candidate codecs tried by ``codec="auto"``, in declaration order.
AUTO_CANDIDATES: tuple[str, ...] = ("sz", "zfp", "dpz")

#: Per-codec trial/compress keyword arguments for a given budget.
_KWARGS: dict[str, Callable[[float], dict[str, Any]]] = {
    "sz": lambda budget: {"eps": budget},
    "zfp": lambda budget: {"tolerance": budget},
    "dpz": lambda budget: {"scheme": "s", "tve_nines": 6},
    "raw": lambda budget: {},
}


def candidate_kwargs(codec: str, budget: float) -> dict[str, Any]:
    """Codec keyword arguments that target ``budget`` for this codec.

    SZ and ZFP take the budget directly as their error bound; DPZ has
    no absolute-error knob, so it runs its strict scheme and relies on
    the full-chunk verification step to accept or reject the result.
    """
    try:
        return _KWARGS[codec](float(budget))
    except KeyError:
        raise ConfigError(
            f"no auto-selection mapping for codec {codec!r}; "
            f"candidates are {AUTO_CANDIDATES}") from None


def _encoder(codec: str) -> CompressReconFn:
    """``(data, **kwargs) -> (payload, decompress(payload))`` for a codec."""
    return get_codec(codec).compress_recon


def trial_plane(chunk: "np.ndarray[Any, np.dtype[Any]]"
                ) -> "np.ndarray[Any, np.dtype[Any]]":
    """Deterministic sample of a chunk used for trial compression.

    The middle plane along axis 0 for >= 2-D chunks (the cheapest
    slice that still sees the chunk's full transverse structure); a
    4x-strided subsample for 1-D chunks.  Pure function of the chunk,
    so two runs trial the exact same values.
    """
    if chunk.ndim >= 2:
        return np.ascontiguousarray(chunk[chunk.shape[0] // 2])
    return np.ascontiguousarray(chunk[:: max(1, chunk.size // 4096)])


def _max_abs_err(a: "np.ndarray[Any, np.dtype[Any]]",
                 b: "np.ndarray[Any, np.dtype[Any]]") -> float:
    return float(np.max(np.abs(a.astype("<f8") - b.astype("<f8"))))


def compress_chunk_auto(chunk: "np.ndarray[Any, np.dtype[Any]]",
                        budget: float,
                        basis_cache: "BasisCache | None" = None
                        ) -> tuple[str, bytes]:
    """Pick a codec for ``chunk`` and compress it under ``budget``.

    Returns ``(codec_name, payload)``.  The payload's full-chunk max
    absolute error is verified to be ``<= budget``; the lossless
    ``raw`` codec is the final fallback, so the contract always holds.

    ``basis_cache`` lets the DPZ candidate reuse a sibling chunk's
    fitted projection basis (see :mod:`repro.store.basis`); the
    verification step here is unchanged, so the budget guarantee does
    not depend on the reused basis being any good.
    """
    if not budget > 0.0:
        raise ConfigError(
            f"codec='auto' needs a positive error budget, got {budget}")
    plane = trial_plane(chunk)
    ranked: list[tuple[int, str]] = []
    for codec in AUTO_CANDIDATES:
        counter_inc("store.auto.trials")
        try:
            blob, recon = _encoder(codec)(plane,
                                          **candidate_kwargs(codec, budget))
        except ReproError:
            continue  # candidate cannot represent this plane at all
        if _max_abs_err(plane, recon) <= budget:
            ranked.append((len(blob), codec))
    ranked.sort()
    for _, codec in ranked:
        kwargs = candidate_kwargs(codec, budget)
        try:
            if codec == "dpz" and basis_cache is not None:
                payload = compress_dpz(chunk, basis_cache, **kwargs)
                recon = get_codec(codec).decompress(payload)
            else:
                payload, recon = _encoder(codec)(chunk, **kwargs)
        except ReproError:
            continue
        if _max_abs_err(chunk, recon) <= budget:
            return codec, payload
        counter_inc("store.auto.fallbacks")
    return "raw", get_codec("raw").compress(chunk)
