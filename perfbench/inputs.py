"""Seeded inputs: fields, region boxes and the zipf request order.

The workload seed feeds every generator here; the program under test
only ever sees the arrays and regions these functions return.  One
field per Table-I family: Isotropic (3-D turbulence), FLDSC (2-D
climate) and HACC-x (1-D cosmology).
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Family -> generator shape per size preset.  ``full`` and ``small``
#: are the registry's presets; ``probe`` is the benchmark's own small
#: size for the cross-workload probes.
SHAPES: dict[str, dict[str, tuple[int, ...]]] = {
    "Isotropic": {"full": (128, 128, 128), "small": (64, 64, 64),
                  "probe": (32, 32, 32)},
    "FLDSC": {"full": (1800, 3600), "small": (450, 900),
              "probe": (128, 256)},
    "HACC-x": {"full": (2 ** 21,), "small": (2 ** 18,),
               "probe": (2 ** 15,)},
}
FAMILIES = tuple(SHAPES)

#: Error-bounded codecs use an absolute bound of this share of the
#: field's value range.
REL_BOUND = 1e-4


def field(family: str, size: str, seed: int) -> Any:
    """One seeded float32 field of ``family`` at a size preset."""
    from repro.datasets import climate, cosmology, turbulence

    shape = SHAPES[family][size]
    # Distinct, seed-derived generator seeds per family and size.
    s = int(np.random.SeedSequence([seed, FAMILIES.index(family),
                                    len(shape), shape[0]])
            .generate_state(1)[0])
    if family == "Isotropic":
        return turbulence.isotropic(shape, seed=s)
    if family == "FLDSC":
        return climate.fldsc(shape, seed=s)
    return cosmology.hacc_x(n=shape[0], seed=s)


def bound(arr: Any) -> float:
    """The absolute error bound for one field."""
    return REL_BOUND * float(np.max(arr) - np.min(arr))


def crop(arr: Any, shape: tuple[int, ...]) -> Any:
    """A contiguous leading-corner crop."""
    return np.ascontiguousarray(arr[tuple(slice(0, n) for n in shape)])


def boxes(rng: np.random.Generator, shape: tuple[int, ...], chunk: int,
          n: int) -> list[tuple[slice, ...]]:
    """``n`` seeded boxes cycling through four classes.

    Class ``i % 4`` of box ``i``: a chunk-aligned chunk (1 chunk), a
    half-chunk box inside one chunk (1), a chunk-sized box straddling a
    boundary in the last dimension (2) and one straddling a boundary in
    every dimension (2**ndim).  Only positions depend on the seed, so
    every seed reads the same mix of sizes and chunk counts.
    """
    out = []
    for i in range(n):
        cls = i % 4
        sl = []
        for dim, d in enumerate(shape):
            straddle = cls == 3 or (cls == 2 and dim == len(shape) - 1)
            c = int(rng.integers(0, d // chunk - (1 if straddle else 0)))
            if cls == 1:
                lo, ext = c * chunk + chunk // 4, chunk // 2
            else:
                lo, ext = c * chunk + (chunk // 2 if straddle else 0), chunk
            sl.append(slice(lo, lo + ext))
        out.append(tuple(sl))
    return out


def zipf_order(rng: np.random.Generator, n_items: int, n_draws: int,
               s: float = 1.1) -> Any:
    """``n_draws`` item indices; item ``i`` has zipf(s) popularity rank
    ``i``, so list items in the popularity order wanted."""
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** s
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())
