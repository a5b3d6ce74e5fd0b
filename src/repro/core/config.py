"""DPZ configuration and the paper's published schemes.

The evaluation (Section V-A) defines two operating schemes:

* **DPZ-l** ("loose"): quantizer error bound ``P = 1e-3`` with 1-byte
  bin indices;
* **DPZ-s** ("strict"): ``P = 1e-4`` with 2-byte bin indices.

Either combines with one of the k-selection policies of Alg. 1:
knee-point detection (``k_mode='knee'``) or explained variance
variation (``k_mode='tve'`` with a "n-nines" threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.information import nines_to_tve
from repro.errors import ConfigError

__all__ = ["DPZConfig", "DPZ_L", "DPZ_S"]

_K_MODES = ("knee", "tve", "fixed")
_KNEE_FITS = ("1d", "polyn")
_STANDARDIZE = ("auto", "always", "never")


@dataclass(frozen=True)
class DPZConfig:
    """Full configuration of a DPZ compressor.

    Parameters
    ----------
    p:
        Stage-3 quantizer error bound ``P`` (paper: 1e-3 loose /
        1e-4 strict).  Applies to in-range k-PCA scores.  DPZ (like
        its predecessor DCTZ) normalizes the input to unit range
        before stage 1, so ``p`` is *range-relative*: one config is
        portable across datasets of any magnitude, and the mean
        relative error theta scales directly with ``p``.
    index_bytes:
        1 or 2; bin indices are stored as uint8/uint16.  Sets the bin
        count ``B = 2**(8*index_bytes) - 1`` (one code reserved for the
        out-of-range escape).
    k_mode:
        ``'knee'`` (Alg. 1 Method 1), ``'tve'`` (Method 2) or
        ``'fixed'`` (use ``fixed_k``; what the sampling strategy feeds).
    tve:
        TVE threshold for ``k_mode='tve'``; see
        :func:`repro.analysis.information.nines_to_tve` for the paper's
        "n-nines" values.
    knee_fit:
        Spline fit for knee detection: ``'1d'`` or ``'polyn'``.
    fixed_k:
        Component count for ``k_mode='fixed'``.
    standardize:
        ``'auto'`` standardizes features only when the sampling VIF
        probe reports low linearity (paper Alg. 2 step 2); ``'always'``
        / ``'never'`` override.
    use_sampling:
        Estimate ``k`` from subset PCA (Alg. 2) instead of a full-data
        eigenanalysis at the configured TVE.
    sampling_subsets:
        ``S`` of Alg. 2 (default 10); at least 3, the ``T`` subsets
        Alg. 2 picks.
    sampling_rate:
        ``SR`` for the VIF compressibility probe (default 1%).
    transform:
        Stage-1b transform: ``'dct'`` (the paper), ``'haar'``,
        ``'cdf53'`` or ``'identity'`` -- the paper's "PCA in other
        transform domains" extension, first-class.
    dct_truncate:
        If > 0, zero transform coefficients below this fraction of the
        largest magnitude *before* the PCA (the paper's future-work
        item on coefficient truncation).  0 disables.
    n_jobs:
        Worker threads for the block-parallel stages (1 = serial).
    store_outliers_f64:
        Keep out-of-range scores in float64 instead of float32 (exact,
        slightly larger streams).
    max_error:
        Optional strict pointwise error bound, *relative to the data
        range* (e.g. 1e-3).  DPZ's native loss model is L2 (energy):
        k-PCA truncation bounds total energy, not individual points.
        Setting this enables a correction pass -- residuals exceeding
        the bound are stored explicitly (SZ-style "unpredictable
        point" handling) -- giving DPZ the same hard max-error contract
        as SZ/MGARD at the cost of extra correction bytes on rough
        data.  None (default) reproduces the paper exactly.
    """

    p: float = 1e-3
    index_bytes: int = 1
    k_mode: str = "tve"
    tve: float = nines_to_tve(3)
    knee_fit: str = "1d"
    fixed_k: int | None = None
    standardize: str = "auto"
    use_sampling: bool = False
    sampling_subsets: int = 10
    sampling_rate: float = 0.01
    transform: str = "dct"
    dct_truncate: float = 0.0
    n_jobs: int = 1
    store_outliers_f64: bool = False
    max_error: float | None = None

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise ConfigError(f"quantizer bound p must be positive, got {self.p}")
        if self.index_bytes not in (1, 2):
            raise ConfigError(
                f"index_bytes must be 1 or 2, got {self.index_bytes}"
            )
        if self.k_mode not in _K_MODES:
            raise ConfigError(f"k_mode must be one of {_K_MODES}")
        if self.k_mode == "fixed" and (self.fixed_k is None or self.fixed_k < 1):
            raise ConfigError("k_mode='fixed' requires fixed_k >= 1")
        if not 0.0 < self.tve <= 1.0:
            raise ConfigError(f"tve must be in (0, 1], got {self.tve}")
        if self.knee_fit not in _KNEE_FITS:
            raise ConfigError(f"knee_fit must be one of {_KNEE_FITS}")
        if self.standardize not in _STANDARDIZE:
            raise ConfigError(f"standardize must be one of {_STANDARDIZE}")
        if self.sampling_subsets < 3:
            raise ConfigError("sampling_subsets must be >= 3")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ConfigError("sampling_rate must be in (0, 1]")
        from repro.core.encode import TRANSFORMS
        if self.transform not in TRANSFORMS:
            raise ConfigError(
                f"transform must be one of {TRANSFORMS}, got "
                f"{self.transform!r}"
            )
        if not 0.0 <= self.dct_truncate < 1.0:
            raise ConfigError(
                f"dct_truncate must be in [0, 1), got {self.dct_truncate}"
            )
        if self.max_error is not None and self.max_error <= 0:
            raise ConfigError(
                f"max_error must be positive, got {self.max_error}"
            )
        if self.n_jobs < 0:
            raise ConfigError("n_jobs must be >= 0 (0 = all cores)")

    @property
    def n_bins(self) -> int:
        """Quantizer bin count ``B`` (one index value is the escape)."""
        return (1 << (8 * self.index_bytes)) - 1

    def with_tve_nines(self, nines: int) -> "DPZConfig":
        """Copy of this config in TVE mode at the given "n-nines"."""
        return replace(self, k_mode="tve", tve=nines_to_tve(nines))

    def with_knee(self, fit: str = "1d") -> "DPZConfig":
        """Copy of this config in knee-point mode with the given fit."""
        return replace(self, k_mode="knee", knee_fit=fit)


#: The paper's "loose" scheme: P = 1e-3, 1-byte indexing.
DPZ_L = DPZConfig(p=1e-3, index_bytes=1)

#: The paper's "strict" scheme: P = 1e-4, 2-byte indexing.
DPZ_S = DPZConfig(p=1e-4, index_bytes=2)
