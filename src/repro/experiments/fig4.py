"""Fig. 4: error of transform combinations at a fixed 5x ratio.

The paper's Figure 4 compresses FLDSC to a fixed 5x feature-reduction
with four pipelines -- DCT alone, PCA alone, DCT-on-PCA and PCA-on-DCT
-- and visualizes the absolute reconstruction error.  The reported
ordering (Section III-B1): **PCA on DCT is the most accurate, DCT on
PCA the worst**, motivating DPZ's stage order.

Pipeline definitions (each reduced ~``ratio`` times overall):

* ``dct`` -- per-block zonal masking: keep the lowest-frequency 20% of
  each block's coefficients.  This is the conventional *fixed* DCT
  selection (paper Section III-A3 names zigzag/zonal masking) -- a
  data-adaptive top-magnitude selection would additionally have to
  store coefficient positions, which the fixed-feature-count comparison
  excludes.
* ``pca`` -- spatial-domain PCA in its standard workflow configuration
  (mean-centered, standardized features), keeping the top 20% of
  components.  The standardization is exactly the "scaling redistributes
  the weight of the variance" effect the paper argues against for
  block-data (Section IV-B).
* ``dct_on_pca`` -- PCA first, then DCT of the PCA-reduced data.
  Per the paper's own diagnosis (Section III-B3: in this order "the
  feature selection step" occurs in *two* stages rather than one),
  both stages truncate to 20%: the stored artifact is 20% of the
  coefficients -- same nominal 5x -- but the signal has passed through
  two independent truncations, which is what makes this combination
  the worst.
* ``pca_on_dct`` -- DPZ's order: block DCT (lossless, no selection),
  then uncentered PCA in the DCT domain keeping 20% of components --
  selection in a single stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import max_abs_error, mse, psnr
from repro.core.decompose import decompose, reassemble
from repro.core.encode import forward_transform, inverse_transform
from repro.datasets.registry import get_dataset
from repro.experiments.common import format_table
from repro.transforms.pca import PCA

__all__ = ["PipelineError", "Fig4Result", "run", "format_report",
           "PIPELINES"]

PIPELINES = ("dct", "pca", "dct_on_pca", "pca_on_dct")


@dataclass
class PipelineError:
    """Reconstruction error of one transform combination."""

    name: str
    psnr: float
    mse: float
    max_abs: float
    mean_abs: float


@dataclass
class Fig4Result:
    """All four pipelines on one dataset at one reduction ratio."""

    dataset: str
    ratio: float
    errors: dict[str, PipelineError]
    error_maps: dict[str, np.ndarray]

    def ordering(self) -> list[str]:
        """Pipelines sorted best (lowest MSE) first."""
        return sorted(self.errors, key=lambda n: self.errors[n].mse)


def _zonal_mask(coeffs: np.ndarray, keep_frac: float) -> np.ndarray:
    """Keep the lowest-frequency fraction of each block's coefficients."""
    n = coeffs.shape[1]
    keep = max(1, int(round(keep_frac * n)))
    out = coeffs.copy()
    out[:, keep:] = 0.0
    return out


def run(dataset: str = "FLDSC", size: str = "small",
        ratio: float = 5.0) -> Fig4Result:
    """Evaluate the four combinations at a fixed reduction ratio."""
    data = get_dataset(dataset, size).astype(np.float64)
    blocks, plan = decompose(data)
    m = plan.m_blocks
    keep_frac = 1.0 / ratio
    k = max(1, int(round(keep_frac * m)))

    recons: dict[str, np.ndarray] = {}

    # 1. DCT alone: zonal masking per block.
    coeffs = forward_transform(blocks, "dct")
    recons["dct"] = reassemble(
        inverse_transform(_zonal_mask(coeffs, keep_frac), "dct"), plan
    )

    # 2. PCA alone, standard workflow (centered + standardized).
    pca_sp = PCA(center=True, standardize=True).fit(blocks.T)
    scores = pca_sp.transform(blocks.T, k=k)
    recons["pca"] = reassemble(pca_sp.inverse_transform(scores).T, plan)

    # 3. DCT on PCA: selection in BOTH stages (20% of components, then
    #    20% of the coefficients of the PCA-reduced data).
    reduced = pca_sp.inverse_transform(scores).T            # (M, N)
    red_coeffs = forward_transform(reduced, "dct")
    recons["dct_on_pca"] = reassemble(
        inverse_transform(_zonal_mask(red_coeffs, keep_frac), "dct"), plan
    )

    # 4. PCA on DCT coefficients (DPZ's order, single selection stage).
    pca_dct = PCA(center=False).fit(coeffs.T)
    sc = pca_dct.transform(coeffs.T, k=k)
    feats = pca_dct.inverse_transform(sc)
    recons["pca_on_dct"] = reassemble(inverse_transform(feats.T, "dct"), plan)

    errors: dict[str, PipelineError] = {}
    maps: dict[str, np.ndarray] = {}
    for name, rec in recons.items():
        err = np.abs(data - rec)
        maps[name] = err
        errors[name] = PipelineError(
            name=name, psnr=psnr(data, rec), mse=mse(data, rec),
            max_abs=max_abs_error(data, rec), mean_abs=float(err.mean()),
        )
    return Fig4Result(dataset=dataset, ratio=ratio, errors=errors,
                      error_maps=maps)


def format_report(res: Fig4Result) -> str:
    """Fig. 4's error comparison as a table plus the ordering claim."""
    rows = []
    for name in PIPELINES:
        e = res.errors[name]
        rows.append([name, f"{e.psnr:7.2f}", f"{e.mse:.3e}",
                     f"{e.mean_abs:.3e}", f"{e.max_abs:.3e}"])
    table = format_table(
        ["pipeline", "PSNR", "MSE", "mean |err|", "max |err|"], rows,
        title=f"Fig. 4 analogue -- {res.dataset} at ~{res.ratio:g}x "
              f"feature reduction",
    )
    order = res.ordering()
    return table + (f"\nbest -> worst: {' > '.join(order)} "
                    f"(paper: pca_on_dct best, dct_on_pca worst)")
