"""Fig. 3: information preservation and PSNR vs number of features.

The paper's Figure 3 compares DCT and PCA as retrieval methods on
FLDSC: the primary axis shows the CDF of information preserved (ECR
for DCT, TVE for PCA) as a function of the fraction of selected
features, the secondary axis the PSNR of the reconstruction using only
those features.  Headline observations reproduced here:

* ~1% of features carry >90% of the information in both methods;
* PCA reaches a given PSNR with fewer features than DCT (the paper
  reports 75 dB at ~35% DCT vs ~20% PCA features).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.information import ecr_curve
from repro.analysis.metrics import psnr
from repro.core.decompose import decompose, reassemble
from repro.core.encode import forward_transform, inverse_transform
from repro.datasets.registry import get_dataset
from repro.experiments.common import format_table
from repro.transforms.pca import PCA

__all__ = ["Fig3Result", "run", "format_report"]


@dataclass
class Fig3Result:
    """Curves of Fig. 3 for one dataset."""

    dataset: str
    fractions: np.ndarray            # fraction of features selected
    ecr_dct: np.ndarray              # information preserved, DCT
    tve_pca: np.ndarray              # information preserved, PCA
    psnr_dct: np.ndarray
    psnr_pca: np.ndarray

    def features_for_info(self, level: float, method: str) -> float:
        """Smallest feature fraction reaching an information level."""
        curve = self.ecr_dct if method == "dct" else self.tve_pca
        idx = np.searchsorted(curve, level)
        idx = min(idx, curve.size - 1)
        return float(self.fractions[idx])

    def features_for_psnr(self, level: float, method: str) -> float:
        """Smallest evaluated feature fraction reaching a PSNR level."""
        curve = self.psnr_dct if method == "dct" else self.psnr_pca
        hits = np.flatnonzero(curve >= level)
        if hits.size == 0:
            return float("nan")
        return float(self.fractions[hits[0]])


def _dct_reconstruction(coeffs: np.ndarray, keep: int,
                        plan) -> np.ndarray:
    """Zero all but the ``keep`` largest-magnitude coefficients."""
    flat = coeffs.reshape(-1)
    if keep < flat.size:
        thresh = np.partition(np.abs(flat), flat.size - keep)[flat.size - keep]
        kept = np.where(np.abs(flat) >= thresh, flat, 0.0)
    else:
        kept = flat
    return reassemble(
        inverse_transform(kept.reshape(coeffs.shape), "dct"), plan)


def run(dataset: str = "FLDSC", size: str = "small",
        n_eval: int = 12) -> Fig3Result:
    """Sweep the kept-feature fraction for both methods.

    ``n_eval`` PSNR evaluations are spread geometrically over feature
    fractions (full reconstructions are the expensive part).
    """
    data = get_dataset(dataset, size).astype(np.float64)
    blocks, plan = decompose(data)
    coeffs = forward_transform(blocks, "dct")
    features = coeffs.T
    pca = PCA(center=False).fit(features)

    m = plan.m_blocks
    fracs = np.unique(np.geomspace(1.0 / m, 1.0, n_eval))
    ecr_full = ecr_curve(coeffs.reshape(-1))
    tve_full = pca.tve_curve()

    ecr_at = np.empty(fracs.size)
    tve_at = np.empty(fracs.size)
    psnr_dct = np.empty(fracs.size)
    psnr_pca = np.empty(fracs.size)
    total_coeffs = coeffs.size
    for i, f in enumerate(fracs):
        k = max(1, int(round(f * m)))
        ecr_at[i] = ecr_full[min(int(round(f * total_coeffs)) - 1,
                                 total_coeffs - 1)]
        tve_at[i] = tve_full[k - 1]
        recon_d = _dct_reconstruction(coeffs, int(round(f * total_coeffs)),
                                      plan)
        psnr_dct[i] = psnr(data, recon_d)
        scores = pca.transform(features, k=k)
        recon_feats = pca.inverse_transform(scores)
        recon_p = reassemble(inverse_transform(recon_feats.T, "dct"), plan)
        psnr_pca[i] = psnr(data, recon_p)
    return Fig3Result(dataset=dataset, fractions=fracs, ecr_dct=ecr_at,
                      tve_pca=tve_at, psnr_dct=psnr_dct, psnr_pca=psnr_pca)


def format_report(res: Fig3Result) -> str:
    """Fig. 3 as a text table of the swept operating points."""
    rows = []
    for i, f in enumerate(res.fractions):
        rows.append([
            f"{100 * f:6.2f}%",
            f"{res.ecr_dct[i]:.6f}",
            f"{res.psnr_dct[i]:7.2f}",
            f"{res.tve_pca[i]:.6f}",
            f"{res.psnr_pca[i]:7.2f}",
        ])
    table = format_table(
        ["features", "ECR (DCT)", "PSNR dct", "TVE (PCA)", "PSNR pca"],
        rows,
        title=f"Fig. 3 analogue -- {res.dataset}: information & PSNR vs "
              f"selected features",
    )
    one_pct_d = res.ecr_dct[np.searchsorted(res.fractions, 0.01)]
    one_pct_p = res.tve_pca[np.searchsorted(res.fractions, 0.01)]
    return table + (f"\ninfo at ~1% of features: DCT {one_pct_d:.3f}, "
                    f"PCA {one_pct_p:.3f} (paper: >0.9 for both)")
