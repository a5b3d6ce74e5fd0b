"""Fig. 10: VIF distributions of sampled data.

The paper probes HACC-vx, Isotropic and PHIS with sampling rates of
2.5% and 1% and boxplots the per-feature VIFs: HACC-vx sits below the
collinearity cutoff of 5 (low linearity -> poor DPZ compressibility)
while Isotropic and PHIS sit well above, and the 1% sample already
separates the two groups cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.vif import variance_inflation_factors, vif_summary
from repro.core.decompose import decompose
from repro.core.encode import forward_transform
from repro.datasets.registry import get_dataset
from repro.experiments.common import format_table

__all__ = ["VIFRow", "run", "format_report", "FIG10_DATASETS"]

FIG10_DATASETS = ("HACC-vx", "Isotropic", "PHIS")


@dataclass
class VIFRow:
    """VIF boxplot statistics for one (dataset, sampling rate)."""

    dataset: str
    sampling_rate: float
    stats: dict[str, float]


def run(datasets: tuple[str, ...] = FIG10_DATASETS,
        size: str = "small",
        rates: tuple[float, ...] = (0.025, 0.01),
        seed: int = 0) -> list[VIFRow]:
    """Compute sampled VIF distributions (DCT-domain features, as DPZ
    sees them).

    The sampling rate selects the *fraction of block features* probed
    (all datapoints are kept, so the feature correlations stay well
    estimated); this matches how Alg. 2 uses SR.
    """
    rows: list[VIFRow] = []
    for name in datasets:
        data = get_dataset(name, size).astype(np.float64)
        lo, hi = data.min(), data.max()
        norm = (data - lo) / (hi - lo) - 0.5
        blocks, plan = decompose(norm)
        features = forward_transform(blocks, "dct").T
        for rate in rates:
            rng = np.random.default_rng(seed)
            # Floor of 6: at the scaled-down dataset sizes a 1% probe
            # would fall below the minimum window in which block
            # collinearity is even observable (the paper's M is 4x
            # larger, so its 1% probe is ~10-18 features).
            n_feat = max(6, int(round(rate * plan.m_blocks)))
            vifs = variance_inflation_factors(
                features, max_features=n_feat, rng=rng,
            )
            rows.append(VIFRow(dataset=name, sampling_rate=rate,
                               stats=vif_summary(vifs)))
    return rows


def format_report(rows: list[VIFRow]) -> str:
    """Boxplot statistics table (Fig. 10's content)."""
    table_rows = []
    for r in rows:
        s = r.stats
        table_rows.append([
            r.dataset, f"{100 * r.sampling_rate:g}%",
            f"{s['q1']:9.2f}", f"{s['median']:9.2f}", f"{s['q3']:9.2f}",
            f"{s['mean']:9.2f}", f"{100 * s['frac_below_cutoff']:5.1f}%",
        ])
    return format_table(
        ["dataset", "SR", "Q1", "median", "Q3", "mean", "<cutoff(5)"],
        table_rows,
        title="Fig. 10 analogue -- VIF distribution of sampled block "
              "features",
    )
