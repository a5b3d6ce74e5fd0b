"""Fig. 1: value distributions of FLDSC before/after the DCT.

The paper's Figure 1 contrasts (a) the flattened original FLDSC data
with (b) its block-DCT coefficients: the transform concentrates energy
in a small fraction of coefficients, so the coefficient histogram is
sharply peaked at zero with a heavy head -- the visual motivation for
feature selection.

``run`` returns both histograms plus summary statistics quantifying
the concentration (fraction of coefficients carrying 99% of the
energy), which is what the harness asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.information import ecr_curve
from repro.core.decompose import decompose
from repro.core.encode import forward_transform
from repro.datasets.registry import get_dataset
from repro.experiments.common import format_table

__all__ = ["Fig1Result", "run", "format_report"]


@dataclass
class Fig1Result:
    """Histograms and concentration statistics for Fig. 1."""

    dataset: str
    data_hist: np.ndarray
    data_edges: np.ndarray
    coeff_hist: np.ndarray
    coeff_edges: np.ndarray
    frac_coeffs_for_99pct_energy: float
    frac_values_for_99pct_energy: float


def run(dataset: str = "FLDSC", size: str = "small",
        bins: int = 80) -> Fig1Result:
    """Compute the Fig. 1 distributions for one dataset."""
    data = get_dataset(dataset, size).astype(np.float64)
    lo, hi = float(data.min()), float(data.max())
    norm = (data - lo) / (hi - lo) - 0.5
    blocks, _ = decompose(norm)
    coeffs = forward_transform(blocks, "dct")

    data_hist, data_edges = np.histogram(norm.reshape(-1), bins=bins)
    coeff_hist, coeff_edges = np.histogram(coeffs.reshape(-1), bins=bins)

    def frac99(values: np.ndarray) -> float:
        curve = ecr_curve(values)
        return float(np.searchsorted(curve, 0.99) + 1) / values.size

    return Fig1Result(
        dataset=dataset,
        data_hist=data_hist, data_edges=data_edges,
        coeff_hist=coeff_hist, coeff_edges=coeff_edges,
        frac_coeffs_for_99pct_energy=frac99(coeffs.reshape(-1)),
        frac_values_for_99pct_energy=frac99(norm.reshape(-1)),
    )


def format_report(res: Fig1Result) -> str:
    """Text rendition of Fig. 1 (histogram sparklines + statistics)."""

    def spark(hist: np.ndarray) -> str:
        marks = " .:-=+*#%@"
        top = hist.max() or 1
        return "".join(marks[min(int(9 * h / top), 9)] for h in hist)

    rows = [
        ["original data", spark(res.data_hist)],
        ["DCT coefficients", spark(res.coeff_hist)],
    ]
    stats = (
        f"\nfraction of items holding 99% of energy: "
        f"original={res.frac_values_for_99pct_energy:.3f}  "
        f"DCT coefficients={res.frac_coeffs_for_99pct_energy:.5f}"
    )
    return format_table(
        ["form", "value histogram (low -> high)"], rows,
        title=f"Fig. 1 analogue -- {res.dataset}: distribution before/after "
              f"the block DCT",
    ) + stats
