"""The DPZ compressor facade: compress / decompress with instrumentation.

Ties the stages together exactly as Fig. 5 draws them and exposes the
measurements the paper's evaluation needs:

* per-stage wall-clock timings (Fig. 9),
* per-stage compression factors (Table III),
* stage-1&2 vs stage-3 PSNR (Table IV), optionally, since it requires
  an extra reconstruction pass,
* the sampling report (Section V-C6) when sampling is enabled.

The compressed artifact is a self-describing byte string; decompression
needs no configuration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import psnr
from repro.core.config import DPZ_L, DPZConfig
from repro.baselines.lorenzo import lattice_dequantize, lattice_quantize
from repro.core.decompose import (
    DecompositionPlan,
    decompose,
    reassemble,
)
from repro.core.encode import (
    forward_transform,
    inverse_transform,
    truncate_coefficients,
)
from repro.core.kpca import fit_kpca
from repro.core.quantize import (
    QuantizedScores,
    dequantize_scores,
    quantize_scores,
)
from repro.core.sampling import (
    SamplingReport,
    linearity_probe,
    sampling_probe,
)
from repro.core.stream import DPZArchive, deserialize, serialize
from repro.errors import DataShapeError
from repro.observability import counter_inc, gauge_set, observe, span
from repro.observability import quality as _quality
from repro.transforms.pca import PCA

__all__ = ["DPZCompressor", "DPZStats"]

_DTYPE_TAGS = {np.dtype(np.float32): "f4", np.dtype(np.float64): "f8"}

#: Extra components published in ``stats.basis`` beyond the k the
#: payload used.  A basis fitted at the *minimal* k for one chunk sits
#: exactly on the TVE threshold, so siblings would reject it almost
#: every time; the headroom gives a reusing chunk room to take one or
#: two more components and still skip its own eigendecomposition.
_BASIS_HEADROOM = 8


@contextmanager
def _stage(stats: "DPZStats", name: str, **span_kw):
    """Time one compression stage into ``stats.times`` and the tracer.

    The ``stats.times`` clock always runs (Fig. 9 reads it); the span
    is a no-op unless a tracer is installed.
    """
    t0 = time.perf_counter()
    with span("dpz." + name, **span_kw) as sp:
        yield sp
    stats.times[name] = time.perf_counter() - t0


@dataclass
class DPZStats:
    """Instrumentation gathered during one compression.

    Sizes are bytes; times are seconds; CRs are compression *factors*
    (>1 means smaller).  ``cr_stage12`` counts the k-PCA scores at
    float32 against the original, ``cr_stage3`` the quantized streams
    against those scores, and ``cr_zlib`` the lossless add-on's gain --
    their product tracks the end-to-end ratio up to header/basis
    overhead (which ``cr`` includes exactly).
    """

    original_nbytes: int = 0
    compressed_nbytes: int = 0
    m_blocks: int = 0
    n_points: int = 0
    k: int = 0
    tve_at_k: float = 0.0
    standardized: bool = False
    outlier_fraction: float = 0.0
    times: dict[str, float] = field(default_factory=dict)
    cr: float = 0.0
    cr_stage12: float = 0.0
    cr_stage3: float = 0.0
    cr_zlib: float = 0.0
    psnr_stage12: float | None = None
    psnr_final: float | None = None
    truncated_fraction: float = 0.0
    correction_fraction: float = 0.0
    sampling: SamplingReport | None = None
    #: The float32 projection basis actually used ((k, M)); callers such
    #: as the store cache it and feed it back via ``reuse_basis=``.
    basis: np.ndarray | None = None
    #: True when ``reuse_basis`` passed verification and the per-chunk
    #: eigendecomposition was skipped entirely.
    basis_reused: bool = False

    @property
    def delta_psnr(self) -> float | None:
        """Accuracy lost to stage 3 (Table IV's delta-PSNR)."""
        if self.psnr_stage12 is None or self.psnr_final is None:
            return None
        return self.psnr_stage12 - self.psnr_final

    @property
    def bitrate(self) -> float:
        """Bits per value of the compressed artifact."""
        values = self.original_nbytes / 4  # nominal 32-bit values
        return 8.0 * self.compressed_nbytes / values


class DPZCompressor:
    """DPZ lossy compressor (paper Sections IV-A..IV-D).

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.DPZConfig`; defaults to the
        paper's loose scheme (DPZ-l) with "three-nine" TVE selection.

    Examples
    --------
    >>> comp = DPZCompressor(DPZ_S.with_tve_nines(5))
    >>> blob = comp.compress(field)
    >>> recon = DPZCompressor.decompress(blob)
    """

    def __init__(self, config: DPZConfig = DPZ_L) -> None:
        self.config = config

    # -- probing ------------------------------------------------------------

    def probe(self, data: np.ndarray) -> SamplingReport:
        """Run the sampling strategy (Alg. 2) without compressing."""
        cfg = self.config
        data = np.asarray(data)
        # Same input normalization as compress(): the uncentered PCA's
        # spectrum (and hence k) is offset-sensitive.
        dmin = float(data.min())
        rng = float(data.max()) - dmin
        if rng == 0.0:
            rng = 1.0
        work = (data.astype(np.float64) - dmin) / rng - 0.5
        blocks, _ = decompose(work)
        coeffs = forward_transform(blocks, cfg.transform, cfg.n_jobs)
        return sampling_probe(
            coeffs.T, tve=cfg.tve, subsets=cfg.sampling_subsets,
            sampling_rate=cfg.sampling_rate,
            orig_nbytes=int(data.nbytes),
        )

    # -- compression ----------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Compress; returns the container bytes."""
        blob, _ = self.compress_with_stats(data)
        return blob

    def compress_with_stats(self, data: np.ndarray, *,
                            stage_psnr: bool = False,
                            reuse_basis: np.ndarray | None = None
                            ) -> tuple[bytes, DPZStats]:
        """Compress and return ``(blob, stats)``.

        ``stage_psnr=True`` additionally reconstructs the data twice
        (once from unquantized and once from quantized scores) to fill
        ``psnr_stage12`` / ``psnr_final`` -- roughly doubling runtime.

        ``reuse_basis`` is an optional ``(k, M)`` float32 basis from a
        previous fit on like data (e.g. a sibling store chunk).  It is
        *verified, never trusted*: the data is projected onto it and the
        achieved TVE (captured energy over total energy) must still meet
        ``config.tve``, else the basis is discarded and a fresh fit runs.
        Reuse only applies on the plain path (TVE mode, no sampling, no
        standardization) where the verification is exact; the basis that
        ends up used either way is published as ``stats.basis``.
        """
        t_start = time.perf_counter()
        cfg = self.config
        data = np.asarray(data)
        # Byte-order-insensitive lookup: a '>f4' input is still an f4
        # field and must produce the same archive as its '<f4' twin.
        dtype_tag = _DTYPE_TAGS.get(data.dtype.newbyteorder("="))
        if dtype_tag is None:
            data = data.astype(np.float64)
            dtype_tag = "f8"
        if data.size == 0:
            raise DataShapeError("cannot compress an empty array")
        stats = DPZStats(original_nbytes=int(data.nbytes))

        # Input normalization to [-0.5, 0.5] (DCTZ-inherited): makes the
        # quantizer bound range-relative and the score scale universal.
        dmin = float(data.min())
        rng = float(data.max()) - dmin
        if rng == 0.0:
            rng = 1.0
        work = (np.asarray(data, dtype=np.float64) - dmin) / rng - 0.5

        # Stage 1a: decomposition.
        with _stage(stats, "decompose", bytes_in=stats.original_nbytes) as sp:
            blocks, plan = decompose(work)
            sp.add(m_blocks=plan.m_blocks, n_points=plan.n_points,
                   bytes_out=int(blocks.nbytes))
        stats.m_blocks, stats.n_points = plan.m_blocks, plan.n_points

        # Stage 1b: per-block transform (DCT by default), plus the
        # optional pre-PCA coefficient truncation extension.
        with _stage(stats, "dct", bytes_in=int(blocks.nbytes),
                    transform=cfg.transform, n_jobs=cfg.n_jobs) as sp:
            coeffs = forward_transform(blocks, cfg.transform, cfg.n_jobs)
            if cfg.dct_truncate > 0:
                coeffs, zeroed = truncate_coefficients(coeffs,
                                                       cfg.dct_truncate)
                stats.truncated_fraction = zeroed
            sp.add(bytes_out=int(coeffs.nbytes))
        features = coeffs.T  # (N samples, M features)

        # Optional sampling (Alg. 2): k estimate + linearity flag.  The
        # 'auto' standardize policy only needs the cheap VIF half.
        report: SamplingReport | None = None
        low_linearity = False
        shared_cov: np.ndarray | None = None
        if cfg.use_sampling:
            with _stage(stats, "sampling", bytes_in=int(features.nbytes)):
                # Second-moment matrix computed once, shared between the
                # probe's k refinement and the projection fit below.
                shared_cov = (features.T @ features) / (features.shape[0] - 1)
                report = sampling_probe(
                    features, tve=cfg.tve, subsets=cfg.sampling_subsets,
                    sampling_rate=cfg.sampling_rate,
                    orig_nbytes=stats.original_nbytes, cov=shared_cov,
                )
            stats.sampling = report
            low_linearity = report.low_linearity
        elif cfg.standardize == "auto":
            with _stage(stats, "sampling", bytes_in=int(features.nbytes)):
                _, _, low_linearity = linearity_probe(
                    features, sampling_rate=cfg.sampling_rate)
        if cfg.standardize == "always":
            standardize = True
        elif cfg.standardize == "never":
            standardize = False
        else:
            standardize = low_linearity
        stats.standardized = standardize

        # Stage 2: k-PCA.
        with _stage(stats, "pca", bytes_in=int(features.nbytes),
                    standardized=standardize) as sp:
            reused = False
            if (reuse_basis is not None and not cfg.use_sampling
                    and not standardize and cfg.k_mode == "tve"
                    and reuse_basis.ndim == 2
                    and reuse_basis.shape[1] == features.shape[1]):
                # Project first, verify after: the achieved TVE of the
                # candidate basis on *this* data decides whether the
                # cached fit still meets the configured threshold, and
                # the smallest component prefix that clears it is kept
                # (per-component captured energies are additive over an
                # ordered orthonormal basis).  The energy identity
                # ||scores||^2 == captured energy only holds for
                # orthonormal rows, so a cheap Gram check guards it (a
                # non-orthonormal basis could inflate the score norms
                # and pass the threshold spuriously).
                basis = reuse_basis.astype(np.float64)
                gram_dev = float(np.abs(basis @ basis.T
                                        - np.eye(basis.shape[0])).max())
                if gram_dev < 1e-4:
                    full_scores = features @ basis.T
                    energy = float((features * features).sum())
                    cum = np.cumsum((full_scores * full_scores).sum(axis=0))
                    hits = np.flatnonzero(cum >= (cfg.tve - 1e-9) * energy)
                    if hits.size:
                        reused = True
                        k = int(hits[0]) + 1
                        comp32 = np.ascontiguousarray(
                            reuse_basis[:k], dtype=np.float32)
                        scores = np.ascontiguousarray(full_scores[:, :k])
                        tve_at_k = (min(float(cum[k - 1]) / energy, 1.0)
                                    if energy > 0 else 1.0)
                        pca_mean = np.zeros(features.shape[1])
                        pca_scale = None
            if not reused:
                if cfg.use_sampling:
                    k = min(report.k_estimate, plan.m_blocks)
                    if standardize or shared_cov is None:
                        pca = PCA(n_components=k, solver="eigsh",
                                  standardize=standardize,
                                  center=False).fit(features)
                    else:
                        pca = PCA.from_covariance(shared_cov, k)
                    curve = pca.tve_curve()
                    tve_at_k = float(curve[-1])
                else:
                    res = fit_kpca(
                        features, k_mode=cfg.k_mode, tve=cfg.tve,
                        knee_fit=cfg.knee_fit, fixed_k=cfg.fixed_k,
                        standardize=standardize, compute_scores=False,
                    )
                    pca, k, tve_at_k = res.pca, res.k, res.tve_at_k
                # Round the basis to its stored (float32) precision
                # *before* projecting, so encoder and decoder share one
                # basis exactly.
                comp32 = pca.components_[:k].astype(np.float32)
                basis = comp32.astype(np.float64)
                # (x - 0.0) is bitwise x: skip centering on the all-zero
                # mean of the uncentered default.
                centered = (features - pca.mean_ if pca.mean_.any()
                            else features)
                if pca.scale_ is not None:
                    centered = centered / pca.scale_
                scores = centered @ basis.T
                pca_mean = pca.mean_
                pca_scale = pca.scale_
            sp.add(k=k, basis_reused=reused, bytes_out=int(scores.nbytes))
        stats.k, stats.tve_at_k = k, tve_at_k
        stats.basis_reused = reused
        # Publish the reusable basis with headroom: the candidate as
        # received when it was reused, else the freshly fitted
        # components a little past k (see _BASIS_HEADROOM).
        stats.basis = (np.asarray(reuse_basis, dtype=np.float32) if reused
                       else pca.components_[:k + _BASIS_HEADROOM]
                       .astype(np.float32))

        # Stage 3: quantization.  Scores live in normalized-data units,
        # so the range-relative p applies to them directly.
        with _stage(stats, "quantize", bytes_in=int(scores.nbytes),
                    n_bins=cfg.n_bins) as sp:
            # Standardization rescales features to unit variance,
            # inflating score magnitudes far past the quantizer's fixed
            # range; bring them back with a stored global divisor so
            # stage 3 keeps its in-range mass (error scales by the same
            # factor on inverse).
            score_scale = 1.0
            if standardize and scores.size:
                spread = float(np.percentile(np.abs(scores), 99.0))
                target = 0.9 * cfg.p * cfg.n_bins
                if spread > target:
                    score_scale = spread / target
            out_dtype = np.float64 if cfg.store_outliers_f64 else np.float32
            q = quantize_scores(scores / score_scale, cfg.p, cfg.n_bins,
                                outlier_dtype=out_dtype)
            sp.add(bytes_out=int(q.indices.nbytes + q.outliers.nbytes),
                   outlier_fraction=round(q.outlier_fraction, 6))
        stats.outlier_fraction = q.outlier_fraction

        # Lossless add-on + container.
        with _stage(stats, "encode",
                    bytes_in=int(q.indices.nbytes + q.outliers.nbytes)) as sp:
            archive = DPZArchive(
                shape=tuple(data.shape), dtype_tag=dtype_tag,
                m_blocks=plan.m_blocks, n_points=plan.n_points, k=k, p=cfg.p,
                n_bins=cfg.n_bins, index_bytes=cfg.index_bytes,
                standardized=standardize, norm_offset=dmin, norm_scale=rng,
                score_scale=score_scale, transform=cfg.transform,
                outlier_dtype_tag="f8" if cfg.store_outliers_f64 else "f4",
                components=comp32, mean=pca_mean,
                scale=pca_scale, indices=q.indices, outliers=q.outliers,
            )
            # Optional strict pointwise bound (extension; see DPZConfig).
            if cfg.max_error is not None:
                with _stage(stats, "correction",
                            bytes_in=stats.original_nbytes):
                    target = cfg.max_error * rng
                    if dtype_tag == "f4":
                        ulp = float(
                            np.spacing(np.float32(np.max(np.abs(data)))))
                        if target > 2.0 * ulp:
                            target -= ulp
                    recon = self._reconstruct(
                        archive, dequantize_scores(q) * score_scale,
                        raw=True)
                    resid = (data.astype(np.float64).reshape(-1)
                             - recon.reshape(-1))
                    bad = np.flatnonzero(np.abs(resid) > target)
                    if bad.size:
                        bound_c = target / 2.0
                        archive.corr_bound = bound_c
                        archive.corr_indices = bad.astype(np.int64)
                        archive.corr_codes = lattice_quantize(resid[bad],
                                                              bound_c)
                    stats.correction_fraction = bad.size / data.size

            with span("dpz.serialize") as ssp:
                blob, sizes = serialize(archive)
                ssp.add(bytes_out=len(blob),
                        sec_meta=sizes.meta, sec_components=sizes.components,
                        sec_mean_scale=sizes.mean_scale,
                        sec_indices=sizes.indices,
                        sec_outliers=sizes.outliers,
                        sec_corrections=sizes.corrections)
            sp.add(bytes_out=len(blob))

        # Size accounting.
        stats.compressed_nbytes = len(blob)
        stats.cr = stats.original_nbytes / len(blob)
        scores_f32 = scores.size * 4
        raw_stage3 = (q.indices.nbytes + q.outliers.nbytes)
        stats.cr_stage12 = stats.original_nbytes / max(scores_f32, 1)
        stats.cr_stage3 = scores_f32 / max(raw_stage3, 1)
        stats.cr_zlib = raw_stage3 / max(sizes.indices + sizes.outliers, 1)

        if stage_psnr:
            recon12 = self._reconstruct(archive, scores,
                                        corrections=False)
            stats.psnr_stage12 = psnr(data, recon12)
            recon3 = self._reconstruct(
                archive, dequantize_scores(q) * score_scale)
            stats.psnr_final = psnr(data, recon3)

        # Quality telemetry (opt-in, Z-checker style): reconstruct once
        # more and record the rate-distortion point as gauges + span
        # metadata.  Purely read-only -- the blob is already final, so
        # the archive stays byte-identical with telemetry on or off.
        if _quality.quality_enabled():
            with _stage(stats, "quality", bytes_in=stats.original_nbytes):
                recon_q = self._reconstruct(
                    archive, dequantize_scores(q) * score_scale)
                _quality.record_quality(data, recon_q, len(blob),
                                        tve_at_k=stats.tve_at_k)

        counter_inc("dpz.compress.runs")
        counter_inc("dpz.compress.bytes_in", stats.original_nbytes)
        counter_inc("dpz.compress.bytes_out", len(blob))
        gauge_set("dpz.last.cr", stats.cr)
        gauge_set("dpz.last.k", float(k))
        observe("dpz.compress.seconds", time.perf_counter() - t_start)
        return blob, stats

    # -- decompression --------------------------------------------------------

    @staticmethod
    def _reconstruct(archive: DPZArchive, scores: np.ndarray, *,
                     corrections: bool = True,
                     raw: bool = False) -> np.ndarray:
        """Shared inverse pipeline from scores to the data domain.

        ``corrections`` applies the optional max-error correction pass
        (disabled when measuring the uncorrected stage PSNRs);
        ``raw=True`` returns float64 before the output-dtype cast and
        skips corrections (used to *compute* them).
        """
        with span("dpz.inverse_pca", bytes_in=int(scores.nbytes)) as sp:
            basis = archive.components.astype(np.float64)
            feats = scores @ basis
            if archive.scale is not None:
                feats = feats * archive.scale
            feats = feats + archive.mean
            sp.add(bytes_out=int(feats.nbytes))
        coeffs = feats.T  # (M, N)
        with span("dpz.inverse_transform", bytes_in=int(coeffs.nbytes),
                  transform=archive.transform):
            blocks = inverse_transform(coeffs, archive.transform)
        plan = DecompositionPlan(
            shape=archive.shape,
            total_values=int(np.prod(archive.shape)),
            m_blocks=archive.m_blocks,
            n_points=archive.n_points,
        )
        with span("dpz.reassemble", bytes_in=int(blocks.nbytes)) as sp:
            out = reassemble(blocks, plan)
            out = (out + 0.5) * archive.norm_scale + archive.norm_offset
            sp.add(bytes_out=int(out.nbytes))
        if raw:
            return out
        if corrections and archive.corr_indices is not None:
            flat = out.reshape(-1)
            flat[archive.corr_indices] += lattice_dequantize(
                archive.corr_codes, archive.corr_bound
            )
        return out.astype(archive.original_dtype)

    @staticmethod
    def decompress(blob: bytes, *, k: int | None = None) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`.

        ``k`` enables *progressive* reconstruction: only the leading
        ``k`` of the stored components contribute (the paper\'s
        "reconstruction at any level shows consistency" property --
        DPZ\'s components are ordered by information, so a truncated
        decode is the optimal lower-fidelity preview of the same
        archive).  The max-error correction channel, when present, is
        calibrated for the full-``k`` reconstruction and is skipped for
        partial decodes.
        """
        t_start = time.perf_counter()
        with span("dpz.deserialize", bytes_in=len(blob)):
            archive = deserialize(blob)
        with span("dpz.dequantize",
                  bytes_in=int(archive.indices.nbytes
                               + archive.outliers.nbytes)) as sp:
            q = QuantizedScores(
                indices=archive.indices, outliers=archive.outliers,
                p=archive.p, n_bins=archive.n_bins,
                shape=(archive.n_points, archive.k),
            )
            scores = dequantize_scores(q) * archive.score_scale
            sp.add(bytes_out=int(scores.nbytes))
        if k is not None:
            if not 1 <= k <= archive.k:
                raise DataShapeError(
                    f"progressive k must be in [1, {archive.k}], got {k}"
                )
            if k < archive.k:
                scores = scores.copy()
                scores[:, k:] = 0.0
                out = DPZCompressor._reconstruct(archive, scores,
                                                 corrections=False)
            else:
                out = DPZCompressor._reconstruct(archive, scores)
        else:
            out = DPZCompressor._reconstruct(archive, scores)
        counter_inc("dpz.decompress.runs")
        counter_inc("dpz.decompress.bytes_in", len(blob))
        counter_inc("dpz.decompress.bytes_out", int(out.nbytes))
        observe("dpz.decompress.seconds", time.perf_counter() - t_start)
        return out
