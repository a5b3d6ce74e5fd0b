"""DPZ core: the paper's multi-stage IR-based lossy compressor.

Pipeline (paper Fig. 5)::

    data --(stage 1a: block decomposition)--> M x N block matrix
         --(stage 1b: per-block DCT-II)-----> DCT-domain features
         --(stage 2: k-PCA selection)-------> N x k component scores
         --(stage 3: symmetric quantization)-> indices + outliers
         --(lossless add-on: zlib)----------> container bytes

Modules map one-to-one onto the stages:

* :mod:`repro.core.config` -- :class:`DPZConfig` and the paper's two
  schemes (DPZ-l, DPZ-s).
* :mod:`repro.core.decompose` -- stage 1a.
* :mod:`repro.core.encode` -- stage 1b (DCT-II, or the wavelet and
  identity variants) and the optional pre-PCA truncation.
* :mod:`repro.core.kpca` -- stage 2 (Alg. 1: knee-point / TVE).
* :mod:`repro.core.quantize` -- stage 3.
* :mod:`repro.core.stream` -- container serialization.
* :mod:`repro.core.sampling` -- Alg. 2 (k estimation, VIF probe,
  preliminary CR).
* :mod:`repro.core.compressor` -- the :class:`DPZCompressor` facade
  with per-stage instrumentation.
"""

from repro.core.compressor import DPZCompressor, DPZStats
from repro.core.config import DPZ_L, DPZ_S, DPZConfig
from repro.core.sampling import SamplingReport, sampling_probe

__all__ = [
    "DPZCompressor",
    "DPZStats",
    "DPZConfig",
    "DPZ_L",
    "DPZ_S",
    "SamplingReport",
    "sampling_probe",
]
