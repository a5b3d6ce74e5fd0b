"""Block-parallel execution substrate.

The paper notes (Section V-C5) that DPZ's block-based design makes its
stages parallelizable -- in particular quantization/encoding needs "no
communication among the distributed blocks".  This subpackage provides
the machinery: :func:`repro.parallel.executor.parallel_map` runs a
function over block chunks on a thread pool (no pickling; it gains only
where NumPy's C loops, which release the GIL, dominate a task -- see
its module notes), and
:mod:`repro.parallel.chunking` computes balanced block ranges.
"""

from repro.parallel.chunking import chunk_ranges, chunk_slices
from repro.parallel.executor import ParallelConfig, parallel_map

__all__ = ["parallel_map", "ParallelConfig", "chunk_ranges", "chunk_slices"]
