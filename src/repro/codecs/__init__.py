"""Entropy-coding codec substrate.

This subpackage implements, from scratch, the low-level codecs the DPZ
pipeline and the SZ/ZFP baselines share:

* :mod:`repro.codecs.varint` -- LEB128 varints and zigzag signed mapping.
* :mod:`repro.codecs.negabinary` -- base(-2) integer mapping used by the
  ZFP-style coder.
* :mod:`repro.codecs.huffman` -- canonical Huffman coding with a
  serializable code table (vectorized encode/decode).
* :mod:`repro.codecs.zlibc` -- thin, framed wrapper around stdlib zlib.

ZFP's embedded bit-plane coder needs no bit-stream class: it packs and
unpacks whole planes with ``np.packbits`` inside
:mod:`repro.baselines.zfp`.

All codecs are lossless and round-trip exactly; the property-based test
suite (:mod:`tests.codecs`) enforces this on adversarial inputs.
"""

from repro.codecs.huffman import (
    HuffmanTable,
    huffman_decode,
    huffman_encode,
)
from repro.codecs.negabinary import int_to_negabinary, negabinary_to_int
from repro.codecs.varint import (
    decode_uvarint,
    encode_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.codecs.zlibc import zlib_compress, zlib_decompress

__all__ = [
    "HuffmanTable",
    "huffman_encode",
    "huffman_decode",
    "int_to_negabinary",
    "negabinary_to_int",
    "encode_uvarint",
    "decode_uvarint",
    "zigzag_encode",
    "zigzag_decode",
    "zlib_compress",
    "zlib_decompress",
]
