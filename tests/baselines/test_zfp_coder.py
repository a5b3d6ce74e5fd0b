"""The vectorized ZFP bit-plane coder against the per-block oracle.

``tests/baselines/zfp_oracle.py`` keeps zfp's ``encode_ints`` /
``decode_ints`` control flow one block at a time.  The numpy coder in
``repro.baselines.zfp`` must write the same bytes and decode the same
arrays in all three modes, and must refuse hostile containers with a
:class:`FormatError` before it allocates anything they size.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import zfp
from repro.baselines.zfp import EBITS, INTPREC, zfp_compress, zfp_decompress
from repro.codecs.container import pack_sections, unpack_sections
from repro.codecs.varint import encode_uvarint
from repro.errors import ConfigError, FormatError
from tests.baselines import zfp_oracle as oracle


def _field(seed: int, shape: tuple[int, ...], dtype: str,
           decades: float = 0.0, zero_frac: float = 0.0) -> np.ndarray:
    """Smooth field plus noise; optional per-block scale spread (in
    decades) and a zeroed leading slab (all-zero blocks)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    for ax in range(len(shape)):
        data = np.cumsum(data, axis=ax)
    data += 0.1 * rng.normal(size=shape)
    if decades:
        scale = 10.0 ** rng.uniform(-decades, decades,
                                    size=tuple(-(-n // 4) for n in shape))
        for ax in range(len(shape)):
            scale = np.repeat(scale, 4, axis=ax)
        data *= scale[tuple(slice(0, n) for n in shape)]
    if zero_frac:
        data[: int(shape[0] * zero_frac)] = 0.0
    return data.astype(dtype)


def _modes(data: np.ndarray) -> list[dict]:
    size = 4 ** data.ndim
    span = float(np.abs(data).max()) or 1.0
    return [
        {"tolerance": span * 1e-4},
        {"tolerance": span * 0.3},  # many blocks below the tolerance
        {"precision": 1},
        {"precision": 17},
        {"precision": INTPREC},
        {"rate": (1 + EBITS) / size},  # header only: zero plane budget
        {"rate": (1 + EBITS + 3) / size},
        {"rate": 8.0},
        {"rate": 24.0},
    ]


def _assert_same(data: np.ndarray, mode: dict) -> None:
    blob = zfp_compress(data, **mode)
    assert blob == oracle.compress(data, **mode), mode
    out = zfp_decompress(blob)
    ref = oracle.decompress(blob)
    assert out.dtype == ref.dtype and out.shape == data.shape
    np.testing.assert_array_equal(out, ref)


# -- deterministic differential (no hypothesis) ------------------------------

FIELDS = [
    ("1d-ragged", 11, (37,), "f4", 0.0, 0.0),
    ("2d-ragged", 12, (13, 10), "f8", 0.0, 0.3),
    ("3d-ragged", 13, (9, 6, 7), "f4", 0.0, 0.0),
    ("3d-wide-range", 14, (8, 8, 8), "f8", 12.0, 0.0),
    ("2d-zero-blocks", 15, (16, 12), "f4", 3.0, 0.5),
]


@pytest.mark.parametrize("name, seed, shape, dtype, decades, zero_frac",
                         FIELDS, ids=[f[0] for f in FIELDS])
def test_matches_oracle_in_every_mode(name, seed, shape, dtype, decades,
                                      zero_frac):
    data = _field(seed, shape, dtype, decades, zero_frac)
    for mode in _modes(data):
        _assert_same(data, mode)


def test_all_zero_field_matches_oracle():
    data = np.zeros((6, 9), dtype=np.float32)
    for mode in _modes(data):
        _assert_same(data, mode)


def test_block_batches_match_one_batch(monkeypatch):
    """Batches split the blocks; the accuracy parse carries its cursor
    across them.  A tiny batch cap must change nothing."""
    data = _field(21, (12, 10, 9), "f4", 4.0, 0.25)
    modes = _modes(data)
    blobs = [zfp_compress(data, **m) for m in modes]
    outs = [zfp_decompress(b) for b in blobs]
    monkeypatch.setattr(zfp, "_MAX_BATCH_BITS", 1)  # one block a batch
    for m, blob, out in zip(modes, blobs, outs):
        assert zfp_compress(data, **m) == blob
        np.testing.assert_array_equal(zfp_decompress(blob), out)


# -- hypothesis differential -------------------------------------------------


@st.composite
def _cases(draw):
    ndim = draw(st.integers(1, 3))
    top = {1: 40, 2: 13, 3: 9}[ndim]
    shape = tuple(draw(st.lists(st.integers(1, top), min_size=ndim,
                                max_size=ndim)))
    data = _field(draw(st.integers(0, 2**31)), shape,
                  draw(st.sampled_from(["f4", "f8"])),
                  draw(st.sampled_from([0.0, 2.0, 15.0])),
                  draw(st.sampled_from([0.0, 0.0, 0.5])))
    size = 4 ** ndim
    span = float(np.abs(data).max()) or 1.0
    mode = draw(st.one_of(
        st.builds(lambda f: {"tolerance": span * f},
                  st.sampled_from([1e-9, 1e-5, 1e-2, 0.5, 4.0])),
        st.builds(lambda p: {"precision": p}, st.integers(1, INTPREC)),
        st.builds(lambda b: {"rate": b / size},
                  st.integers(1 + EBITS, 1 + EBITS + 40)),
        st.builds(lambda r: {"rate": r}, st.sampled_from([4.0, 8.0, 16.0])
                  ).filter(lambda m: m["rate"] * size >= 1 + EBITS),
    ))
    return data, mode


@given(_cases())
def test_matches_oracle_property(case):
    data, mode = case
    _assert_same(data, mode)


@given(st.integers(0, 2**31), st.sampled_from(["rate", "accuracy"]))
def test_corrupt_payload_bits_match_oracle_or_raise(seed, mode):
    """Flipped payload bits: a fixed-rate stream decodes as the oracle
    does unless a flipped exponent leaves the float32 range or a block
    decodes beyond it; an accuracy stream either decodes as the oracle
    does or raises FormatError (never IndexError)."""
    rng = np.random.default_rng(seed)
    data = _field(seed, (7, 9), "f4")
    kw = {"rate": 6.0} if mode == "rate" else {"tolerance": 1e-2}
    meta, kmin, payload = unpack_sections(zfp_compress(data, **kw),
                                          b"ZFR1", 1)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    flip = rng.integers(0, bits.size, size=rng.integers(1, 6))
    bits[flip] ^= 1
    blob = pack_sections(b"ZFR1", 1,
                         [meta, kmin, np.packbits(bits).tobytes()])
    try:
        out = zfp_decompress(blob)
    except FormatError as exc:
        assert (mode == "accuracy" or "exponent" in str(exc)
                or "finite" in str(exc))
        return
    np.testing.assert_array_equal(out, oracle.decompress(blob))


# -- hostile containers ------------------------------------------------------


def _meta(mode_id=2, tag=b"f4", param=1e-3, shape=(8, 8), padded=None,
          nbits=None) -> bytes:
    padded = padded if padded is not None else tuple(-(-n // 4) * 4
                                                     for n in shape)
    out = bytearray(encode_uvarint(mode_id) + tag + struct.pack("<d", param))
    out += encode_uvarint(len(shape))
    for n in list(shape) + list(padded):
        out += encode_uvarint(n)
    out += encode_uvarint(nbits)
    return bytes(out)


def _container(meta: bytes, kmin: bytes, payload: bytes) -> bytes:
    return pack_sections(b"ZFR1", 1, [meta, kmin, payload])


@pytest.fixture
def accuracy_blob():
    return zfp_compress(_field(3, (8, 8), "f4"), tolerance=1e-3)


def _sections(blob):
    return unpack_sections(blob, b"ZFR1", 1)


def test_truncated_payload_raises_format_error(accuracy_blob):
    meta, kmin, payload = _sections(accuracy_blob)
    with pytest.raises(FormatError, match="payload"):
        zfp_decompress(_container(meta, kmin, payload[:-3]))


def test_stream_cut_short_raises_format_error(accuracy_blob):
    """A header whose bit count is consistent with a short payload: the
    parse runs out of bits inside a block."""
    meta, kmin, payload = _sections(accuracy_blob)
    hdr = zfp._read_header([meta, kmin, payload])
    cut = hdr.n_bits // 2
    short = _meta(2, b"f4", 1e-3, hdr.shape, hdr.padded, cut)
    with pytest.raises(FormatError, match="ZFP bit stream"):
        zfp_decompress(_container(short, kmin, payload[: (cut + 7) // 8]))


def test_short_kmin_section_raises_format_error(accuracy_blob):
    meta, kmin, payload = _sections(accuracy_blob)
    with pytest.raises(FormatError, match="kmin section"):
        zfp_decompress(_container(meta, kmin[:-1], payload))


def test_kmin_beyond_the_planes_raises_format_error(accuracy_blob):
    meta, kmin, payload = _sections(accuracy_blob)
    with pytest.raises(FormatError, match="kmin"):
        zfp_decompress(_container(meta, b"\xff" + kmin[1:], payload))


def test_unknown_mode_id_raises_format_error(accuracy_blob):
    meta, kmin, payload = _sections(accuracy_blob)
    with pytest.raises(FormatError, match="mode id 7"):
        zfp_decompress(_container(b"\x07" + meta[1:], kmin, payload))


def test_unknown_dtype_tag_raises_format_error(accuracy_blob):
    meta, kmin, payload = _sections(accuracy_blob)
    with pytest.raises(FormatError, match="dtype tag"):
        zfp_decompress(_container(meta[:1] + b"i8" + meta[3:], kmin,
                                  payload))


@pytest.mark.parametrize("d", [0, 4])
def test_dimension_count_out_of_range_raises_format_error(d):
    meta = _meta(shape=(4,) * max(d, 1), nbits=1)
    meta = meta[:11] + encode_uvarint(d) + meta[12:]
    with pytest.raises(FormatError, match="dimensions"):
        zfp_decompress(_container(meta, b"\x00", b"\x00"))


def test_padded_dims_not_multiple_of_four_raise_format_error():
    meta = _meta(shape=(6, 6), padded=(6, 6), nbits=4)
    with pytest.raises(FormatError, match="pads shape"):
        zfp_decompress(_container(meta, bytes(4), b"\x00"))


def test_huge_padded_dims_raise_before_allocating():
    """2**20-wide padding would size an 8 TiB coefficient array."""
    meta = _meta(shape=(8, 8), padded=(1 << 20, 1 << 20), nbits=4)
    with pytest.raises(FormatError, match="pads shape"):
        zfp_decompress(_container(meta, bytes(4), b"\x00"))
    # Consistent huge dims still fail on the bit count, not in numpy.
    meta = _meta(shape=(1 << 20, 1 << 20), nbits=4)
    with pytest.raises(FormatError, match="bits for"):
        zfp_decompress(_container(meta, bytes(4), b"\x00"))


def test_fixed_rate_bit_count_must_match_blocks():
    blob = zfp_compress(_field(5, (8, 8), "f4"), rate=8.0)
    meta, kmin, payload = _sections(blob)
    hdr = zfp._read_header([meta, kmin, payload])
    bad = _meta(0, b"f4", 8.0, hdr.shape, hdr.padded, hdr.n_bits - 8)
    with pytest.raises(FormatError, match="fixed-rate"):
        zfp_decompress(_container(bad, kmin, payload[:-1]))


def _with_block_exponent(dtype: str, exponent: int,
                         garbage: bool = False) -> bytes:
    """A fixed-rate 8x8 stream whose second block carries ``exponent``;
    ``garbage`` also sets every plane bit of that block."""
    blob = zfp_compress(_field(5, (8, 8), dtype), rate=8.0)
    meta, kmin, payload = _sections(blob)
    block_bits = 8 * 16
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    start = 1 * block_bits  # the second of four 4x4 blocks
    assert bits[start] == 1  # a nonzero block: flag, then the exponent
    bits[start + 1 : start + 1 + EBITS] = [
        (exponent + zfp._EBIAS) >> t & 1 for t in range(EBITS)]
    if garbage:
        bits[start + 1 + EBITS : start + block_bits] = 1
    return _container(meta, kmin, np.packbits(bits).tobytes())


def test_out_of_range_block_exponent_raises_format_error():
    # np.frexp of a finite float64 gives -1073..1024; a decoded 2000
    # used to scale the block to inf with numpy overflow warnings.
    with pytest.raises(FormatError, match="block 1 has exponent 2000"):
        zfp_decompress(_with_block_exponent("f8", 2000))


@pytest.mark.parametrize("exponent", [200, -1000])
def test_exponent_outside_float32_range_raises_format_error(exponent):
    """In float64's range, but no finite float32 has it: the decoder
    checks the stream's own dtype, -148..128 for float32."""
    with pytest.raises(FormatError, match=f"block 1 has exponent "
                                          f"{exponent}, outside -148..128"):
        zfp_decompress(_with_block_exponent("f4", exponent))


@pytest.mark.parametrize("dtype, exponent", [("f4", 128), ("f8", 1024)])
def test_block_decoded_beyond_finite_range_raises_format_error(dtype,
                                                               exponent):
    """An in-range exponent over garbage planes would overflow to inf."""
    hostile = _with_block_exponent(dtype, exponent, garbage=True)
    with pytest.raises(FormatError, match=f"beyond the finite {dtype}"):
        zfp_decompress(hostile)


def test_fewer_bits_than_blocks_raise_format_error():
    meta = _meta(1, b"f4", 10.0, shape=(16, 16), nbits=15)
    with pytest.raises(FormatError, match="15 bits for 16 blocks"):
        zfp_decompress(_container(meta, b"", bytes(2)))


@pytest.mark.parametrize("precision", [0.0, 55.0, 2.5, float("nan")])
def test_bad_precision_raises_format_error(precision):
    meta = _meta(1, b"f4", precision, shape=(4, 4), nbits=1)
    with pytest.raises(FormatError, match="precision"):
        zfp_decompress(_container(meta, b"", b"\x00"))


def test_truncated_meta_raises_format_error(accuracy_blob):
    meta, kmin, payload = _sections(accuracy_blob)
    with pytest.raises(FormatError, match="truncated ZFP header"):
        zfp_decompress(_container(meta[:5], kmin, payload))


def test_non_integer_precision_refused_up_front():
    with pytest.raises(ConfigError, match="integer"):
        zfp.ZFPCompressor(precision=10.5)
