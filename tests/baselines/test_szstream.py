"""Tests for SZ residual entropy coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.szstream import decode_residuals, encode_residuals
from repro.codecs.varint import encode_uvarint, encode_uvarints
from repro.codecs.zlibc import zlib_compress
from repro.errors import CodecError


def test_roundtrip_small_residuals(rng):
    res = rng.integers(-10, 11, size=5000)
    blob = encode_residuals(res)
    out = decode_residuals(blob, res.size)
    np.testing.assert_array_equal(out, res)


def test_roundtrip_with_escapes(rng):
    res = rng.integers(-5, 6, size=2000).astype(np.int64)
    res[::100] = 10 ** 9  # far outside the 64k alphabet
    res[::151] = -(10 ** 12)
    blob = encode_residuals(res)
    np.testing.assert_array_equal(decode_residuals(blob, res.size), res)


def test_peaked_residuals_compress_well(rng):
    res = rng.choice([-1, 0, 0, 0, 0, 0, 0, 1], size=50_000).astype(np.int64)
    blob = encode_residuals(res)
    # ~1 bit/symbol achievable; allow generous margin over the 8 bytes raw.
    assert len(blob) < res.size // 2


def test_small_alphabet(rng):
    res = rng.integers(-2, 3, size=300)
    blob = encode_residuals(res, alphabet=16)
    np.testing.assert_array_equal(decode_residuals(blob, 300, alphabet=16),
                                  res)


def test_all_escapes():
    res = np.full(50, 10 ** 10, dtype=np.int64)
    blob = encode_residuals(res, alphabet=4)
    np.testing.assert_array_equal(decode_residuals(blob, 50, alphabet=4),
                                  res)


def test_empty_stream():
    res = np.zeros(0, dtype=np.int64)
    blob = encode_residuals(res)
    assert decode_residuals(blob, 0).size == 0


@given(st.lists(st.integers(-(2 ** 40), 2 ** 40), max_size=300))
def test_roundtrip_property(values):
    res = np.asarray(values, dtype=np.int64)
    blob = encode_residuals(res, alphabet=256)
    np.testing.assert_array_equal(
        decode_residuals(blob, res.size, alphabet=256), res
    )


def _with_side_stream(blob: bytes, escapes: np.ndarray, side: bytes) -> bytes:
    """``blob`` with its escape side stream replaced by ``side``."""
    frame = zlib_compress(encode_uvarint(escapes.size)
                          + encode_uvarints(escapes))
    head = blob[: len(blob) - len(frame) - len(encode_uvarint(len(frame)))]
    assert head + encode_uvarint(len(frame)) + frame == blob
    forged = zlib_compress(side)
    return head + encode_uvarint(len(forged)) + forged


@pytest.mark.parametrize("n_esc", [2 ** 40, 2 ** 63, 9, 11])
def test_forged_escape_count_raises_before_allocating(n_esc):
    res = np.zeros(500, dtype=np.int64)
    res[::50] = 10 ** 9  # 10 escapes
    escapes = np.full(10, 2 * 10 ** 9, dtype=np.uint64)
    blob = encode_residuals(res)
    assert np.array_equal(decode_residuals(blob, res.size), res)
    forged = _with_side_stream(
        blob, escapes, encode_uvarint(n_esc) + encode_uvarints(escapes))
    with pytest.raises(CodecError, match="escape count mismatch"):
        decode_residuals(forged, res.size)


def test_truncated_escape_values_raise():
    res = np.zeros(500, dtype=np.int64)
    res[::50] = 10 ** 9
    escapes = np.full(10, 2 * 10 ** 9, dtype=np.uint64)
    blob = encode_residuals(res)
    side = encode_uvarint(10) + encode_uvarints(escapes)
    for cut in (1, 3, 40):
        forged = _with_side_stream(blob, escapes, side[:-cut])
        with pytest.raises(CodecError, match="truncated uvarint"):
            decode_residuals(forged, res.size)


def test_escape_markers_without_values_raise():
    res = np.zeros(500, dtype=np.int64)
    res[7] = 10 ** 9
    escapes = np.full(1, 2 * 10 ** 9, dtype=np.uint64)
    forged = _with_side_stream(encode_residuals(res), escapes,
                               encode_uvarint(0))
    with pytest.raises(CodecError, match="escape count mismatch"):
        decode_residuals(forged, res.size)
