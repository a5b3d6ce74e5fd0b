"""Unit and property tests for LEB128 varints and zigzag mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import CodecError


class TestUvarint:
    @pytest.mark.parametrize("value,encoded", [
        (0, b"\x00"),
        (1, b"\x01"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (300, b"\xac\x02"),
    ])
    def test_known_encodings(self, value, encoded):
        assert encode_uvarint(value) == encoded
        assert decode_uvarint(encoded) == (value, len(encoded))

    def test_negative_raises(self):
        with pytest.raises(CodecError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            decode_uvarint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(CodecError):
            decode_uvarint(b"\x80" * 10 + b"\x01")

    def test_value_past_64_bits_raises(self):
        assert decode_uvarint(b"\xff" * 9 + b"\x01") == (2 ** 64 - 1, 10)
        with pytest.raises(CodecError, match="too long"):
            decode_uvarint(b"\xff" * 9 + b"\x02")

    def test_offset_decoding(self):
        buf = b"junk" + encode_uvarint(7) + encode_uvarint(500)
        v1, pos = decode_uvarint(buf, 4)
        v2, pos = decode_uvarint(buf, pos)
        assert (v1, v2) == (7, 500)
        assert pos == len(buf)

    @given(st.integers(0, 2 ** 63 - 1))
    def test_roundtrip_property(self, value):
        data = encode_uvarint(value)
        assert decode_uvarint(data) == (value, len(data))


EDGES = [0, 1, 127, 128, 16383, 16384, 2 ** 32, 2 ** 56 - 1, 2 ** 56,
         2 ** 63, 2 ** 64 - 1]


class TestUvarintArrays:
    """The vectorized varints give the scalar functions' bytes."""

    def test_edges_match_scalar(self):
        values = np.array(EDGES, dtype=np.uint64)
        data = b"".join(encode_uvarint(v) for v in EDGES)
        assert encode_uvarints(values) == data
        out, end = decode_uvarints(b"ab" + data + b"cd", len(EDGES), 2)
        assert out.dtype == np.uint64
        assert out.tolist() == EDGES
        assert end == 2 + len(data)

    def test_empty(self):
        assert encode_uvarints(np.zeros(0, dtype=np.uint64)) == b""
        out, end = decode_uvarints(b"xyz", 0, 1)
        assert out.size == 0 and end == 1

    def test_seeded_match_scalar(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(1, 500))
            values = rng.integers(0, 2 ** 64 - 1, size=size, dtype=np.uint64,
                                  endpoint=True)
            values >>= rng.integers(0, 64, size=size, dtype=np.uint64)
            data = encode_uvarints(values)
            assert data == b"".join(encode_uvarint(v)
                                    for v in values.tolist())
            out, end = decode_uvarints(data, values.size)
            np.testing.assert_array_equal(out, values)
            assert end == len(data)

    def test_negative_raises(self):
        with pytest.raises(CodecError):
            encode_uvarints(np.array([3, -1]))

    @pytest.mark.parametrize("data,count", [
        (b"", 1), (b"\x01\x80", 2), (b"\x01", 2), (b"\x01", 2 ** 40),
    ])
    def test_truncated_raises(self, data, count):
        with pytest.raises(CodecError, match="truncated"):
            decode_uvarints(data, count)

    @pytest.mark.parametrize("data,count", [
        (b"\x80" * 10 + b"\x01", 1), (b"\x05" + b"\xff" * 9 + b"\x02", 2),
    ])
    def test_overlong_raises(self, data, count):
        with pytest.raises(CodecError, match="too long"):
            decode_uvarints(data, count)


class TestZigzag:
    @pytest.mark.parametrize("signed,unsigned", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4),
    ])
    def test_known_scalar_mapping(self, signed, unsigned):
        assert zigzag_encode(signed) == unsigned
        assert zigzag_decode(unsigned) == signed

    def test_array_roundtrip(self):
        arr = np.array([0, -1, 1, 2 ** 40, -(2 ** 40), 7], dtype=np.int64)
        enc = zigzag_encode(arr)
        assert enc.dtype == np.uint64
        np.testing.assert_array_equal(zigzag_decode(enc), arr)

    def test_encoded_array_is_nonnegative_ordered_by_magnitude(self):
        arr = np.array([-3, -2, -1, 0, 1, 2, 3], dtype=np.int64)
        enc = np.asarray(zigzag_encode(arr), dtype=np.uint64)
        # |x| small -> code small (the property Huffman relies on).
        assert enc.max() == 6

    @given(st.integers(-(2 ** 62), 2 ** 62))
    def test_scalar_roundtrip_property(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    @given(st.lists(st.integers(-(2 ** 62), 2 ** 62), max_size=50))
    def test_array_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(arr)), arr)
