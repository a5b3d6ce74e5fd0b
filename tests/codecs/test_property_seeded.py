"""Seeded property-style roundtrip tests for the codec substrate.

Each codec gets ~200 randomized roundtrip cases drawn from fixed
``np.random.default_rng`` seeds (10 parametrized seeds x 20 cases), so
failures reproduce exactly, plus a deterministic battery of adversarial
shapes: empty input, a single symbol, all-equal runs, alternating-sign
sequences, and max-magnitude int64 values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs.huffman import HuffmanTable, huffman_decode, huffman_encode
from repro.codecs.negabinary import int_to_negabinary, negabinary_to_int
from repro.codecs.varint import (
    decode_uvarint,
    encode_uvarint,
    zigzag_decode,
    zigzag_encode,
)

SEEDS = range(10)
CASES_PER_SEED = 20

I64_MIN = np.iinfo(np.int64).min
I64_MAX = np.iinfo(np.int64).max

#: Adversarial int64 sequences shared by the sign-carrying codecs.
ADVERSARIAL_SIGNED = [
    np.zeros(0, dtype=np.int64),                       # empty
    np.array([7], dtype=np.int64),                     # single symbol
    np.full(257, -3, dtype=np.int64),                  # all-equal
    np.tile([1, -1], 100).astype(np.int64),            # alternating sign
    np.array([I64_MIN, I64_MAX, 0, -1, 1], dtype=np.int64),  # extremes
    np.array([I64_MIN], dtype=np.int64),
    np.array([I64_MAX], dtype=np.int64),
]


def _random_signed(rng: np.random.Generator) -> np.ndarray:
    """A random int64 array spanning empty to large, narrow to 64-bit."""
    n = int(rng.integers(0, 400))
    bits = int(rng.integers(1, 64))
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1))
    arr = rng.integers(lo, hi, size=n, dtype=np.int64)
    # Sprinkle extremes so wide cases stress the 64-bit boundary.
    if n and rng.random() < 0.25:
        arr[rng.integers(0, n)] = rng.choice([I64_MIN, I64_MAX])
    return arr


# -- varint / zigzag --------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_uvarint_roundtrip_seeded(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(CASES_PER_SEED):
        bits = int(rng.integers(1, 65))
        value = int(rng.integers(0, 1 << min(bits, 63), dtype=np.uint64))
        if bits == 64 and rng.random() < 0.5:
            value = (1 << 64) - 1 - value  # top-half 64-bit values
        if value >= 1 << 64:
            value = (1 << 64) - 1
        blob = encode_uvarint(value)
        got, pos = decode_uvarint(blob)
        assert got == value and pos == len(blob)


def test_uvarint_adversarial():
    for value in (0, 1, 127, 128, 255, 300, 2**32, 2**63, 2**64 - 1):
        blob = encode_uvarint(value)
        assert decode_uvarint(blob) == (value, len(blob))
    # Concatenated stream decodes positionally.
    vals = [0, 127, 128, 2**40]
    stream = b"".join(encode_uvarint(v) for v in vals)
    pos, out = 0, []
    for _ in vals:
        v, pos = decode_uvarint(stream, pos)
        out.append(v)
    assert out == vals and pos == len(stream)


@pytest.mark.parametrize("seed", SEEDS)
def test_zigzag_roundtrip_seeded(seed):
    rng = np.random.default_rng(2000 + seed)
    for _ in range(CASES_PER_SEED):
        arr = _random_signed(rng)
        enc = zigzag_encode(arr)
        assert np.asarray(enc).dtype == np.uint64
        np.testing.assert_array_equal(zigzag_decode(enc), arr)


@pytest.mark.parametrize("arr", ADVERSARIAL_SIGNED, ids=repr)
def test_zigzag_adversarial(arr):
    np.testing.assert_array_equal(zigzag_decode(zigzag_encode(arr)), arr)
    for v in arr[:8].tolist():
        assert zigzag_decode(zigzag_encode(int(v))) == int(v)


def test_zigzag_ordering():
    # Small magnitudes map to small codes: 0,-1,1,-2 -> 0,1,2,3.
    vals = np.array([0, -1, 1, -2, 2], dtype=np.int64)
    np.testing.assert_array_equal(zigzag_encode(vals),
                                  np.arange(5, dtype=np.uint64))


# -- negabinary -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_negabinary_roundtrip_seeded(seed):
    rng = np.random.default_rng(3000 + seed)
    for _ in range(CASES_PER_SEED):
        arr = _random_signed(rng)
        np.testing.assert_array_equal(
            negabinary_to_int(int_to_negabinary(arr)), arr)


@pytest.mark.parametrize("arr", ADVERSARIAL_SIGNED, ids=repr)
def test_negabinary_adversarial(arr):
    np.testing.assert_array_equal(
        negabinary_to_int(int_to_negabinary(arr)), arr)


def test_negabinary_small_values():
    # Base -2 ground truth for tiny magnitudes.
    expected = {0: 0b0, 1: 0b1, -1: 0b11, 2: 0b110, -2: 0b10, 3: 0b111}
    got = int_to_negabinary(np.array(list(expected), dtype=np.int64))
    np.testing.assert_array_equal(got, np.array(list(expected.values()),
                                                dtype=np.uint64))


# -- huffman ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_huffman_roundtrip_seeded(seed):
    rng = np.random.default_rng(6000 + seed)
    for _ in range(CASES_PER_SEED):
        alphabet = int(rng.integers(2, 300))
        n = int(rng.integers(0, 400))
        # Skewed (Zipf-ish) distributions exercise long codewords.
        if rng.random() < 0.5:
            p = 1.0 / np.arange(1, alphabet + 1)
            symbols = rng.choice(alphabet, size=n, p=p / p.sum())
        else:
            symbols = rng.integers(0, alphabet, size=n)
        symbols = symbols.astype(np.int64)
        table = HuffmanTable.from_symbols(symbols, alphabet_size=alphabet)
        blob = huffman_encode(symbols, table)
        got, pos = huffman_decode(blob, table)
        np.testing.assert_array_equal(got, symbols)
        assert pos == len(blob)


@pytest.mark.parametrize("symbols", [
    np.zeros(0, dtype=np.int64),
    np.array([4], dtype=np.int64),
    np.full(513, 2, dtype=np.int64),
    np.tile([0, 1], 200).astype(np.int64),
], ids=["empty", "single", "all-equal", "alternating"])
def test_huffman_adversarial(symbols):
    table = HuffmanTable.from_symbols(symbols, alphabet_size=8)
    blob = huffman_encode(symbols, table)
    got, pos = huffman_decode(blob, table)
    np.testing.assert_array_equal(got, symbols)
    assert pos == len(blob)


def test_huffman_sections_concatenate():
    # next_offset lets independently coded sections share one buffer.
    rng = np.random.default_rng(77)
    a = rng.integers(0, 16, size=100).astype(np.int64)
    b = rng.integers(0, 16, size=37).astype(np.int64)
    table = HuffmanTable.from_symbols(np.concatenate([a, b]),
                                      alphabet_size=16)
    stream = huffman_encode(a, table) + huffman_encode(b, table)
    got_a, pos = huffman_decode(stream, table)
    got_b, end = huffman_decode(stream, table, offset=pos)
    np.testing.assert_array_equal(got_a, a)
    np.testing.assert_array_equal(got_b, b)
    assert end == len(stream)
