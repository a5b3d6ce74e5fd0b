"""Differential tests: the two-queue code lengths and the word-packed
writer against the heap builder and the per-bit writer in
``huffman_oracle``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import huffman
from repro.codecs.huffman import (
    MAX_CODE_LENGTH,
    HuffmanTable,
    _huffman_code_lengths,
    huffman_decode,
    huffman_encode,
)

from tests.codecs import huffman_oracle as oracle

SEEDS = range(8)


def _check_encode(symbols, table):
    blob = huffman_encode(symbols, table)
    assert blob == oracle.encode(symbols, table)
    if symbols.size:
        out, end = huffman_decode(blob, table)
        assert end == len(blob)
        np.testing.assert_array_equal(out, symbols)


@pytest.mark.parametrize("seed", SEEDS)
def test_code_lengths_match_heap_on_tie_heavy_counts(seed):
    """Few distinct weights, so nearly every pop breaks a tie."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(500):
        size = int(rng.integers(1, 200))
        counts = rng.integers(0, int(rng.choice([2, 3, 5])), size=size)
        counts *= int(rng.integers(1, 4))
        np.testing.assert_array_equal(_huffman_code_lengths(counts),
                                      oracle.code_lengths(counts))


@pytest.mark.parametrize("seed", SEEDS)
def test_code_lengths_match_heap_on_skewed_counts(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(100):
        counts = rng.geometric(rng.uniform(0.01, 0.9),
                               size=int(rng.integers(2, 2000)))
        counts[rng.random(counts.size) < 0.2] = 0
        np.testing.assert_array_equal(_huffman_code_lengths(counts),
                                      oracle.code_lengths(counts))


@pytest.mark.parametrize("counts", [[], [0, 0], [7], [0, 0, 5, 0], [1, 1],
                                    [3, 0, 3]])
def test_code_lengths_degenerate(counts):
    counts = np.asarray(counts, dtype=np.int64)
    np.testing.assert_array_equal(_huffman_code_lengths(counts),
                                  oracle.code_lengths(counts))


@pytest.mark.parametrize("n", [0, 1])
def test_encode_tiny_streams(n):
    table = HuffmanTable.from_counts(np.array([3, 1, 1]))
    _check_encode(np.zeros(n, dtype=np.int64), table)
    _check_encode(np.full(n, 2, dtype=np.int64), table)


def test_encode_one_used_symbol():
    table = HuffmanTable.from_counts(np.array([0, 0, 9, 0]))
    for n in (1, 7, 64, 65, 1000):
        _check_encode(np.full(n, 2, dtype=np.int64), table)


def test_encode_length_20_codes():
    """Fibonacci counts give a maximally deep tree, capped at 20 bits."""
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    table = HuffmanTable.from_counts(np.array(fib))
    assert table.max_length == MAX_CODE_LENGTH
    rng = np.random.default_rng(7)
    symbols = rng.integers(0, 30, size=5000)
    _check_encode(symbols, table)
    longest = np.flatnonzero(table.lengths == MAX_CODE_LENGTH)
    _check_encode(np.repeat(longest, 40), table)


@pytest.mark.parametrize("seed", SEEDS)
def test_encode_codes_straddling_words(seed):
    """Codes of many lengths from every start offset within a word."""
    rng = np.random.default_rng(300 + seed)
    for _ in range(40):
        size = int(rng.integers(2, 300))
        counts = (rng.pareto(0.7, size=size) * 5).astype(np.int64) + 1
        table = HuffmanTable.from_counts(counts)
        # A prefix of 0..63 short codes shifts the rest across offsets.
        for lead in (0, 1, 31, 63):
            body = rng.choice(size, size=int(rng.integers(1, 400)),
                              p=counts / counts.sum())
            symbols = np.concatenate(
                [np.full(lead, np.argmin(table.lengths)), body])
            _check_encode(symbols, table)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
def test_encode_symbol_dtypes(dtype):
    rng = np.random.default_rng(11)
    symbols = rng.integers(0, 200, size=3000).astype(dtype)
    table = HuffmanTable.from_symbols(symbols, alphabet_size=200)
    assert huffman_encode(symbols, table) == oracle.encode(symbols, table)


def test_encode_across_slabs(monkeypatch):
    """Slab seams fall mid-word; the words either side must merge."""
    monkeypatch.setattr(huffman, "_ENCODE_SLAB", 97)
    rng = np.random.default_rng(12)
    for _ in range(20):
        size = int(rng.integers(2, 500))
        counts = (rng.pareto(0.6, size=size) * 10).astype(np.int64) + 1
        table = HuffmanTable.from_counts(counts)
        symbols = rng.choice(size, size=int(rng.integers(1, 2000)),
                             p=counts / counts.sum())
        _check_encode(symbols, table)
