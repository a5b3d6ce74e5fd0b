"""The heap-built Huffman code lengths and the per-bit writer, kept as
differential oracles.

``code_lengths`` pops ``(weight, tiebreak, node)`` entries off a binary
heap and walks the finished tree for depths; ``encode`` expands every
codeword into one array entry per output bit and packs them with
``np.packbits``.  Both are slow but direct readings of the textbook
algorithms.  ``repro.codecs.huffman`` builds lengths with a two-queue
merge and writes whole 64-bit words; the tests check that both give
the same lengths and the same bytes.
"""

from __future__ import annotations

import heapq
from typing import Any, cast

import numpy as np

from repro.codecs.huffman import HuffmanTable
from repro.codecs.varint import encode_uvarint
from repro.errors import CodecError


def code_lengths(counts: np.ndarray) -> np.ndarray:
    """Unrestricted Huffman code lengths from symbol counts.

    Zero-count symbols get length 0; a single used symbol gets 1.
    Leaves break weight ties by symbol, internal nodes by creation
    order, and a leaf beats an internal node of equal weight.
    """
    counts = np.asarray(counts, dtype=np.int64)
    used = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths
    heap: list[tuple[int, int, object]] = [
        (int(counts[s]), int(s), int(s)) for s in used
    ]
    heapq.heapify(heap)
    tiebreak = int(counts.size)
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, tiebreak, [n1, n2]))
        tiebreak += 1
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = max(depth, 1)
        else:
            children = cast("list[object]", node)
            stack.append((children[0], depth + 1))
            stack.append((children[1], depth + 1))
    return lengths


def encode(symbols: Any, table: HuffmanTable) -> bytes:
    """``uvarint(n) || bitstream``, one array entry per output bit."""
    symbols = np.asarray(symbols).reshape(-1).astype(np.int64, copy=False)
    n = symbols.size
    header = encode_uvarint(n)
    if n == 0:
        return header
    if symbols.min() < 0 or symbols.max() >= table.alphabet_size:
        raise CodecError("symbol outside table alphabet")
    lens = table.lengths[symbols]
    if np.any(lens == 0):
        raise CodecError("symbol has no codeword (zero length)")
    codes = table.codes[symbols]
    total = int(lens.sum())
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    owner = np.repeat(np.arange(n), lens)        # symbol owning bit i
    within = np.arange(total) - starts[owner]    # bit index inside code
    shift = (lens[owner] - 1 - within).astype(np.uint64)
    bits = ((codes[owner] >> shift) & np.uint64(1)).astype(np.uint8)
    return header + np.packbits(bits).tobytes()
