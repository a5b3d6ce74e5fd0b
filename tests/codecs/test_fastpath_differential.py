"""Differential tests pinning the PR-2 fast paths to reference behavior.

Every rewritten hot path is checked bit-/byte-identical against its
pre-rewrite reference over the same seeded shape families used by
``test_property_seeded.py``:

* ``huffman_decode`` (chunked speculative) vs. the scalar cursor loop
  (kept in the module as ``_decode_scalar``), including cursor/
  ``next_offset`` and error-message parity on corrupt streams;
* the vectorized ``_canonical_codes`` vs. the original incremental
  loop (``_canonical_codes_ref``);
* the decode-table / ``from_bytes`` caches (satellite: no per-call
  table rebuilds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs.huffman import (
    HuffmanTable,
    _canonical_codes,
    _canonical_codes_ref,
    _decode_scalar,
    _SCALAR_CUTOFF,
    huffman_decode,
    huffman_encode,
)
from repro.codecs.varint import decode_uvarint
from repro.errors import CodecError

SEEDS = range(10)


def _decode_reference(blob: bytes, table: HuffmanTable, offset: int = 0):
    """The pre-rewrite decoder: scalar cursor walk over the bitstream."""
    sym_tab, len_tab, L = table.decode_tables()
    n, pos = decode_uvarint(blob, offset)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    if L == 0:
        raise CodecError("cannot decode with an empty Huffman table")
    buf = np.frombuffer(blob, dtype=np.uint8, offset=pos)
    if buf.size < 1:
        raise CodecError("empty Huffman bitstream")
    out, cursor = _decode_scalar(buf, n, sym_tab, len_tab, L)
    return out, pos + (cursor + 7) // 8


# -- huffman decode ---------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_huffman_decode_matches_scalar_seeded(seed):
    """Vectorized decode == scalar decode, bit for bit, cursor included."""
    rng = np.random.default_rng(8000 + seed)
    for _ in range(6):
        alphabet = int(rng.integers(2, 300))
        # Straddle _SCALAR_CUTOFF so both dispatcher branches and the
        # chunked phases (S >= 2) are exercised.
        n = int(rng.integers(0, 4 * _SCALAR_CUTOFF))
        if rng.random() < 0.5:
            p = 1.0 / np.arange(1, alphabet + 1)
            symbols = rng.choice(alphabet, size=n, p=p / p.sum())
        else:
            symbols = rng.integers(0, alphabet, size=n)
        symbols = symbols.astype(np.int64)
        table = HuffmanTable.from_symbols(symbols, alphabet_size=alphabet)
        blob = huffman_encode(symbols, table)
        got, pos = huffman_decode(blob, table)
        ref, ref_pos = _decode_reference(blob, table)
        np.testing.assert_array_equal(got, ref)
        assert pos == ref_pos == len(blob)
        np.testing.assert_array_equal(got, symbols)


def test_huffman_decode_matches_scalar_sections():
    """Concatenated sections: identical next_offset chaining."""
    rng = np.random.default_rng(99)
    table_syms = rng.integers(0, 40, size=5000).astype(np.int64)
    table = HuffmanTable.from_symbols(table_syms, alphabet_size=40)
    parts = [rng.integers(0, 40, size=int(m)).astype(np.int64)
             for m in (3000, 17, 0, 2500)]
    stream = b"".join(huffman_encode(p, table) for p in parts)
    pos = ref_pos = 0
    for part in parts:
        got, pos_new = huffman_decode(stream, table, offset=pos)
        ref, ref_pos_new = _decode_reference(stream, table, offset=ref_pos)
        np.testing.assert_array_equal(got, part)
        np.testing.assert_array_equal(ref, part)
        assert pos_new == ref_pos_new
        pos, ref_pos = pos_new, ref_pos_new
    assert pos == len(stream)


@pytest.mark.parametrize("n", [0, 1, _SCALAR_CUTOFF - 1, _SCALAR_CUTOFF,
                               _SCALAR_CUTOFF + 1, 3 * _SCALAR_CUTOFF + 7])
def test_huffman_decode_cutoff_boundary(n):
    rng = np.random.default_rng(n)
    symbols = rng.integers(0, 11, size=n).astype(np.int64)
    table = HuffmanTable.from_symbols(symbols, alphabet_size=11)
    blob = huffman_encode(symbols, table)
    got, pos = huffman_decode(blob, table)
    np.testing.assert_array_equal(got, symbols)
    assert pos == len(blob)


def test_huffman_decode_single_symbol_alphabet_large_n():
    # L == 1 with a degenerate one-symbol code: every bit is a symbol.
    symbols = np.zeros(5000, dtype=np.int64)
    table = HuffmanTable.from_symbols(symbols, alphabet_size=4)
    blob = huffman_encode(symbols, table)
    got, pos = huffman_decode(blob, table)
    np.testing.assert_array_equal(got, symbols)
    assert pos == len(blob)


@pytest.mark.parametrize("n", [10, 2 * _SCALAR_CUTOFF])
def test_huffman_decode_underrun_error_parity(n):
    """A truncated stream raises the same error from both decoders."""
    rng = np.random.default_rng(5)
    symbols = rng.integers(0, 64, size=n).astype(np.int64)
    table = HuffmanTable.from_symbols(symbols, alphabet_size=64)
    blob = huffman_encode(symbols, table)
    truncated = blob[: max(2, len(blob) // 3)]
    with pytest.raises(CodecError, match="underrun"):
        huffman_decode(truncated, table)
    with pytest.raises(CodecError, match="underrun"):
        _decode_reference(truncated, table)


@pytest.mark.parametrize("n", [10, 2 * _SCALAR_CUTOFF])
def test_huffman_decode_invalid_codeword_error_parity(n):
    """An all-ones stream hits an unused slot in a sparse code."""
    # Two used symbols of a 256-symbol alphabet leave invalid windows.
    symbols = np.tile([0, 1], n // 2 + 1)[:n].astype(np.int64)
    table = HuffmanTable.from_symbols(
        np.concatenate([symbols, np.arange(256)]), alphabet_size=256)
    blob = huffman_encode(symbols, table)
    n_enc, pos = decode_uvarint(blob)
    corrupt = blob[:pos] + b"\xff" * (len(blob) - pos) + b"\xff" * 8
    try:
        got, _ = huffman_decode(corrupt, table)
        vec_err = None
    except CodecError as e:
        vec_err = str(e)
    try:
        ref, _ = _decode_reference(corrupt, table)
        ref_err = None
    except CodecError as e:
        ref_err = str(e)
    assert vec_err == ref_err
    if vec_err is None:
        np.testing.assert_array_equal(got, ref)


def test_huffman_decode_empty_table_and_stream_errors():
    table = HuffmanTable(lengths=np.zeros(4, dtype=np.int64),
                         codes=np.zeros(4, dtype=np.uint64))
    with pytest.raises(CodecError, match="empty Huffman table"):
        huffman_decode(b"\x05", table)
    real = HuffmanTable.from_symbols(np.array([0, 1], dtype=np.int64))
    with pytest.raises(CodecError, match="empty Huffman bitstream"):
        huffman_decode(b"\x05", real)  # count=5, zero payload bytes


# -- satellite: code length guard -------------------------------------------


def test_decode_tables_rejects_window_overflow():
    """L > 32 would overflow the uint32 decode window; must be refused
    (by the tighter MAX_CODE_LENGTH cap, which also bounds the tables)."""
    lengths = np.zeros(4, dtype=np.int64)
    lengths[0] = 33
    table = HuffmanTable(lengths=lengths, codes=np.zeros(4, dtype=np.uint64))
    with pytest.raises(CodecError, match="exceeds MAX_CODE_LENGTH"):
        table.decode_tables()


def test_decode_tables_accepts_l_32_boundary():
    lengths = np.array([1, 2, 3, 3], dtype=np.int64)
    table = HuffmanTable(lengths=lengths, codes=_canonical_codes(lengths))
    sym_tab, len_tab, L = table.decode_tables()
    assert L == 3 and sym_tab.size == 8


# -- satellite: caches ------------------------------------------------------


def test_decode_tables_cached_per_instance():
    table = HuffmanTable.from_symbols(np.arange(50, dtype=np.int64))
    first = table.decode_tables()
    second = table.decode_tables()
    assert first[0] is second[0] and first[1] is second[1]
    assert not first[0].flags.writeable


def test_from_bytes_shares_cached_reconstruction():
    table = HuffmanTable.from_symbols(
        np.random.default_rng(3).integers(0, 100, size=1000).astype(np.int64))
    blob = table.to_bytes()
    t1, _ = HuffmanTable.from_bytes(blob)
    t2, _ = HuffmanTable.from_bytes(blob)
    # Same lru-cached arrays, not merely equal ones.
    assert t1.lengths is t2.lengths and t1.codes is t2.codes
    assert not t1.lengths.flags.writeable
    np.testing.assert_array_equal(t1.lengths, table.lengths)
    np.testing.assert_array_equal(t1.codes, table.codes)


# -- canonical code construction --------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_canonical_codes_match_reference(seed):
    rng = np.random.default_rng(7000 + seed)
    for _ in range(20):
        alphabet = int(rng.integers(1, 400))
        symbols = rng.integers(0, alphabet, size=int(rng.integers(0, 500)))
        table = HuffmanTable.from_symbols(symbols.astype(np.int64),
                                          alphabet_size=alphabet)
        np.testing.assert_array_equal(_canonical_codes(table.lengths),
                                      _canonical_codes_ref(table.lengths))


def test_canonical_codes_overflow_error_parity():
    bad = np.array([1, 1, 1], dtype=np.int64)  # 3 codes of length 1
    with pytest.raises(CodecError) as ref_err:
        _canonical_codes_ref(bad)
    with pytest.raises(CodecError) as vec_err:
        _canonical_codes(bad)
    assert str(vec_err.value) == str(ref_err.value)

