"""Tests for canonical, length-limited Huffman coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.huffman import (
    _SCALAR_CUTOFF,
    MAX_CODE_LENGTH,
    HuffmanTable,
    _canonical_codes,
    _column_symbols,
    _decode_scalar,
    huffman_decode,
    huffman_decode_many,
    huffman_encode,
)
from repro.codecs.varint import decode_uvarint, encode_uvarint, zigzag_encode
from repro.errors import CodecError


def roundtrip(symbols: np.ndarray, alphabet: int | None = None):
    table = HuffmanTable.from_symbols(symbols, alphabet_size=alphabet)
    blob = huffman_encode(symbols, table)
    out, end = huffman_decode(blob, table)
    assert end == len(blob)
    np.testing.assert_array_equal(out, symbols)
    return table, blob


class TestTableConstruction:
    def test_two_symbol_code(self):
        table = HuffmanTable.from_counts(np.array([5, 5]))
        assert list(table.lengths) == [1, 1]
        assert sorted(table.codes.tolist()) == [0, 1]

    def test_single_symbol_gets_length_one(self):
        table = HuffmanTable.from_counts(np.array([0, 9, 0]))
        assert table.lengths[1] == 1
        assert table.lengths[0] == table.lengths[2] == 0

    def test_skewed_counts_give_short_code_to_common_symbol(self):
        counts = np.array([1000, 10, 10, 10, 10])
        table = HuffmanTable.from_counts(counts)
        assert table.lengths[0] == min(table.lengths[table.lengths > 0])

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 1000, 300)
        table = HuffmanTable.from_counts(counts)
        used = table.lengths[table.lengths > 0]
        assert np.sum(2.0 ** (-used)) <= 1.0 + 1e-12

    def test_length_limit_respected(self):
        # Fibonacci-like counts force very long unrestricted codes.
        counts = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                           233, 377, 610, 987, 1597, 2584, 4181, 6765,
                           10946, 17711, 28657, 46368, 75025, 121393,
                           196418, 317811], dtype=np.int64)
        table = HuffmanTable.from_counts(counts, max_len=10)
        assert table.max_length <= 10
        used = table.lengths[table.lengths > 0]
        assert np.sum(2.0 ** (-used)) <= 1.0 + 1e-12

    def test_prefix_free(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 100, 40)
        table = HuffmanTable.from_counts(counts)
        codes = [
            format(int(c), f"0{int(ln)}b")
            for c, ln in zip(table.codes, table.lengths) if ln > 0
        ]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_negative_counts_rejected(self):
        with pytest.raises(CodecError):
            HuffmanTable.from_counts(np.array([1, -1]))

    def test_2d_counts_rejected(self):
        with pytest.raises(CodecError):
            HuffmanTable.from_counts(np.ones((2, 2)))

    def test_expected_bits(self):
        counts = np.array([8, 4, 2, 2])
        table = HuffmanTable.from_counts(counts)
        assert table.expected_bits(counts) == int(
            np.sum(counts * table.lengths)
        )


class TestSerialization:
    def test_table_roundtrip(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 500, 100)
        table = HuffmanTable.from_counts(counts)
        restored, pos = HuffmanTable.from_bytes(table.to_bytes())
        assert pos == len(table.to_bytes())
        np.testing.assert_array_equal(restored.lengths, table.lengths)
        np.testing.assert_array_equal(restored.codes, table.codes)

    def test_table_roundtrip_with_offset(self):
        table = HuffmanTable.from_counts(np.array([3, 1, 4]))
        buf = b"xx" + table.to_bytes() + b"tail"
        restored, pos = HuffmanTable.from_bytes(buf, 2)
        np.testing.assert_array_equal(restored.lengths, table.lengths)
        assert buf[pos:] == b"tail"

    def test_hostile_header_with_30_bit_codes_is_refused(self):
        """Two 30-bit codes would size a 2**30-entry (8 GiB) table."""
        lengths = np.arange(1, 31, dtype=np.int64)
        lengths = np.append(lengths, 30)  # a complete code, Kraft sum 1
        forged = HuffmanTable(lengths=lengths,
                              codes=_canonical_codes(lengths)).to_bytes()
        table, _ = HuffmanTable.from_bytes(forged)
        assert table.max_length == 30
        with pytest.raises(CodecError, match="MAX_CODE_LENGTH"):
            huffman_decode(encode_uvarint(4) + bytes(8), table)

    def test_longest_allowed_code_still_decodes(self):
        lengths = np.append(np.arange(1, MAX_CODE_LENGTH + 1),
                            MAX_CODE_LENGTH).astype(np.int64)
        table = HuffmanTable(lengths=lengths, codes=_canonical_codes(lengths))
        table, _ = HuffmanTable.from_bytes(table.to_bytes())
        symbols = np.array([0, MAX_CODE_LENGTH, 3, MAX_CODE_LENGTH - 1])
        out, _ = huffman_decode(huffman_encode(symbols, table), table)
        np.testing.assert_array_equal(out, symbols)

    def test_builder_refuses_codes_decode_would_refuse(self):
        with pytest.raises(CodecError, match="MAX_CODE_LENGTH"):
            HuffmanTable.from_counts(np.array([1, 2, 3]),
                                     max_len=MAX_CODE_LENGTH + 1)


class TestEncodeDecode:
    def test_simple_roundtrip(self):
        roundtrip(np.array([0, 1, 2, 1, 0, 0, 0], dtype=np.int64))

    def test_empty_roundtrip(self):
        table = HuffmanTable.from_counts(np.array([1]))
        blob = huffman_encode(np.array([], dtype=np.int64), table)
        out, _ = huffman_decode(blob, table)
        assert out.size == 0

    def test_single_symbol_stream(self):
        roundtrip(np.zeros(500, dtype=np.int64), alphabet=1)

    def test_large_skewed_stream(self):
        rng = np.random.default_rng(11)
        symbols = rng.choice(64, size=20_000,
                             p=np.arange(64, 0, -1) / np.sum(np.arange(1, 65)))
        table, blob = roundtrip(symbols.astype(np.int64))
        # Entropy coding must beat the trivial 6-bit packing comfortably.
        assert len(blob) * 8 < 6 * symbols.size

    def test_out_of_alphabet_symbol_rejected(self):
        table = HuffmanTable.from_counts(np.array([1, 1]))
        with pytest.raises(CodecError):
            huffman_encode(np.array([2]), table)

    def test_symbol_without_code_rejected(self):
        table = HuffmanTable.from_counts(np.array([1, 0, 1]))
        with pytest.raises(CodecError):
            huffman_encode(np.array([1]), table)

    def test_decode_with_offset_and_concatenation(self):
        syms1 = np.array([0, 1, 0, 2], dtype=np.int64)
        syms2 = np.array([2, 2, 1], dtype=np.int64)
        table = HuffmanTable.from_symbols(np.concatenate([syms1, syms2]))
        blob = huffman_encode(syms1, table) + huffman_encode(syms2, table)
        out1, pos = huffman_decode(blob, table)
        out2, end = huffman_decode(blob, table, pos)
        np.testing.assert_array_equal(out1, syms1)
        np.testing.assert_array_equal(out2, syms2)
        assert end == len(blob)

    def test_truncated_stream_raises(self):
        symbols = np.arange(100, dtype=np.int64) % 7
        table = HuffmanTable.from_symbols(symbols)
        blob = huffman_encode(symbols, table)
        with pytest.raises(CodecError):
            huffman_decode(blob[: len(blob) // 4], table)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=500))
    def test_roundtrip_property(self, values):
        roundtrip(np.asarray(values, dtype=np.int64))

    @given(st.integers(2, 600), st.integers(0, 2 ** 32))
    def test_random_alphabet_property(self, alphabet, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, alphabet, size=200)
        roundtrip(symbols.astype(np.int64), alphabet=alphabet)

    def test_max_code_length_constant_sane(self):
        assert 10 <= MAX_CODE_LENGTH <= 24


# -- batched decode ----------------------------------------------------------


def _oracle(blob: bytes, table: HuffmanTable, offset: int = 0):
    """Scalar cursor walk over the stream: the differential oracle."""
    sym_tab, len_tab, L = table.decode_tables()
    n, pos = decode_uvarint(blob, offset)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    buf = np.frombuffer(blob, dtype=np.uint8, offset=pos)
    out, cursor = _decode_scalar(buf, n, sym_tab, len_tab, L)
    return out, pos + (cursor + 7) // 8


def _table_of_length(L: int) -> HuffmanTable:
    """A complete code whose longest codeword is exactly ``L`` bits."""
    counts = np.array([1 << (L - i) for i in range(L)] + [1],
                      dtype=np.int64)
    table = HuffmanTable.from_counts(counts)
    assert table.max_length == L
    return table


def _stream(rng, table: HuffmanTable, n: int) -> np.ndarray:
    lens = table.lengths.astype(np.float64)
    p = np.where(lens > 0, 2.0 ** -lens, 0.0)
    symbols = rng.choice(table.alphabet_size, size=n, p=p / p.sum())
    # Make sure the longest codewords occur too.
    symbols[:: max(1, n // 7)] = int(np.argmax(table.lengths))
    return symbols.astype(np.int64)


class TestDecodeMany:
    def test_mixed_tables_match_scalar_oracle(self):
        """Streams with L = 1..20, n on both sides of the scalar cutoff
        and non-zero offsets decode as the oracle decodes each alone."""
        rng = np.random.default_rng(18)
        sizes = [1, _SCALAR_CUTOFF - 1, _SCALAR_CUTOFF, _SCALAR_CUTOFF + 1,
                 4096, 9000]
        items, expect = [], []
        for L in range(1, MAX_CODE_LENGTH + 1):
            table = _table_of_length(L)
            n = sizes[L % len(sizes)]
            symbols = _stream(rng, table, n)
            prefix = bytes(rng.integers(0, 256, size=L % 5, dtype=np.uint8))
            blob = prefix + huffman_encode(symbols, table) + b"\xa5" * 3
            items.append((blob, table, len(prefix)))
            expect.append(symbols)
        got = huffman_decode_many(items)
        assert len(got) == len(items)
        for (blob, table, offset), symbols, (out, end) in zip(items, expect,
                                                              got):
            ref, ref_end = _oracle(blob, table, offset)
            np.testing.assert_array_equal(ref, symbols)
            np.testing.assert_array_equal(out, ref)
            assert end == ref_end == len(blob) - 3

    def test_shared_table_and_empty_streams(self):
        rng = np.random.default_rng(3)
        table = _table_of_length(9)
        parts = [_stream(rng, table, int(m)) for m in (5000, 0, 2000, 3)]
        items = [(huffman_encode(p, table), table, 0) for p in parts]
        for part, (out, end), (blob, _, _) in zip(
                parts, huffman_decode_many(items), items):
            np.testing.assert_array_equal(out, part)
            assert end == len(blob)
        assert huffman_decode_many([]) == []

    @pytest.mark.parametrize("cap", ["_MAX_STACKED_ENTRIES",
                                     "_MAX_PASS_SYMBOLS"])
    def test_pass_caps_split_the_batch(self, monkeypatch, cap):
        import repro.codecs.huffman as huffman

        rng = np.random.default_rng(4)
        tables = [_table_of_length(L) for L in (10, 11, 12, 12)]
        parts = [_stream(rng, t, 3000) for t in tables]
        items = [(huffman_encode(p, t), t, 0) for p, t in zip(parts, tables)]
        monkeypatch.setattr(huffman, cap, 1 << 11)
        for part, (out, _) in zip(parts, huffman_decode_many(items)):
            np.testing.assert_array_equal(out, part)

    def test_stream_end_reads_zeros_not_the_next_stream(self):
        """A stream cut inside its last codeword decodes that codeword
        from zero bits, as the oracle does, even when the next stream
        of the batch starts with one bits."""
        table = _table_of_length(12)
        rng = np.random.default_rng(6)
        ones = int(np.argmax(table.codes))  # the all-ones codeword
        tail = huffman_encode(np.full(2000, ones, dtype=np.int64), table)
        for _ in range(50):
            symbols = _stream(rng, table, 3000)
            blob = huffman_encode(symbols, table)[:-1]
            try:
                ref = _oracle(blob, table)
            except CodecError:
                continue  # the cut dropped a whole codeword
            if np.array_equal(ref[0], symbols):
                continue  # zero bits happened to rebuild the codeword
            (out, end), _ = huffman_decode_many([(blob, table, 0),
                                                 (tail, table, 0)])
            np.testing.assert_array_equal(out, ref[0])
            assert end == ref[1]
            return
        pytest.fail("no cut stream decoded")

    def test_corrupt_stream_raises_its_own_error(self):
        rng = np.random.default_rng(5)
        table = _table_of_length(12)
        good = [_stream(rng, table, 3000) for _ in range(3)]
        blobs = [huffman_encode(p, table) for p in good]
        blobs[1] = blobs[1][: len(blobs[1]) // 3]  # truncated: underrun
        with pytest.raises(CodecError, match="underrun"):
            huffman_decode_many([(b, table, 0) for b in blobs])

    def test_hostile_bytes_give_codec_error_or_oracle_agreement(self):
        """Random bytes under complete and incomplete codes: each decode
        either raises CodecError or agrees with the oracle."""
        rng = np.random.default_rng(2026)
        errors, decoded = 0, []
        for case in range(400):
            if case % 2:
                table = HuffmanTable.from_counts(
                    rng.integers(1, 1000, size=int(rng.integers(2, 300))))
            else:  # incomplete: some windows decode to no symbol
                lengths = np.zeros(64, dtype=np.int64)
                used = rng.choice(64, size=int(rng.integers(1, 12)),
                                  replace=False)
                lengths[used] = rng.integers(2, 9, size=used.size)
                while np.sum(2.0 ** -lengths[lengths > 0]) > 1.0:
                    lengths[used[np.argmin(lengths[used])]] += 1
                table = HuffmanTable(lengths=lengths,
                                     codes=_canonical_codes(lengths))
            n = int(rng.integers(1, 4 * _SCALAR_CUTOFF))
            body = bytes(rng.integers(0, 256, size=int(rng.integers(1, 3000)),
                                      dtype=np.uint8))
            blob = encode_uvarint(n) + body
            try:
                ref = _oracle(blob, table)
            except CodecError as exc:
                with pytest.raises(CodecError) as info:
                    huffman_decode(blob, table)
                assert str(info.value) == str(exc)
                errors += 1
                continue
            out, end = huffman_decode(blob, table)
            np.testing.assert_array_equal(out, ref[0])
            assert end == ref[1]
            decoded.append(((blob, table, 0), ref))
        assert errors and decoded
        # The decodable ones again, all in one pass.
        got = huffman_decode_many([item for item, _ in decoded])
        for (out, end), (_, ref) in zip(got, decoded):
            np.testing.assert_array_equal(out, ref[0])
            assert end == ref[1]

    def test_absurd_symbol_count_fails_fast(self):
        table = _table_of_length(8)
        blob = encode_uvarint(1 << 40) + b"\x00" * 64
        with pytest.raises(CodecError, match="underrun"):
            huffman_decode(blob, table)


class TestLockstepRounds:
    """Lockstep rounds (``huffman.decode.rounds``) are the decoder's
    per-call cost in numpy calls: a machine-independent gate."""

    @staticmethod
    def _residual_stream(rng, n: int = 4096):
        # SZ-style quantization residuals: Laplacian, zigzag-mapped.
        res = np.round(rng.laplace(0.0, 5.0, n)).astype(np.int64)
        symbols = zigzag_encode(res).astype(np.int64)
        table = HuffmanTable.from_symbols(symbols)
        return huffman_encode(symbols, table), table

    @staticmethod
    def _rounds(fn) -> int:
        from repro.observability import (
            Tracer,
            metrics_reset,
            metrics_snapshot,
            use_tracer,
        )

        metrics_reset()
        with use_tracer(Tracer()):
            fn()
        return int(metrics_snapshot()["counters"]["huffman.decode.rounds"])

    def test_width_follows_stream_length(self):
        assert _column_symbols(4096) == 32
        assert _column_symbols(1 << 18) == 256
        assert _column_symbols(1 << 22) == 256
        assert _column_symbols(_SCALAR_CUTOFF) == 32

    def test_one_4096_symbol_stream(self):
        blob, table = self._residual_stream(np.random.default_rng(0))
        # A fixed 256-symbol width took about 290 rounds here.
        assert self._rounds(lambda: huffman_decode(blob, table)) <= 64

    def test_batch_costs_about_one_stream(self):
        rng = np.random.default_rng(1)
        items = [(*self._residual_stream(rng), 0) for _ in range(64)]
        single = max(self._rounds(lambda it=it: huffman_decode(*it))
                     for it in items)
        batch = self._rounds(lambda: huffman_decode_many(items))
        # The batch's longest speculation and slowest overshoot may come
        # from different streams: a few rounds over the worst stream.
        assert batch <= single + 8
