"""Canonical, length-limited Huffman coding.

This is the entropy-coding workhorse of the SZ-style baseline (SZ
Huffman-codes its quantization bins) and is exposed as a general codec
for any small-alphabet integer array.

Design notes
------------
* **Canonical codes.**  Only code *lengths* are serialized; both sides
  reconstruct identical codewords by assigning consecutive values to
  symbols sorted by (length, symbol).  The table header is therefore a
  few hundred bytes even for large alphabets.
* **Length limiting.**  Code lengths are capped at
  :data:`MAX_CODE_LENGTH` bits using the classic Kraft-repair
  heuristic (clamp, then lengthen the cheapest codes until the Kraft
  sum is <= 1, then shorten greedily where slack remains).  The cap
  enables a single flat ``2**L``-entry decode table.
* **Vectorized encode.**  Symbols are mapped to (code, length) arrays
  and the bitstream is emitted with one NumPy pass (per-bit expansion
  driven by ``np.repeat``), no per-symbol Python loop.
* **Chunked speculative decode.**  The bitstream is cut into columns
  that are decoded speculatively in lockstep -- one vectorized table
  gather per round across all columns.  Huffman codes self-synchronize,
  so each column's speculative chain converges onto the true symbol
  chain within a few symbols; a merge pass stitches the chains
  together.  A pass takes about as many rounds as a column holds
  symbols, plus the slowest column's resynchronization, and each round
  gathers over every column, so the width is sized from the stream
  length ``n`` (:func:`_column_symbols`: ~sqrt(n)/2 symbols, clipped
  to 32..256).  A 4,096-symbol SZ chunk stream takes 45-80 rounds
  (about 290 at a fixed 256-symbol width), more when its code
  resynchronizes slowly; a whole field keeps 256-symbol columns.  ``huffman.decode.rounds`` counts the rounds.  Short
  streams fall back to the scalar cursor loop (:func:`_decode_scalar`),
  which doubles as the differential-test oracle.
* **Batched streams.**  :func:`huffman_decode_many` decodes many
  streams -- every SZ chunk one store read touches -- in one lockstep
  pass.  Columns never straddle a stream boundary; each carries its
  stream's base in the stacked decode tables and its code length, so
  the pass costs about what one stream's does, not one pass per
  stream.  :func:`huffman_decode` is the one-item call.  Decode tables
  are built once per table instance (one ``np.repeat`` over the
  codewords in code order) and cached.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence, cast

import numpy as np
from numpy.typing import NDArray

from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.errors import CodecError
from repro.observability import counter_inc, observe, span

__all__ = ["HuffmanTable", "huffman_encode", "huffman_decode",
           "huffman_decode_many", "MAX_CODE_LENGTH"]

#: Hard cap on codeword length; the flat decode table has 2**len entries.
MAX_CODE_LENGTH = 20

#: Below this many symbols the scalar cursor loop wins (chunk
#: bookkeeping in the speculative decoder would dominate).
_SCALAR_CUTOFF = 1024

#: Bounds on the speculative column width, in symbols.
_MIN_COLUMN_SYMBOLS = 32
_MAX_COLUMN_SYMBOLS = 256

#: A lockstep pass stacks at most this many decode-table entries and
#: decodes at most this many symbols (or one stream, if it alone holds
#: more); a larger batch takes several passes.  Together they bound a
#: pass's working memory at a few tens of MB.
_MAX_STACKED_ENTRIES = 1 << 20
_MAX_PASS_SYMBOLS = 1 << 20

#: Most overshoot rounds a column takes looking for a synchronized
#: chain before the merge pass finishes its stretch symbol by symbol.
_MAX_OVERSHOOT = 1024


def _column_symbols(n: int) -> int:
    """Symbols per speculative column for an ``n``-symbol stream.

    A lockstep pass takes about as many rounds as a column holds
    symbols, and each round gathers over ``n / width`` columns, so
    ``sqrt(n)/2`` balances per-round Python cost against per-round
    numpy work: 32 for n = 4,096, 256 for n >= 2**18.
    """
    return min(max(math.isqrt(n) // 2, _MIN_COLUMN_SYMBOLS),
               _MAX_COLUMN_SYMBOLS)


def _huffman_code_lengths(counts: NDArray[np.int64]) -> NDArray[np.int64]:
    """Compute unrestricted Huffman code lengths from symbol counts.

    Uses the standard two-queue/heap construction.  Symbols with zero
    count get length 0 (absent from the code).  A degenerate alphabet
    of one used symbol gets length 1.
    """
    used = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths
    # Heap of (weight, tiebreak, node). Leaves are ints; internal nodes
    # are [left, right] lists. We accumulate depths at the end.
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
    # Iterative depth-first traversal assigning depths.
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


def _limit_lengths(lengths: NDArray[np.int64],
                   max_len: int) -> NDArray[np.int64]:
    """Repair code lengths so none exceeds ``max_len`` and Kraft holds.

    The Kraft inequality ``sum(2**-len) <= 1`` is what makes a prefix
    code realizable; clamping long codes breaks it, so we lengthen the
    currently-shortest codes (cheapest in expected bits) until it holds
    again, then shorten codes while slack remains.
    """
    lens = lengths.copy()
    used = np.flatnonzero(lens)
    if used.size == 0:
        return lens
    lens[used] = np.minimum(lens[used], max_len)
    # Work in units of 2**-max_len so everything is integral.
    unit = 1 << max_len
    kraft = int(np.sum(unit >> lens[used]))
    if kraft > unit:
        # Lengthen codes, shortest first (each increment halves its
        # Kraft contribution, the largest available single reduction).
        order = sorted(used, key=lambda s: (lens[s], s))
        i = 0
        while kraft > unit:
            s = order[i % len(order)]
            if lens[s] < max_len:
                kraft -= (unit >> lens[s]) - (unit >> (lens[s] + 1))
                lens[s] += 1
            i += 1
    # Optional improvement: shorten high-count symbols while slack remains.
    if kraft < unit:
        order = sorted(used, key=lambda s: (-lens[s], s))
        for s in order:
            while lens[s] > 1 and kraft + (unit >> lens[s]) <= unit:
                kraft += unit >> lens[s]
                lens[s] -= 1
    return lens


def _canonical_codes_ref(lengths: NDArray[np.int64]) -> NDArray[np.uint64]:
    """Reference scalar canonical-code assignment.

    The pre-vectorization implementation: a Python loop over used
    symbols in (length, symbol) order.  Kept as the differential-test
    oracle for :func:`_canonical_codes` and as the fallback for
    adversarial length arrays too wide for int64 arithmetic.
    """
    codes = np.zeros(lengths.size, dtype=np.uint64)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    order = sorted(used, key=lambda s: (lengths[s], s))
    code = 0
    prev_len = int(lengths[order[0]])
    for s in order:
        ln = int(lengths[s])
        code <<= ln - prev_len
        codes[s] = code
        code += 1
        prev_len = ln
    if code > (1 << prev_len):
        raise CodecError("canonical code construction overflowed: bad lengths")
    return codes


def _canonical_codes(lengths: NDArray[np.int64]) -> NDArray[np.uint64]:
    """Assign canonical codewords given per-symbol code lengths.

    Symbols are processed in (length, symbol) order; each receives the
    next available codeword at its length.  Returns a uint64 array of
    codewords (MSB-first significance, ``lengths[s]`` bits each).

    Vectorized: the first code of each length follows the RFC 1951
    recurrence ``first[l+1] = (first[l] + count[l]) << 1``, and every
    used symbol then gets ``first[len] + rank-within-its-length`` in
    one pass.
    """
    codes = np.zeros(lengths.size, dtype=np.uint64)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    lens_used = lengths[used].astype(np.int64, copy=False)
    max_len = int(lens_used.max())
    if max_len > 60:
        return _canonical_codes_ref(lengths)
    cnt = np.bincount(lens_used, minlength=max_len + 1)
    first = np.zeros(max_len + 1, dtype=np.int64)
    code = 0
    for ln in range(1, max_len + 1):
        first[ln] = code
        code = (code + int(cnt[ln])) << 1
    if int(first[max_len]) + int(cnt[max_len]) > (1 << max_len):
        raise CodecError("canonical code construction overflowed: bad lengths")
    order = np.argsort(lens_used, kind="stable")  # ties keep symbol order
    class_start = np.cumsum(cnt) - cnt  # sorted-order offset of each length
    ranks = np.arange(order.size, dtype=np.int64) - class_start[lens_used[order]]
    codes[used[order]] = (first[lens_used[order]] + ranks).astype(np.uint64)
    return codes


@lru_cache(maxsize=128)
def _table_from_lengths_bytes(
        raw: bytes) -> tuple[NDArray[np.int64], NDArray[np.uint64]]:
    """Rebuild ``(lengths, codes)`` from a serialized uint8 length array.

    Cached so multi-section archives sharing one table header don't
    re-derive canonical codes per section.  The returned arrays are
    marked read-only because they are shared across table instances.
    """
    lengths = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    codes = _canonical_codes(lengths)
    lengths.setflags(write=False)
    codes.setflags(write=False)
    return lengths, codes


@dataclass(frozen=True)
class HuffmanTable:
    """A canonical Huffman code over the alphabet ``0..len(lengths)-1``.

    Attributes
    ----------
    lengths:
        Per-symbol code lengths in bits (0 = symbol unused).
    codes:
        Per-symbol canonical codewords (uint64, MSB-significant).
    """

    lengths: NDArray[np.int64]
    codes: NDArray[np.uint64]

    @classmethod
    def from_counts(cls, counts: NDArray[Any],
                    max_len: int = MAX_CODE_LENGTH) -> "HuffmanTable":
        """Build an (approximately) optimal length-limited code.

        Parameters
        ----------
        counts:
            Non-negative symbol frequencies indexed by symbol value.
        max_len:
            Maximum codeword length; bounds decode-table memory at
            ``2**max_len`` entries.
        """
        if max_len > MAX_CODE_LENGTH:
            raise CodecError(f"max_len {max_len} exceeds MAX_CODE_LENGTH "
                             f"({MAX_CODE_LENGTH}), which decode enforces")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise CodecError("counts must be 1-D")
        if counts.size and counts.min() < 0:
            raise CodecError("negative symbol count")
        lengths = _huffman_code_lengths(counts)
        lengths = _limit_lengths(lengths, max_len)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @classmethod
    def from_symbols(cls, symbols: NDArray[Any],
                     alphabet_size: int | None = None,
                     max_len: int = MAX_CODE_LENGTH) -> "HuffmanTable":
        """Build a table from observed symbols (convenience)."""
        symbols = np.asarray(symbols).reshape(-1)
        if alphabet_size is None:
            alphabet_size = int(symbols.max()) + 1 if symbols.size else 1
        counts = np.bincount(symbols.astype(np.int64), minlength=alphabet_size)
        return cls.from_counts(counts, max_len=max_len)

    @property
    def alphabet_size(self) -> int:
        """Number of symbols in the alphabet (used or not)."""
        return int(self.lengths.size)

    @property
    def max_length(self) -> int:
        """Longest codeword in bits (0 for an empty code)."""
        return int(self.lengths.max()) if self.lengths.size else 0

    def expected_bits(self, counts: NDArray[Any]) -> int:
        """Total encoded payload size in bits for the given frequencies."""
        counts = np.asarray(counts, dtype=np.int64)
        return int(np.sum(counts * self.lengths))

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the table (code lengths only, zlib-framed)."""
        if self.max_length > 255:  # pragma: no cover - impossible by cap
            raise CodecError("code length exceeds one byte")
        body = zlib_compress(self.lengths.astype(np.uint8).tobytes())
        return encode_uvarint(self.alphabet_size) + encode_uvarint(len(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["HuffmanTable", int]:
        """Deserialize a table; returns ``(table, next_offset)``."""
        size, pos = decode_uvarint(data, offset)
        blen, pos = decode_uvarint(data, pos)
        raw = zlib_decompress(data[pos : pos + blen])
        pos += blen
        lengths, codes = _table_from_lengths_bytes(raw)
        if lengths.size != size:
            raise CodecError("Huffman table length array size mismatch")
        return cls(lengths=lengths, codes=codes), pos

    # -- decode table ----------------------------------------------------

    def decode_tables(
            self) -> tuple[NDArray[np.int64], NDArray[np.uint8], int]:
        """Flat decode tables ``(symbol_at, length_at, L)``.

        Indexing either table with the next ``L`` stream bits (as an
        integer) yields the decoded symbol and its true code length
        (0: no codeword starts so).  Built once per table instance and
        cached: the tables are ``2**L`` entries, and multi-section
        decodes reuse them.
        """
        cached = self.__dict__.get("_decode_cache")
        if cached is not None:
            return cast(
                "tuple[NDArray[np.int64], NDArray[np.uint8], int]", cached
            )
        L = self.max_length
        if L > MAX_CODE_LENGTH:
            # The encoder never writes longer codes, and the flat tables
            # hold 2**L entries: a forged header must not size them.
            raise CodecError(
                f"code length {L} exceeds MAX_CODE_LENGTH "
                f"({MAX_CODE_LENGTH})"
            )
        if L == 0:
            tables = (np.zeros(1, dtype=np.int64),
                      np.zeros(1, dtype=np.uint8), 0)
        else:
            # Symbol s owns the 2**(L - len) windows that start with its
            # codeword.  In codeword order those runs tile the table,
            # with unused windows (an incomplete code) as gaps, so one
            # np.repeat over (gap, symbol) pairs fills it up to the last
            # codeword; the zero tail past it is never written, which
            # keeps a sparse hostile code from touching 2**L entries.
            used = np.flatnonzero(self.lengths)
            lens = self.lengths[used]
            first = self.codes[used].astype(np.int64) << (L - lens)
            order = np.argsort(first, kind="stable")
            used, lens, first = used[order], lens[order], first[order]
            run = np.left_shift(1, L - lens)
            gap = np.diff(first, prepend=0)
            gap[1:] -= run[:-1]
            span = int(first[-1] + run[-1])
            if (gap < 0).any() or span > 1 << L:
                raise CodecError("Huffman codewords overlap")
            reps = np.empty(2 * used.size, dtype=np.int64)
            reps[0::2] = gap
            reps[1::2] = run
            vals = np.zeros(reps.size, dtype=np.int64)
            vals[1::2] = used
            sym_tab = np.zeros(1 << L, dtype=np.int64)
            len_tab = np.zeros(1 << L, dtype=np.uint8)
            sym_tab[:span] = np.repeat(vals, reps)
            vals[1::2] = lens
            len_tab[:span] = np.repeat(vals, reps)
            sym_tab.setflags(write=False)
            len_tab.setflags(write=False)
            tables = (sym_tab, len_tab, L)
        object.__setattr__(self, "_decode_cache", tables)
        return tables


def huffman_encode(symbols: NDArray[Any], table: HuffmanTable) -> bytes:
    """Encode an integer symbol array; returns ``uvarint(n) || bitstream``.

    Fully vectorized: per-symbol codeword bits are expanded with
    ``np.repeat`` and packed with ``np.packbits``.
    """
    symbols = np.asarray(symbols).reshape(-1).astype(np.int64, copy=False)
    n = symbols.size
    header = encode_uvarint(n)
    if n == 0:
        return header
    with span("huffman.encode", bytes_in=int(symbols.nbytes),
              n_symbols=n) as sp:
        if symbols.min() < 0 or symbols.max() >= table.alphabet_size:
            raise CodecError("symbol outside table alphabet")
        lens = table.lengths[symbols]
        if np.any(lens == 0):
            raise CodecError("symbol has no codeword (zero length)")
        codes = table.codes[symbols]
        total = int(lens.sum())
        # Bit position of each symbol's first bit, then per-bit index
        # within the symbol's codeword; extract that bit of the codeword.
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        owner = np.repeat(np.arange(n), lens)        # symbol owning bit i
        within = np.arange(total) - starts[owner]    # bit index inside code
        shift = (lens[owner] - 1 - within).astype(np.uint64)
        bits = ((codes[owner] >> shift) & np.uint64(1)).astype(np.uint8)
        out = header + np.packbits(bits).tobytes()
        sp.add(bytes_out=len(out))
    counter_inc("huffman.encode.symbols", n)
    counter_inc("huffman.encode.bytes_out", len(out))
    observe("huffman.encode.symbols_per_call", n, lo=1.0, hi=1e9)
    return out


def _decode_scalar(buf: NDArray[np.uint8], n: int,
                   sym_tab: NDArray[np.int64], len_tab: NDArray[np.uint8],
                   L: int) -> tuple[NDArray[np.int64], int]:
    """Reference decode: per-offset table gather + Python cursor loop.

    For every bit offset we precompute, via the flat table, the
    (symbol, length) a decode starting there would produce; following
    the chain of offsets is then a tight loop over plain Python lists.
    Used for short streams and as the differential-test oracle for
    :func:`_decode_lockstep`.  Returns ``(symbols, end_cursor)``.
    """
    bits = np.unpackbits(buf)
    nb = bits.size
    padded = np.concatenate((bits, np.zeros(L, dtype=np.uint8)))
    window = np.zeros(nb, dtype=np.uint32)
    for j in range(L):
        window |= (padded[j : j + nb].astype(np.uint32)
                   << np.uint32(L - 1 - j))
    sym_at = sym_tab[window].tolist()
    len_at = len_tab[window].tolist()
    out = [0] * n
    cursor = 0
    for k in range(n):
        if cursor >= nb:
            raise CodecError("Huffman bitstream underrun")
        ln = len_at[cursor]
        if ln == 0:
            raise CodecError("invalid codeword in Huffman bitstream")
        out[k] = sym_at[cursor]
        cursor += ln
    return np.asarray(out, dtype=np.int64), cursor


def _deepen(a: NDArray[Any]) -> NDArray[Any]:
    """``a`` with twice the steps (the new half uninitialized)."""
    return np.concatenate([a, np.empty_like(a)])


def _ragged(cols: NDArray[np.int64], lo: NDArray[np.int64],
            hi: NDArray[np.int64]) -> tuple[NDArray[np.int64], ...]:
    """Index arrays ``(steps, cols)`` of steps ``lo[i]:hi[i]`` of every
    column ``cols[i]``, concatenated in order."""
    lens = hi - lo
    steps = np.arange(int(lens.sum())) - np.repeat(
        np.cumsum(lens) - lens - lo, lens)
    return steps, np.repeat(cols, lens)


@dataclass(frozen=True)
class _Stream:
    """One stream queued for lockstep decode."""

    buf: NDArray[np.uint8]      # bitstream bytes, clipped to n * L bits
    n: int                      # symbols to decode (<= bits in buf)
    sym_tab: NDArray[np.int64]
    len_tab: NDArray[np.uint8]
    L: int


def _decode_lockstep(streams: Sequence[_Stream]) -> list[Any]:
    """Chunked speculative decode of several streams at once.

    Each stream is cut into columns of about :func:`_column_symbols`
    symbols' worth of bits, and every column of every stream is decoded
    speculatively from its own start offset, all in lockstep: one
    vectorized table gather per round over every still-active column.
    Columns never straddle a stream; each carries its stream's base in
    the stacked decode tables and its code length ``L``.  Per stream,
    this is then the single-stream algorithm:

    1. **Speculate.**  A column records every bit position it visits.
       One whose cursor reaches its end records the exit position (the
       entry into the next column); one that hits an invalid window
       records the poison position instead.
    2. **Overshoot.**  Speculative chains converge a few symbols
       *after* a column boundary, so each column keeps decoding past
       its end until it lands on a position some phase-1 chain
       visited, normally the next column's.  When a column is on the
       true chain, so is its overshoot, which bridges into the next.
    3. **Merge.**  Each stream walks its true chain: where that joins a
       phase-1 chain it copies the chain's tail, and those of every
       following column the overshoots link up, in one gather;
       elsewhere (a chain that never synchronized, or a corrupt
       stream) it decodes single symbols.

    Returns, per stream, ``(symbols, end_cursor_bits)`` or the
    :class:`CodecError` the scalar oracle would raise.
    """
    k = len(streams)
    # One byte buffer, every stream followed by 8 zero bytes: a window
    # near a stream's end reads zeros, as the scalar oracle does, never
    # the next stream's bits.
    sizes = np.array([st.buf.size for st in streams], dtype=np.int64)
    byte0 = np.zeros(k, dtype=np.int64)
    np.cumsum(sizes[:-1] + 8, out=byte0[1:])
    total = int(byte0[-1] + sizes[-1]) + 8
    pad = np.zeros(8, dtype=np.uint8)
    raw = np.concatenate([part for st in streams for part in (st.buf, pad)]
                         + [pad])
    # win[i] = the word starting at byte offset i, big-endian, so the
    # L-bit window at bit t is ``(win[t>>3] << (t&7)) >> (word_bits-L)``.
    # A 32-bit word holds any L <= 25 window (25 = 32 - 7 shift slack);
    # wider codes, or more than 2**32 bits, use 64-bit words.  Bit
    # positions and table indices share the word type (lengths are
    # uint8), so the lockstep rounds never convert.
    if max(st.L for st in streams) <= 25 and total * 8 < 1 << 32:
        wdt: Any = np.uint32
        word_bits = 32
    else:
        wdt = np.uint64
        word_bits = 64
    wmask = (1 << word_bits) - 1
    win = np.ndarray((total,), dtype=f">u{word_bits // 8}", buffer=raw,
                     strides=(1,)).astype(wdt)

    # Stacked decode tables: each distinct table once.
    table_at: dict[int, int] = {}
    sym_parts: list[NDArray[np.int64]] = []
    len_parts: list[NDArray[np.uint8]] = []
    tbase = np.empty(k, dtype=np.int64)
    entries = 0
    for i, st in enumerate(streams):
        if id(st.sym_tab) not in table_at:
            table_at[id(st.sym_tab)] = entries
            sym_parts.append(st.sym_tab)
            len_parts.append(st.len_tab)
            entries += st.sym_tab.size
        tbase[i] = table_at[id(st.sym_tab)]
    sym_all = np.concatenate(sym_parts) if k > 1 else sym_parts[0]
    len_all = np.concatenate(len_parts) if k > 1 else len_parts[0]

    # Column geometry.  Per stream: S columns of W bits, sized so a
    # column holds about _column_symbols(n) symbols.
    n = np.array([st.n for st in streams], dtype=np.int64)
    L = np.array([st.L for st in streams], dtype=np.int64)
    per_col = np.array([_column_symbols(st.n) for st in streams],
                       dtype=np.int64)
    nb = sizes * 8
    S = np.maximum(2, -(-n // per_col))
    W = np.maximum(L, -(-nb // S))
    S = -(-nb // W)
    c0 = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(S, out=c0[1:])
    n_cols = int(c0[-1])
    col_stream = np.repeat(np.arange(k), S)
    bit0 = byte0 * 8
    send = bit0 + nb
    cs = bit0[col_stream] + (np.arange(n_cols) - c0[col_stream]) \
        * W[col_stream]
    cend = send[col_stream]
    cstop = np.minimum(cs + W[col_stream], cend).astype(wdt)
    cbase = tbase[col_stream].astype(wdt)
    cdown = (word_bits - L[col_stream]).astype(wdt)

    # Phase 1: speculate.  pos_at[r, c] is the position column c
    # visited at step r; the state arrays (act, pos, base, down, end)
    # hold the still-active columns only.  step_at[p] is the step at which
    # a phase-1 chain visited bit p (-1: none).  Only column c's chain
    # visits column c's bits, so step_at both tells whether a position
    # is on a chain and where.  A column holds at most W bits' worth of
    # symbols, which bounds the steps.
    step_at = np.full(total * 8, -1, dtype=np.int16
                      if int(W.max()) < 1 << 15 else np.int32)
    pos_at = np.empty((int(per_col.max()) + 64, n_cols), dtype=wdt)
    cnt = np.zeros(n_cols, dtype=np.int64)
    exit_pos = np.full(n_cols, -1, dtype=np.int64)
    poison = np.full(n_cols, -1, dtype=np.int64)
    act = np.arange(n_cols, dtype=np.int64)
    pos, base, down, end = cs.astype(wdt), cbase, cdown, cstop
    r = 0
    while act.size:
        if r == pos_at.shape[0]:
            pos_at = _deepen(pos_at)
        ln = len_all[base + ((win[pos >> 3] << (pos & 7)) >> down)]
        if np.count_nonzero(ln) < ln.size:  # an invalid window
            ok = ln != 0
            poison[act[~ok]] = pos[~ok]
            cnt[act[~ok]] = r
            act, pos, ln, base, down, end = (
                act[ok], pos[ok], ln[ok], base[ok], down[ok], end[ok])
            if not act.size:
                break
        if act.size == n_cols:
            pos_at[r] = pos
        else:
            pos_at[r, act] = pos
        step_at[pos] = r
        pos = pos + ln
        r += 1
        done = pos >= end
        if np.count_nonzero(done):
            exit_pos[act[done]] = pos[done]
            cnt[act[done]] = r
            keep = ~done
            act, pos, base, down, end = (
                act[keep], pos[keep], base[keep], down[keep], end[keep])
    rounds = r

    # Phase 2: overshoot until a phase-1 position is hit.  A column's
    # overshoot steps follow its phase-1 ones; ``cur`` ends as where
    # its chain stopped if it hit none.
    sync = np.full(n_cols, -1, dtype=np.int64)
    cur = exit_pos.copy()
    cnt2 = np.zeros(n_cols, dtype=np.int64)
    act = np.flatnonzero((exit_pos >= 0) & (exit_pos < cend))
    pos, base, down, end, step = (
        exit_pos[act].astype(wdt), cbase[act], cdown[act],
        cend[act].astype(wdt), cnt[act])
    step_max = int(step.max()) if act.size else 0
    r = 0
    while act.size and r < _MAX_OVERSHOOT:
        hit = step_at[pos] >= 0
        if np.count_nonzero(hit):
            sync[act[hit]] = pos[hit]
            cnt2[act[hit]] = r
            keep = ~hit
            act, pos, base, down, end, step = (
                act[keep], pos[keep], base[keep], down[keep], end[keep],
                step[keep])
            if not act.size:
                break
        if step_max + r == pos_at.shape[0]:
            pos_at = _deepen(pos_at)
        ln = len_all[base + ((win[pos >> 3] << (pos & 7)) >> down)]
        if np.count_nonzero(ln) < ln.size:  # an invalid window
            ok = ln != 0
            cur[act[~ok]] = pos[~ok]
            cnt2[act[~ok]] = r
            act, pos, ln, base, down, end, step = (
                act[ok], pos[ok], ln[ok], base[ok], down[ok], end[ok],
                step[ok])
            if not act.size:
                break
        pos_at[step + r, act] = pos
        pos = pos + ln
        r += 1
        over = pos >= end
        if np.count_nonzero(over):
            cur[act[over]] = pos[over]
            cnt2[act[over]] = r
            keep = ~over
            act, pos, base, down, end, step = (
                act[keep], pos[keep], base[keep], down[keep], end[keep],
                step[keep])
    cur[act] = pos                     # overshoot cap reached
    cnt2[act] = r
    rounds += r
    counter_inc("huffman.decode.rounds", rounds)

    # Phase 3: merge.  good[c]: column c is entered on the chain its
    # predecessor's overshoot synchronized onto (a stream's first
    # column is entered at the stream start), at step entry[c].  From
    # there the true chain runs through the column's steps to upto[c].
    upto = cnt + cnt2
    sync_col = np.where(sync >= 0,
                        np.searchsorted(cs, sync, side="right") - 1, -1)
    good = np.ones(n_cols, dtype=bool)
    good[1:] = sync_col[:-1] == np.arange(1, n_cols)
    firsts = c0[:-1]
    good[firsts] = True
    entry = np.zeros(n_cols, dtype=np.int64)
    entry[1:] = step_at[sync[:-1]]
    entry[firsts] = 0
    out: list[Any] = [None] * k
    for i in range(k):
        # Walk the true chain from the stream start.
        a, b = int(c0[i]), int(c0[i + 1])
        stop, need = int(send[i]), int(n[i])
        tb, shift = int(tbase[i]), word_bits - int(L[i])
        got = np.empty(need, dtype=np.int64)
        filled = 0
        t = int(bit0[i])
        try:
            while filled < need:
                if t >= stop:
                    raise CodecError("Huffman bitstream underrun")
                j0 = int(step_at[t])
                if j0 < 0:
                    # Off every phase-1 chain: decode one symbol the
                    # slow way and retry the merge.
                    w = ((int(win[t >> 3]) << (t & 7)) & wmask) >> shift
                    ln1 = int(len_all[tb + w])
                    if ln1 == 0:
                        raise CodecError(
                            "invalid codeword in Huffman bitstream")
                    got[filled] = t
                    filled += 1
                    t += ln1
                    continue
                # On column c's chain at step j0.  Trust extends over
                # every following column its predecessor entered.
                c = int(np.searchsorted(cs[a:b], t, side="right")) - 1 + a
                g = good[c:b].copy()
                g[0] = True
                e = c + int(np.logical_and.accumulate(g).sum())
                lo = entry[c:e].copy()
                lo[0] = j0
                chain = pos_at[_ragged(np.arange(c, e), lo, upto[c:e])]
                take = min(chain.size, need - filled)
                got[filled : filled + take] = chain[:take]
                filled += take
                if filled == need:
                    break
                if sync[e - 1] >= 0:
                    t = int(sync[e - 1])      # on some phase-1 chain
                elif exit_pos[e - 1] < 0:
                    t = int(poison[e - 1])    # chain died in the column
                else:
                    t = int(cur[e - 1])       # overshoot cursor or end
        except CodecError as exc:
            out[i] = exc
            continue
        at = got.astype(wdt)
        idx = cbase[a] + ((win[at >> 3] << (at & 7)) >> cdown[a])
        out[i] = (sym_all[idx],
                  int(got[-1]) + int(len_all[idx[-1]]) - int(bit0[i]))
    return out


def huffman_decode_many(
        items: Sequence[tuple[bytes, HuffmanTable, int]]
) -> list[tuple[NDArray[np.int64], int]]:
    """Decode several ``huffman_encode`` streams in one lockstep pass.

    ``items`` are ``(data, table, offset)`` triples, each decoded as
    :func:`huffman_decode` would; returns ``(symbols, next_offset)``
    per item, in order.  Streams shorter than :data:`_SCALAR_CUTOFF`
    symbols take the scalar loop; all others share one lockstep pass
    (more than one past :data:`_MAX_STACKED_ENTRIES` table entries or
    :data:`_MAX_PASS_SYMBOLS` symbols).  A corrupt stream raises the
    :class:`CodecError` decoding it alone raises -- the first such
    stream's, in item order.
    """
    heads = [decode_uvarint(data, offset) for data, _, offset in items]
    results: list[Any] = [(np.zeros(0, dtype=np.int64), pos)
                          for _, pos in heads]
    todo = [i for i, (n, _) in enumerate(heads) if n]
    if not todo:
        return results
    for i in todo:
        counter_inc("huffman.decode.symbols", heads[i][0])
        observe("huffman.decode.symbols_per_call", heads[i][0],
                lo=1.0, hi=1e9)
    with span("huffman.decode", n_symbols=sum(heads[i][0] for i in todo),
              streams=len(todo)) as sp:
        streams: dict[int, _Stream] = {}
        for i in todo:
            data, table, _ = items[i]
            n, pos = heads[i]
            sym_tab, len_tab, L = table.decode_tables()
            if L == 0:
                raise CodecError("cannot decode with an empty Huffman table")
            buf = np.frombuffer(data, dtype=np.uint8, offset=pos)
            if buf.size < 1:
                raise CodecError("empty Huffman bitstream")
            # n symbols consume at most n*L bits; clip multi-section
            # buffers so decode work can't spill into later sections.
            buf = buf[: (n * L + 7) // 8]
            # Every symbol takes at least one bit, so a stream that
            # claims more symbols than bits fails by then anyway:
            # decode at most that many, keeping the work bounded.
            streams[i] = _Stream(buf, min(n, buf.size * 8), sym_tab,
                                 len_tab, L)
        decoded: dict[int, Any] = {}
        batch: list[int] = []
        tables: set[int] = set()
        entries = in_pass = 0
        for i, st in streams.items():
            if st.n < _SCALAR_CUTOFF:
                try:
                    decoded[i] = _decode_scalar(st.buf, st.n, st.sym_tab,
                                                st.len_tab, st.L)
                except CodecError as exc:
                    decoded[i] = exc
                continue
            new_table = id(st.sym_tab) not in tables
            if batch and (
                    in_pass + st.n > _MAX_PASS_SYMBOLS
                    or (new_table and entries + st.sym_tab.size
                        > _MAX_STACKED_ENTRIES)):
                decoded.update(zip(batch, _decode_lockstep(
                    [streams[j] for j in batch])))
                batch, tables, entries, in_pass = [], set(), 0, 0
                new_table = True
            if new_table:
                tables.add(id(st.sym_tab))
                entries += st.sym_tab.size
            in_pass += st.n
            batch.append(i)
        if batch:
            decoded.update(zip(batch, _decode_lockstep(
                [streams[j] for j in batch])))
        bytes_in = bytes_out = 0
        for i in todo:
            got = decoded[i]
            if isinstance(got, CodecError):
                raise got
            if streams[i].n < heads[i][0]:
                raise CodecError("Huffman bitstream underrun")
            symbols, cursor = got
            nbytes = (cursor + 7) // 8
            results[i] = (symbols, heads[i][1] + nbytes)
            bytes_in += nbytes
            bytes_out += int(symbols.nbytes)
        sp.add(bytes_in=bytes_in, bytes_out=bytes_out)
    return results


def huffman_decode(data: bytes, table: HuffmanTable,
                   offset: int = 0) -> tuple[NDArray[np.int64], int]:
    """Decode ``huffman_encode`` output; returns ``(symbols, next_offset)``.

    ``next_offset`` is the byte offset just past the (byte-aligned)
    bitstream, so multiple sections can be concatenated.  The one-item
    case of :func:`huffman_decode_many`.
    """
    return huffman_decode_many([(data, table, offset)])[0]
