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
* **Chunked speculative decode.**  The bitstream is cut into
  fixed-width chunks that are decoded speculatively in lockstep -- one
  vectorized table gather per round across all chunks.  Huffman codes
  self-synchronize, so each chunk's speculative chain converges onto
  the true symbol chain within a few symbols; a sequential merge pass
  stitches the chains together by binary-searching each chunk's entry
  position.  Short streams fall back to the scalar cursor loop
  (:func:`_decode_scalar`), which doubles as the differential-test
  oracle.  Decode tables are built once per table instance and cached.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, cast

import numpy as np
from numpy.typing import NDArray

from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.errors import CodecError
from repro.observability import counter_inc, observe, span

__all__ = ["HuffmanTable", "huffman_encode", "huffman_decode", "MAX_CODE_LENGTH"]

#: Hard cap on codeword length; the flat decode table has 2**len entries.
MAX_CODE_LENGTH = 20

#: Below this many symbols the scalar cursor loop wins (chunk
#: bookkeeping in the speculative decoder would dominate).
_SCALAR_CUTOFF = 1024

#: Target symbols per speculative chunk: sets the gather width
#: (``~n/256`` chunks per round) against the per-round Python overhead.
_CHUNK_SYMBOLS = 256


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
            self) -> tuple[NDArray[np.int64], NDArray[np.int64], int]:
        """Flat decode tables ``(symbol_at, length_at, L)``.

        Indexing either table with the next ``L`` stream bits (as an
        integer) yields the decoded symbol and its true code length.
        Built once per table instance and cached: the tables are
        ``2**L`` entries, and multi-section decodes reuse them.
        """
        cached = self.__dict__.get("_decode_cache")
        if cached is not None:
            return cast(
                "tuple[NDArray[np.int64], NDArray[np.int64], int]", cached
            )
        L = self.max_length
        if L > 32:
            raise CodecError(
                f"code length {L} exceeds the 32-bit decode-window cap"
            )
        if L == 0:
            tables = (np.zeros(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64), 0)
        else:
            sym_tab = np.zeros(1 << L, dtype=np.int64)
            len_tab = np.zeros(1 << L, dtype=np.int64)
            for s in np.flatnonzero(self.lengths):
                ln = int(self.lengths[s])
                base = int(self.codes[s]) << (L - ln)
                width = 1 << (L - ln)
                sym_tab[base : base + width] = s
                len_tab[base : base + width] = ln
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
                   sym_tab: NDArray[np.int64], len_tab: NDArray[np.int64],
                   L: int) -> tuple[NDArray[np.int64], int]:
    """Reference decode: per-offset table gather + Python cursor loop.

    For every bit offset we precompute, via the flat table, the
    (symbol, length) a decode starting there would produce; following
    the chain of offsets is then a tight loop over plain Python lists.
    Used for short streams and as the differential-test oracle for
    :func:`_decode_vectorized`.  Returns ``(symbols, end_cursor)``.
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


def _decode_vectorized(buf: NDArray[np.uint8], n: int,
                       sym_tab: NDArray[np.int64],
                       len_tab: NDArray[np.int64],
                       L: int) -> tuple[NDArray[np.int64], int]:
    """Chunked speculative decode (see module docstring).

    The stream is cut into ``S`` fixed-width bit chunks, each decoded
    speculatively from its own start offset, all in lockstep (one
    vectorized table gather per round over every still-active chunk).
    A chunk records every bit position it visits; a chunk whose cursor
    reaches its end records the exit position (the entry into the next
    chunk), and a chunk that hits an invalid window records the poison
    position instead.  The merge pass then walks the *true* chain:
    inside each chunk it binary-searches the entry position among the
    recorded positions and, on a hit, copies the agreeing tail
    wholesale; on a miss (speculation not yet synchronized) it decodes
    single symbols until the chains merge.  Returns
    ``(symbols, end_cursor)``.
    """
    nbytes_buf = int(buf.size)
    nb = nbytes_buf * 8
    # win[i] = the word starting at byte offset i, big-endian (zero
    # padded), so the L-bit window at bit t is
    # ``(win[t>>3] << (t&7)) >> (word_bits - L)``.  A 32-bit word holds
    # any L <= 25 window (25 = 32 - 7 shift slack), which covers the
    # default MAX_CODE_LENGTH; wider codes fall back to 64-bit words.
    if L <= 25:
        wdt, word_bits, passes = np.uint32, 32, 4
    else:
        wdt, word_bits, passes = np.uint64, 64, 8
    padded = np.zeros(nbytes_buf + passes, dtype=np.uint8)
    padded[:nbytes_buf] = buf
    w64 = np.zeros(nbytes_buf + 1, dtype=wdt)
    for j in range(passes):
        w64 |= (padded[j : j + nbytes_buf + 1].astype(wdt)
                << wdt(word_bits - 8 - 8 * j))
    down = wdt(word_bits - L)
    wmask = (1 << word_bits) - 1

    S = max(2, -(-n // _CHUNK_SYMBOLS))
    W = max(L, -(-nb // S))
    S = -(-nb // W)
    starts = np.arange(S, dtype=np.int64) * W
    ends = np.minimum(starts + W, nb)

    # Lockstep speculative rounds.  store[r, s] is the r-th position
    # chunk s visited; columns are strictly increasing and contiguous
    # in r because chunks are active from round 0 until they finish.
    store = np.empty((_CHUNK_SYMBOLS + 64, S), dtype=np.int64)
    cnt = np.zeros(S, dtype=np.int64)
    exit_pos = np.full(S, -1, dtype=np.int64)
    poison = np.full(S, -1, dtype=np.int64)
    cur = starts.copy()
    active = np.arange(S, dtype=np.int64)
    r = 0
    while active.size:
        if r == store.shape[0]:
            store = np.concatenate([store, np.empty_like(store)], axis=0)
        pos = cur[active]
        w = (w64[pos >> 3] << (pos & 7).astype(wdt)) >> down
        ln = len_tab[w]
        ok = ln != 0
        if not ok.all():
            poison[active[~ok]] = pos[~ok]
            active = active[ok]
            if active.size == 0:
                break
            pos = pos[ok]
            ln = ln[ok]
        store[r, active] = pos
        cnt[active] += 1
        nxt = pos + ln
        cur[active] = nxt
        done = nxt >= ends[active]
        if done.any():
            exit_pos[active[done]] = nxt[done]
            active = active[~done]
        r += 1

    # Phase 2: overshoot.  Speculative chains converge a few symbols
    # *after* a chunk boundary, so a chunk's true entry is rarely on
    # the next chunk's recorded chain.  Each chunk therefore keeps
    # decoding past its end (again in lockstep) until it lands on a
    # position some phase-1 chain visited -- normally the next chunk's
    # chain, a handful of rounds.  The overshoot positions themselves
    # are recorded: when chunk s is on the true chain, so is its
    # overshoot, which bridges the boundary into chunk s+1.
    rows = np.arange(store.shape[0], dtype=np.int64)
    flat = store.T[rows[None, :] < cnt[:, None]]
    offsets = np.concatenate(([0], np.cumsum(cnt)))
    visited = np.zeros(nb, dtype=bool)
    visited[flat] = True
    sync_pos = np.full(S, -1, dtype=np.int64)
    store2 = np.empty((64, S), dtype=np.int64)
    cnt2 = np.zeros(S, dtype=np.int64)
    cur = exit_pos.copy()
    active = np.flatnonzero((exit_pos >= 0) & (exit_pos < nb))
    r = 0
    while active.size and r < 1024:
        pos = cur[active]
        hit = visited[pos]
        if hit.any():
            sync_pos[active[hit]] = pos[hit]
            active = active[~hit]
            if active.size == 0:
                break
            pos = pos[~hit]
        if r == store2.shape[0]:
            store2 = np.concatenate([store2, np.empty_like(store2)], axis=0)
        w = (w64[pos >> 3] << (pos & 7).astype(wdt)) >> down
        ln = len_tab[w]
        ok = ln != 0
        if not ok.all():
            active = active[ok]
            if active.size == 0:
                break
            pos = pos[ok]
            ln = ln[ok]
        store2[r, active] = pos
        cnt2[active] += 1
        nxt = pos + ln
        cur[active] = nxt
        over = nxt >= nb
        if over.any():
            active = active[~over]
        r += 1

    # Merge pass along the true chain.  From an on-chain position,
    # trust extends over every consecutive chunk whose predecessor
    # overshot straight onto it; those chunks' chain tails and
    # overshoots are concatenated with one boolean-mask gather.
    rows2 = np.arange(store2.shape[0], dtype=np.int64)
    chunk_of_sync = np.where(sync_pos >= 0, sync_pos // W, -1)
    out_pos = np.empty(n, dtype=np.int64)
    filled = 0
    t = 0
    while filled < n:
        if t >= nb:
            raise CodecError("Huffman bitstream underrun")
        s = t // W
        col = store[: cnt[s], s]
        jj = int(np.searchsorted(col, t))
        if jj >= col.size or col[jj] != t:
            # Off-chain (no phase-1 chain visited t): decode one symbol
            # the slow way and retry the merge.
            w = ((int(w64[t >> 3]) << (t & 7)) & wmask) >> (word_bits - L)
            ln = int(len_tab[w])
            if ln == 0:
                raise CodecError("invalid codeword in Huffman bitstream")
            out_pos[filled] = t
            filled += 1
            t += ln
            continue
        g = np.empty(S - s, dtype=bool)
        g[0] = True
        g[1:] = chunk_of_sync[s:-1] == np.arange(s + 1, S)
        trusted = int(np.logical_and.accumulate(g).sum())
        q = np.empty(trusted, dtype=np.int64)
        q[0] = t
        q[1:] = sync_pos[s : s + trusted - 1]
        j = np.searchsorted(flat, q) - offsets[s : s + trusted]
        m1 = (rows[None, :] >= j[:, None]) \
            & (rows[None, :] < cnt[s : s + trusted, None])
        m2 = rows2[None, :] < cnt2[s : s + trusted, None]
        big = np.concatenate([store.T[s : s + trusted],
                              store2.T[s : s + trusted]], axis=1)
        chain = big[np.concatenate([m1, m2], axis=1)]
        take = min(chain.size, n - filled)
        out_pos[filled : filled + take] = chain[:take]
        filled += take
        if filled == n:
            break
        last = s + trusted - 1
        if sync_pos[last] >= 0:
            t = int(sync_pos[last])       # on some phase-1 chain
        elif exit_pos[last] < 0:
            t = int(poison[last])         # chain died inside the chunk
        else:
            t = int(cur[last])            # overshoot cursor (or stream end)

    last = int(out_pos[n - 1])
    w = ((int(w64[last >> 3]) << (last & 7)) & wmask) >> (word_bits - L)
    cursor = last + int(len_tab[w])
    wv = (w64[out_pos >> 3] << (out_pos & 7).astype(wdt)) >> down
    return sym_tab[wv], cursor


def huffman_decode(data: bytes, table: HuffmanTable,
                   offset: int = 0) -> tuple[NDArray[np.int64], int]:
    """Decode ``huffman_encode`` output; returns ``(symbols, next_offset)``.

    ``next_offset`` is the byte offset just past the (byte-aligned)
    bitstream, so multiple sections can be concatenated.
    """
    n, pos = decode_uvarint(data, offset)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    counter_inc("huffman.decode.symbols", n)
    observe("huffman.decode.symbols_per_call", n, lo=1.0, hi=1e9)
    with span("huffman.decode", n_symbols=n) as sp:
        sym_tab, len_tab, L = table.decode_tables()
        if L == 0:
            raise CodecError("cannot decode with an empty Huffman table")
        buf = np.frombuffer(data, dtype=np.uint8, offset=pos)
        if buf.size < 1:
            raise CodecError("empty Huffman bitstream")
        # n symbols consume at most n*L bits; clip multi-section buffers
        # so decode work can't spill into later sections.
        max_bytes = (n * L + 7) // 8
        if buf.size > max_bytes:
            buf = buf[:max_bytes]
        if n < _SCALAR_CUTOFF:
            out, cursor = _decode_scalar(buf, n, sym_tab, len_tab, L)
        else:
            out, cursor = _decode_vectorized(buf, n, sym_tab, len_tab, L)
        nbytes = (cursor + 7) // 8
        sp.add(bytes_in=nbytes, bytes_out=int(out.nbytes))
    return out, pos + nbytes
