"""The :class:`Store`: a chunked, random-access compression container.

Where :class:`~repro.archive.FieldArchive` compresses each field as
one monolithic payload (so reading an 8^3 corner of a 128^3 field
decompresses all of it), a ``Store`` splits every field into a regular
chunk grid, compresses chunks independently (in parallel, via the
pooled :func:`~repro.parallel.executor.parallel_map`), and keeps a
seekable manifest so :meth:`get_region` reads and decodes *only the
chunks that overlap the request*::

    from repro.store import Store

    with Store.create("snapshot.dpzs") as st:
        st.add("vx", field, codec="sz", eps=1e-3,
               chunk_shape=(16, 16, 16), n_jobs=4)
        st.add("rho", density, codec="auto", error_budget=1e-4)

    st = Store.open("snapshot.dpzs")       # reads header+manifest only
    corner = st.get_region("vx", (slice(0, 16), slice(0, 16), 8))

Storage is pluggable: ``create``/``open`` accept a path (the default
``dpzs`` v1 single-file backend -- fully compatible with pre-existing
files) or any :class:`~repro.store.backends.ByteStore`::

    from repro.store.backends import DirectoryStore, MemoryStore

    with Store.create(DirectoryStore("snap.d", create=True)) as st:
        st.add("vx", field, codec="zfp", rate=12.0)

The store persists exactly two kinds of keys -- ``manifest`` and
``chunks/<field>/<i>`` -- so a backend is ~50 lines of MutableMapping
(see FORMATS.md "Byte-store keyspace" and README "Writing a backend").
Codecs resolve through :mod:`repro.codecs.registry`: anything
registered with ``register_codec`` is immediately usable per chunk,
including ``codec="auto"``'s online SZ/ZFP/DPZ selection
(:mod:`repro.store.select`).

Observability: every pack and region read runs under a tracer span and
feeds the ``store.*`` metric namespace (chunks compressed/decoded,
compressed bytes read vs. bytes decoded, region-read latency
histogram), so decoded-byte amplification is measurable in production,
not just in benchmarks.
"""

from __future__ import annotations

import os
import struct
import time
import weakref
from typing import Any, Iterable, Union

import numpy as np

from repro.archive import FieldArchive
from repro.codecs.registry import (
    CodecSpec,
    codec_functions,
    codec_ids,
    get_codec,
    have_codec,
)
from repro.errors import (
    CodecError,
    ConfigError,
    FormatError,
    StoreError,
    StoreKeyError,
)
from repro.observability import counter_inc, gauge_set, observe, span
from repro.parallel.executor import ParallelConfig, parallel_map
from repro.store import chunking
from repro.store.backends import (
    MANIFEST_KEY,
    ByteStore,
    chunk_key,
    resolve_backend,
)
from repro.store.basis import (
    BasisCache,
    compress_dpz,
    representative_index,
)
from repro.store.cache import DEFAULT_CACHE_BYTES, ChunkCache
from repro.store.chunking import RegionSpec
from repro.store.format import (
    DTYPE_TAGS,
    HEADER_SIZE,
    ChunkRef,
    FieldMeta,
    decode_manifest,
    encode_manifest,
    pack_kv_value,
    unpack_kv_value,
)
from repro.store.select import compress_chunk_auto

__all__ = ["Store", "open_store_stats"]

PathLike = Union[str, "os.PathLike[str]"]
Array = "np.ndarray[Any, np.dtype[Any]]"

#: Default keyword arguments used when re-chunking an archive whose
#: per-field codec settings were not preserved (they never are: an
#: archive stores payloads, not configurations).  Matches the ``dpz
#: pack`` CLI defaults.
_FROM_ARCHIVE_KW: dict[str, dict[str, Any]] = {
    "sz": {"rel_eps": 1e-4},
    "mgard": {"rel_eps": 1e-4},
    "zfp": {"rate": 8.0},
}


#: What a decoder raises on a corrupt payload; the store reports each
#: as a FormatError naming the chunk.
_CORRUPT = (FormatError, struct.error, IndexError, ValueError, KeyError,
            OverflowError, CodecError)


# Every live Store handle, for the telemetry /healthz endpoint.  A
# WeakSet so a handle going out of scope unregisters itself -- Store
# has no close(); its lifecycle *is* garbage collection.
_OPEN_STORES: "weakref.WeakSet[Store]" = weakref.WeakSet()


def open_store_stats() -> dict[str, int]:
    """Aggregate cache occupancy across every live :class:`Store`.

    The ``/healthz`` liveness source: how many handles exist and how
    many decoded-chunk bytes they pin.  Iterating a WeakSet during GC
    is safe -- dead handles simply stop appearing.
    """
    stores = list(_OPEN_STORES)
    return {
        "open_stores": len(stores),
        "cache_bytes": sum(s._cache.nbytes for s in stores),
        "cache_entries": sum(len(s._cache) for s in stores),
    }


def _canonical(data: Any) -> tuple[Any, str]:
    """Contiguous little-endian array + its dtype tag."""
    arr = np.asarray(data)
    if arr.dtype.newbyteorder("=") == np.dtype(np.float32):
        return np.ascontiguousarray(arr, dtype="<f4"), "f4"
    return np.ascontiguousarray(arr, dtype="<f8"), "f8"


class Store:
    """A chunked multi-field store with random-access region reads.

    Use :meth:`create` / :meth:`open`; the constructor is internal.
    Instances are cheap handles around a backend plus the parsed
    manifest -- chunk payloads stay in the backend until a read asks
    for them.
    """

    def __init__(self, backend: ByteStore, fields: list[FieldMeta], *,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self._backend = backend
        self._fields: dict[str, FieldMeta] = {m.name: m for m in fields}
        self._cache = ChunkCache(cache_bytes)
        _OPEN_STORES.add(self)

    # -- lifecycle --------------------------------------------------------

    @classmethod
    def create(cls, target: Union[PathLike, ByteStore], *,
               backend: str = "auto",
               cache_bytes: int = DEFAULT_CACHE_BYTES) -> "Store":
        """Create a new, empty store.

        ``target`` is a path (resolved via ``backend``: ``"auto"`` /
        ``"file"`` / ``"dir"`` / ``"memory"``; the default is the
        ``dpzs`` v1 single file) or an already-constructed
        :class:`~repro.store.backends.ByteStore`.  ``cache_bytes``
        bounds this handle's in-memory decoded-chunk cache (0
        disables it; the on-disk format is unaffected either way).
        """
        bk = (target if isinstance(target, ByteStore)
              else resolve_backend(target, backend=backend, create=True))
        store = cls(bk, [], cache_bytes=cache_bytes)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, target: Union[PathLike, ByteStore], *,
             backend: str = "auto",
             cache_bytes: int = DEFAULT_CACHE_BYTES) -> "Store":
        """Open an existing store *lazily*: manifest only.

        No chunk payload is touched; a store holding terabytes of
        chunks opens with one manifest-sized read.  ``cache_bytes``
        bounds this handle's in-memory decoded-chunk cache (0
        disables it).
        """
        bk = (target if isinstance(target, ByteStore)
              else resolve_backend(target, backend=backend))
        try:
            blob = bk[MANIFEST_KEY]
        except StoreKeyError:
            raise FormatError(
                f"no manifest key in backend {bk.location!r}: not a "
                f"store (or never initialized)") from None
        if bk.framed:
            blob = unpack_kv_value(blob)
        return cls(bk, decode_manifest(blob), cache_bytes=cache_bytes)

    def __enter__(self) -> "Store":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: flush the backend."""
        self._backend.flush()

    @property
    def path(self) -> str:
        """Where the store lives (backend location)."""
        return self._backend.location

    @property
    def backend(self) -> ByteStore:
        """The underlying byte-store backend."""
        return self._backend

    # -- writing ----------------------------------------------------------

    def add(self, name: str, data: Any, *, codec: str = "dpz",
            chunk_shape: int | tuple[int, ...] | str | None = None,
            error_budget: float | None = None,
            n_jobs: int | None = 1,
            **codec_kwargs: Any) -> None:
        """Chunk, compress (in parallel) and append one field.

        ``codec`` is any :mod:`repro.codecs.registry` id or
        ``"auto"``, which picks per chunk between SZ / ZFP / DPZ under
        ``error_budget`` (required, absolute).  A scalar (or
        single-element) ``chunk_shape`` broadcasts to every dimension;
        ``None`` picks a per-ndim default; the string ``"auto"`` picks
        a plane-aligned shape tuned for slab reads (see
        :func:`repro.store.chunking.auto_chunk_shape`).  Existing
        payloads are never
        rewritten: new chunks are written first and the manifest key
        last, so a failure mid-append leaves the previous manifest
        intact.

        Raises :class:`~repro.errors.ConfigError` for duplicate names,
        empty arrays, unknown codecs, or a missing/invalid budget.
        """
        if not name or "\x00" in name or "/" in name:
            raise ConfigError(f"invalid field name {name!r}")
        if name in self._fields:
            raise ConfigError(
                f"field {name!r} already exists in store "
                f"{self.path!r}; store fields are immutable")
        self.check_codec(codec, error_budget)
        arr, dtype_tag = _canonical(data)
        if arr.size == 0:
            raise ConfigError(
                f"field {name!r} is empty (shape {arr.shape}); "
                f"an empty field cannot be chunked")
        if chunk_shape is None:
            requested = chunking.default_chunk_shape(arr.shape)
        elif isinstance(chunk_shape, str):
            if chunk_shape != "auto":
                raise ConfigError(
                    f"chunk_shape {chunk_shape!r} not understood; "
                    f"pass a tuple, an int, None, or 'auto'")
            requested = chunking.auto_chunk_shape(arr.shape)
        elif isinstance(chunk_shape, int):
            requested = (chunk_shape,) * arr.ndim
        else:
            requested = tuple(chunk_shape)
            if len(requested) == 1 and arr.ndim > 1:
                requested = requested * arr.ndim
        cshape = chunking.validate_chunk_shape(arr.shape, requested)
        subs = [np.ascontiguousarray(arr[sl])
                for _, sl in chunking.iter_chunks(arr.shape, cshape)]

        basis_cache: BasisCache | None = None
        if codec == "auto":
            budget = float(error_budget)  # type: ignore[arg-type]
            basis_cache = BasisCache(cshape)
            auto_cache = basis_cache

            def compress_one(sub: Any) -> tuple[str, bytes]:
                t0 = time.perf_counter()
                chosen, payload = compress_chunk_auto(sub, budget,
                                                      auto_cache)
                observe("store.chunk.compress.seconds",
                        time.perf_counter() - t0)
                counter_inc("store.chunks.compressed")
                return chosen, payload
        elif codec == "dpz":
            basis_cache = BasisCache(cshape)
            dpz_cache = basis_cache

            def compress_one(sub: Any) -> tuple[str, bytes]:
                t0 = time.perf_counter()
                payload = compress_dpz(sub, dpz_cache, **codec_kwargs)
                observe("store.chunk.compress.seconds",
                        time.perf_counter() - t0)
                counter_inc("store.chunks.compressed")
                return codec, payload
        else:
            compress, _ = codec_functions(codec)

            def compress_one(sub: Any) -> tuple[str, bytes]:
                t0 = time.perf_counter()
                payload = compress(sub, **codec_kwargs)
                observe("store.chunk.compress.seconds",
                        time.perf_counter() - t0)
                counter_inc("store.chunks.compressed")
                return codec, payload

        with span("store.add", field=name, codec=codec,
                  n_chunks=len(subs), chunk_shape=list(cshape)):
            rep = (representative_index([s.shape for s in subs], cshape)
                   if basis_cache is not None and len(subs) > 1 else None)
            pconfig = ParallelConfig(n_jobs=n_jobs, min_chunk=2)
            if rep is None:
                results = parallel_map(compress_one, subs, config=pconfig)
            else:
                # Fit the representative chunk first, seal the basis
                # cache, then fan out: every sibling verifies against
                # one fixed basis, so payload bytes are independent of
                # n_jobs and thread interleaving.
                seeded = compress_one(subs[rep])
                basis_cache.seal()
                rest = parallel_map(compress_one,
                                    subs[:rep] + subs[rep + 1:],
                                    config=pconfig)
                results = rest[:rep] + [seeded] + rest[rep:]
            meta = FieldMeta(
                name=name, codec_label=codec, dtype_tag=dtype_tag,
                shape=tuple(arr.shape), chunk_shape=cshape,
                original_nbytes=int(arr.nbytes),
                error_budget=(float(error_budget)
                              if error_budget is not None else None),
            )
            self._append(meta, results)
        # Appends invalidate any cached chunks under this field name
        # (defensive: names are unique, but a failed append retried on
        # this handle must never serve stale decodes).
        self._cache.invalidate_field(name)
        counter_inc("store.fields.packed")

    @staticmethod
    def check_codec(codec: str, error_budget: float | None = None) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless :meth:`add`
        accepts ``codec`` with ``error_budget``.

        Lets a caller refuse bad options before it creates a store.
        """
        if codec != "auto" and not have_codec(codec):
            raise ConfigError(
                f"unknown codec {codec!r}; use 'auto' or one of "
                f"{codec_ids()}")
        if codec == "auto":
            if error_budget is None or not float(error_budget) > 0.0:
                raise ConfigError(
                    "codec='auto' requires a positive error_budget")
        elif error_budget is not None:
            raise ConfigError(
                "error_budget is only meaningful with codec='auto'; "
                f"pass the bound to codec {codec!r} via its own "
                f"keyword (eps=, tolerance=, ...)")

    def _append(self, meta: FieldMeta,
                payloads: Iterable[tuple[str, bytes]]) -> None:
        """Write chunk keys first, then the manifest key, then flush.

        The manifest is the commit point on every backend: until the
        ``manifest`` key is (atomically) replaced, a reader resolves
        the previous manifest, so a failure while any chunk is in
        flight never exposes a partially-added field.
        """
        framed = self._backend.framed
        for i, (chosen, payload) in enumerate(payloads):
            key = chunk_key(meta.name, i)
            self._backend[key] = (pack_kv_value(payload) if framed
                                  else payload)
            counter_inc("store.backend.writes")
            loc = self._backend.locate(key)
            offset = loc[0] if loc is not None else HEADER_SIZE
            meta.chunks.append(ChunkRef(
                offset=offset, length=len(payload), codec=chosen))
        self._fields[meta.name] = meta
        try:
            self._write_manifest()
        except StoreError:
            # The manifest write failed: the field is not committed.
            del self._fields[meta.name]
            raise
        self._backend.flush()

    def _write_manifest(self) -> None:
        manifest = encode_manifest(list(self._fields.values()))
        self._backend[MANIFEST_KEY] = (
            pack_kv_value(manifest) if self._backend.framed else manifest)
        counter_inc("store.backend.writes")

    @classmethod
    def from_archive(cls, archive: Union[FieldArchive, PathLike],
                     target: Union[PathLike, ByteStore], *,
                     backend: str = "auto",
                     chunk_shape: int | tuple[int, ...] | str
                     | None = None,
                     n_jobs: int | None = 1) -> "Store":
        """Re-pack a monolithic :class:`FieldArchive` as a chunked store.

        Each field is decoded once and re-compressed chunkwise with
        the codec recorded in the archive.  Archives do not preserve
        per-field codec *settings*, so lossy codecs run at the ``dpz
        pack`` CLI defaults -- re-pack from the original data when
        exact bounds matter.
        """
        if not isinstance(archive, FieldArchive):
            archive = FieldArchive.load(archive)
        store = cls.create(target, backend=backend)
        for name in archive.names():
            codec = str(archive.info(name)["codec"])
            store.add(name, archive.get(name), codec=codec,
                      chunk_shape=chunk_shape, n_jobs=n_jobs,
                      **_FROM_ARCHIVE_KW.get(codec, {}))
        return store

    # -- reading ----------------------------------------------------------

    def names(self) -> list[str]:
        """Field names in insertion order."""
        return list(self._fields)

    def info(self, name: str) -> dict[str, Any]:
        """Metadata for one field without decoding any chunk."""
        meta = self._require(name)
        compressed = sum(ref.length for ref in meta.chunks)
        by_codec: dict[str, int] = {}
        for ref in meta.chunks:
            by_codec[ref.codec] = by_codec.get(ref.codec, 0) + 1
        return {
            "name": meta.name,
            "codec": meta.codec_label,
            "dtype": meta.dtype_tag,
            "shape": meta.shape,
            "chunk_shape": meta.chunk_shape,
            "n_chunks": len(meta.chunks),
            "chunk_codecs": by_codec,
            "original_nbytes": meta.original_nbytes,
            "compressed_nbytes": compressed,
            "cr": meta.original_nbytes / max(compressed, 1),
            "error_budget": meta.error_budget,
        }

    def total_cr(self) -> float:
        """Aggregate compression ratio over all fields."""
        orig = sum(m.original_nbytes for m in self._fields.values())
        comp = sum(ref.length for m in self._fields.values()
                   for ref in m.chunks)
        return orig / max(comp, 1)

    def get(self, name: str) -> Any:
        """Decode and return one whole field."""
        meta = self._require(name)
        return self.get_region(name, tuple(slice(0, n)
                                           for n in meta.shape))

    def get_region(self, name: str, region: RegionSpec) -> Any:
        """Decode and stitch only the chunks overlapping ``region``.

        ``region`` is a per-dimension sequence of integers and/or
        unit-step slices (NumPy basic-indexing semantics; missing
        trailing dims select everything; integer dims are collapsed).
        Payload bytes for non-overlapping chunks are never read from
        the backend, let alone decoded -- the ``store.bytes.read`` /
        ``store.bytes.decoded`` counters record exactly what was.
        """
        meta = self._require(name)
        bounds, collapse = chunking.normalize_region(meta.shape, region)
        out_shape = tuple(hi - lo for lo, hi in bounds)
        dtype = np.dtype(DTYPE_TAGS[meta.dtype_tag])
        grid = chunking.grid_shape(meta.shape, meta.chunk_shape)
        coords = list(chunking.overlapping_chunks(
            meta.shape, meta.chunk_shape, bounds))
        t0 = time.perf_counter()
        with span("store.region", field=name, n_chunks=len(coords)):
            chunks, bytes_read, bytes_decoded = self._load_chunks(
                meta, grid, coords)
            if len(coords) == 1:
                # Single-chunk fast path: no zeroed output buffer, no
                # paste -- copy the slice straight out of the decoded
                # (possibly cached) chunk.
                _, chunk_sel = self._intersect(bounds, meta, coords[0],
                                               chunks[0].shape)
                out = np.array(chunks[0][chunk_sel], dtype=dtype)
                counter_inc("store.paste.fastpath")
            else:
                out = np.zeros(out_shape, dtype=dtype)
                for coord, chunk in zip(coords, chunks):
                    self._paste(out, bounds, meta, coord, chunk)
        counter_inc("store.region.reads")
        counter_inc("store.bytes.read", bytes_read)
        counter_inc("store.bytes.decoded", bytes_decoded)
        observe("store.region.seconds", time.perf_counter() - t0)
        if out.nbytes:
            gauge_set("store.last.amplification",
                      bytes_decoded / out.nbytes)
        keep = tuple(0 if c else slice(None) for c in collapse)
        return out[keep]

    def _load_chunks(self, meta: FieldMeta, grid: tuple[int, ...],
                     coords: list[tuple[int, ...]]
                     ) -> tuple[list[Any], int, int]:
        """The decoded chunks at ``coords``, through the shared cache.

        Cache misses are read first, then decoded with one
        ``decompress_many`` call per codec, so the Huffman streams of
        every SZ chunk a read touches decode in one lockstep pass.
        Returns ``(chunks, bytes_read, bytes_decoded)``; a cache hit
        costs neither a backend read nor a decode, which is exactly
        what the amplification gauge should reflect.  Chunks that came
        from (or went into) the cache are read-only.
        """
        chunks: list[Any] = [None] * len(coords)
        misses: dict[str, list[tuple[int, int, bytes]]] = {}
        for slot, coord in enumerate(coords):
            index = chunking.chunk_index(grid, coord)
            cached = self._cache.get((meta.name, index))
            if cached is not None:
                chunks[slot] = cached
                continue
            ref = meta.chunks[index]
            payload = self._read_chunk(meta, index, coord)
            if len(payload) != ref.length:
                raise FormatError(
                    f"field {meta.name!r} chunk {coord}: payload "
                    f"truncated ({len(payload)} of {ref.length} bytes)")
            if not have_codec(ref.codec):
                raise FormatError(
                    f"field {meta.name!r} chunk {coord} uses unknown "
                    f"codec {ref.codec!r}")
            misses.setdefault(ref.codec, []).append((slot, index, payload))
        bytes_read = bytes_decoded = 0
        for codec, group in misses.items():
            spec = get_codec(codec)
            payloads = [payload for _, _, payload in group]
            try:
                decoded = spec.decompress_many(payloads)
                if len(decoded) != len(payloads):
                    raise FormatError(
                        f"codec {codec!r} decoded {len(decoded)} arrays "
                        f"from {len(payloads)} payloads")
            except _CORRUPT:
                # Decode one at a time, so the error names the chunk.
                decoded = [self._decode_one(meta, coords[slot], spec,
                                            payload)
                           for slot, _, payload in group]
            for (slot, index, payload), chunk in zip(group, decoded):
                coord = coords[slot]
                expected = tuple(
                    sl.stop - sl.start for sl in chunking.chunk_slices(
                        meta.shape, meta.chunk_shape, coord))
                if tuple(chunk.shape) != expected:
                    raise FormatError(
                        f"field {meta.name!r} chunk {coord} decoded to "
                        f"shape {tuple(chunk.shape)}, manifest geometry "
                        f"expects {expected}")
                chunks[slot] = self._cache.put((meta.name, index), chunk)
                counter_inc("store.chunks.decoded")
                bytes_read += len(payload)
                bytes_decoded += int(chunk.nbytes)
        return chunks, bytes_read, bytes_decoded

    def _read_chunk(self, meta: FieldMeta, index: int,
                    coord: tuple[int, ...]) -> bytes:
        key = chunk_key(meta.name, index)
        try:
            value = self._backend[key]
        except StoreKeyError as exc:
            raise FormatError(
                f"field {meta.name!r} chunk {coord}: backend has "
                f"no key {key!r} ({exc})") from exc
        counter_inc("store.backend.reads")
        return (unpack_kv_value(value) if self._backend.framed
                else value)

    @staticmethod
    def _decode_one(meta: FieldMeta, coord: tuple[int, ...],
                    spec: CodecSpec, payload: bytes) -> Any:
        try:
            return spec.decompress(payload)
        except _CORRUPT as exc:
            raise FormatError(
                f"field {meta.name!r} chunk {coord} payload is "
                f"corrupt: {exc}") from exc

    @staticmethod
    def _intersect(bounds: tuple[tuple[int, int], ...], meta: FieldMeta,
                   coord: tuple[int, ...], chunk_shape: tuple[int, ...]
                   ) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
        """Chunk/region intersection as (output, chunk) slice tuples."""
        out_sel: list[slice] = []
        chunk_sel: list[slice] = []
        for (lo, hi), ch, c, ext in zip(bounds, meta.chunk_shape, coord,
                                        chunk_shape):
            base = c * ch
            a = max(lo, base)
            b = min(hi, base + int(ext))
            out_sel.append(slice(a - lo, b - lo))
            chunk_sel.append(slice(a - base, b - base))
        return tuple(out_sel), tuple(chunk_sel)

    @classmethod
    def _paste(cls, out: Any, bounds: tuple[tuple[int, int], ...],
               meta: FieldMeta, coord: tuple[int, ...],
               chunk: Any) -> None:
        """Copy the chunk/region intersection into the output array."""
        out_sel, chunk_sel = cls._intersect(bounds, meta, coord,
                                            chunk.shape)
        if all(s.start == 0 and s.stop == ext
               for s, ext in zip(chunk_sel, chunk.shape)):
            # Fully-interior chunk: assign it whole, skipping the
            # intersection view.
            out[out_sel] = chunk
            counter_inc("store.paste.fastpath")
        else:
            out[out_sel] = chunk[chunk_sel]

    def _require(self, name: str) -> FieldMeta:
        try:
            return self._fields[name]
        except KeyError:
            raise ConfigError(
                f"no field {name!r} in store; have {self.names()}"
            ) from None
