"""Multi-field archives: bundle many named fields into one artifact.

Scientific outputs rarely travel alone -- a CESM history file carries
dozens of variables, an HACC snapshot several particle attributes.
:class:`FieldArchive` bundles any number of named arrays, each
compressed with its own codec and settings, into a single
self-describing byte stream / file:

>>> from repro.archive import FieldArchive
>>> ar = FieldArchive()
>>> ar.add("CLDHGH", cloud, codec="dpz", scheme="s", tve_nines=5)
>>> ar.add("vx", velocities, codec="sz", rel_eps=1e-4)
>>> ar.save("snapshot.dpza")
...
>>> ar = FieldArchive.load("snapshot.dpza")
>>> ar.names()
['CLDHGH', 'vx']
>>> recon = ar.get("CLDHGH")

Codecs: ``dpz`` (default), ``sz``, ``zfp``, ``mgard``, ``dctz``,
``tucker``, plus ``raw`` (lossless float32/64 + zlib) for fields that
must not lose a bit.  Per-field keyword arguments are forwarded to the
codec's one-call API.  The CLI exposes this as ``dpz pack`` /
``dpz unpack`` / ``dpz list``.

Codec resolution goes through :mod:`repro.codecs.registry`: this
module registers the built-in set at import, and anything registered
later (``register_codec("bitshuffle", ...)``) is usable here and in
the chunked store immediately.  List the available ids with
:func:`repro.codecs.registry.codec_ids`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.api import dpz_compress, dpz_decompress
from repro.baselines.dctz import dctz_compress, dctz_decompress
from repro.baselines.mgard import mgard_compress, mgard_decompress
from repro.baselines.sz import SZCompressor, sz_compress, sz_decompress
from repro.baselines.tucker import tucker_compress, tucker_decompress
from repro.baselines.zfp import zfp_compress, zfp_decompress
from repro.codecs.container import pack_sections, unpack_sections
from repro.codecs.registry import (
    codec_functions,
    codec_ids,
    have_codec,
    register_codec,
)
from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.errors import CodecError, ConfigError, FormatError

__all__ = ["FieldArchive"]

_MAGIC = b"DPZA"
_VERSION = 1

# Raw payload bytes are little-endian on every host; compare dtype
# *kinds* (byte-order-insensitively) and pin "<"-dtypes when packing.
_RAW_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


def _raw_compress(data: np.ndarray, **_kw) -> bytes:
    """Lossless fallback codec: dtype tag + shape + zlib payload."""
    data = np.asarray(data)
    if data.dtype.newbyteorder("=") == np.float32:
        tag = b"f4"
        data = np.ascontiguousarray(data, dtype="<f4")
    else:
        tag = b"f8"
        data = np.ascontiguousarray(data, dtype="<f8")
    head = bytearray(tag)
    head += encode_uvarint(data.ndim)
    for n in data.shape:
        head += encode_uvarint(n)
    return bytes(head) + zlib_compress(data)


def _raw_decompress(blob: bytes) -> np.ndarray:
    tag = blob[:2].decode()
    if tag not in _RAW_DTYPES:
        raise FormatError(f"unknown raw dtype tag {tag!r}")
    ndim, pos = decode_uvarint(blob, 2)
    shape = []
    for _ in range(ndim):
        n, pos = decode_uvarint(blob, pos)
        shape.append(n)
    data = np.frombuffer(zlib_decompress(blob[pos:]),
                         dtype=_RAW_DTYPES[tag])
    return data.reshape(shape).copy()


#: The built-in codec set and its kind labels, registered below.
_BUILTIN_CODECS = {
    "dpz": (dpz_compress, dpz_decompress, "lossy"),
    "sz": (sz_compress, sz_decompress, "lossy"),
    "zfp": (zfp_compress, zfp_decompress, "lossy"),
    "mgard": (mgard_compress, mgard_decompress, "lossy"),
    "dctz": (dctz_compress, dctz_decompress, "lossy"),
    "tucker": (tucker_compress, tucker_decompress, "lossy"),
    "raw": (_raw_compress, _raw_decompress, "lossless"),
}

#: Built-in batch decoders (see ``CodecSpec.decompress_many``).
_BUILTIN_BATCH = {"sz": SZCompressor.decompress_many}

for _name, (_c, _d, _kind) in _BUILTIN_CODECS.items():
    # overwrite=True keeps re-registration idempotent if this module
    # body ever runs twice (importlib.reload in tests).
    register_codec(_name, _c, _d, kind=_kind, source="builtin",
                   decompress_many=_BUILTIN_BATCH.get(_name),
                   overwrite=True)


@dataclass
class _Entry:
    name: str
    codec: str
    original_nbytes: int
    payload: bytes


class FieldArchive:
    """An ordered bundle of independently compressed named fields."""

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}

    # -- building ---------------------------------------------------------

    def add(self, name: str, data: np.ndarray, codec: str = "dpz",
            **codec_kwargs) -> None:
        """Compress ``data`` with ``codec`` and store it under ``name``.

        Keyword arguments go to the codec's one-call API (e.g.
        ``scheme=, tve_nines=`` for dpz; ``eps=``/``rel_eps=`` for
        sz/mgard; ``rate=`` for zfp).

        All input validation happens *before* any compression work:
        a duplicate field name, an empty array, a malformed name or an
        unknown codec each raise :class:`~repro.errors.ConfigError`
        up front rather than failing (or silently clobbering a field)
        after seconds of codec time.
        """
        if not name or "\x00" in name:
            raise ConfigError(f"invalid field name {name!r}")
        if name in self._entries:
            raise ConfigError(
                f"field {name!r} already exists in archive; archives "
                f"are append-only bundles of distinct names")
        if not have_codec(codec):
            raise ConfigError(
                f"unknown codec {codec!r}; use one of {codec_ids()}"
            )
        data = np.asarray(data)
        if data.size == 0:
            raise ConfigError(
                f"field {name!r} is empty (shape {data.shape}); "
                f"refusing to archive a zero-element array")
        compress, _ = codec_functions(codec)
        self._entries[name] = _Entry(
            name=name, codec=codec, original_nbytes=int(data.nbytes),
            payload=compress(data, **codec_kwargs),
        )

    # -- reading ----------------------------------------------------------

    def names(self) -> list[str]:
        """Field names in insertion order."""
        return list(self._entries)

    def get(self, name: str) -> np.ndarray:
        """Decompress and return one field.

        A payload that fails to decode (bit rot, truncation that the
        frame checks could not see) raises
        :class:`~repro.errors.FormatError`.
        """
        entry = self._require(name)
        _, decompress = codec_functions(entry.codec)
        try:
            return decompress(entry.payload)
        except FormatError:
            raise
        except (struct.error, IndexError, ValueError, KeyError,
                OverflowError, CodecError) as exc:
            raise FormatError(
                f"field {name!r} payload is corrupt: {exc}"
            ) from exc

    def info(self, name: str) -> dict:
        """Metadata for one field (codec, sizes, CR) without decoding."""
        entry = self._require(name)
        return {
            "name": entry.name,
            "codec": entry.codec,
            "original_nbytes": entry.original_nbytes,
            "compressed_nbytes": len(entry.payload),
            "cr": entry.original_nbytes / max(len(entry.payload), 1),
        }

    def total_cr(self) -> float:
        """Aggregate compression ratio over all fields."""
        orig = sum(e.original_nbytes for e in self._entries.values())
        comp = sum(len(e.payload) for e in self._entries.values())
        return orig / max(comp, 1)

    def _require(self, name: str) -> _Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(
                f"no field {name!r} in archive; have {self.names()}"
            ) from None

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the whole archive."""
        sections: list[bytes] = []
        for entry in self._entries.values():
            head = bytearray()
            name_b = entry.name.encode()
            head += encode_uvarint(len(name_b))
            head += name_b
            codec_b = entry.codec.encode()
            head += encode_uvarint(len(codec_b))
            head += codec_b
            head += encode_uvarint(entry.original_nbytes)
            sections.append(bytes(head) + entry.payload)
        return pack_sections(_MAGIC, _VERSION, sections)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FieldArchive":
        """Parse :meth:`to_bytes` output.

        Raises :class:`~repro.errors.FormatError` on any corruption --
        truncated frame, mangled entry header, or undecodable name --
        rather than leaking low-level parsing exceptions.
        """
        try:
            return cls._from_bytes(blob)
        except FormatError:
            raise
        except (IndexError, ValueError, KeyError, OverflowError,
                CodecError) as exc:
            raise FormatError(f"corrupt field archive: {exc}") from exc

    @classmethod
    def _from_bytes(cls, blob: bytes) -> "FieldArchive":
        archive = cls()
        for sec in unpack_sections(blob, _MAGIC, _VERSION):
            nlen, pos = decode_uvarint(sec, 0)
            if pos + nlen > len(sec):
                raise FormatError("truncated entry name")
            name = sec[pos : pos + nlen].decode()
            pos += nlen
            clen, pos = decode_uvarint(sec, pos)
            if pos + clen > len(sec):
                raise FormatError("truncated entry codec tag")
            codec = sec[pos : pos + clen].decode()
            pos += clen
            orig, pos = decode_uvarint(sec, pos)
            if not have_codec(codec):
                raise FormatError(f"archive uses unknown codec {codec!r}")
            archive._entries[name] = _Entry(
                name=name, codec=codec, original_nbytes=orig,
                payload=sec[pos:],
            )
        return archive

    def save(self, path) -> None:
        """Write the archive to a file."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "FieldArchive":
        """Read an archive from a file."""
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
