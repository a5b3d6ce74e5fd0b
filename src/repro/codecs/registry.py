"""Dynamic codec registry: compressors resolve by id, not by table.

Modelled on zarr's ``codec_registry`` (SNIPPETS.md snippet 2): a codec
is a named pair of callables, and anything that can compress bytes --
the DPZ pipeline, the SZ/ZFP/MGARD baselines, the lossless ``raw``
fallback, or a user-defined filter -- registers under an id and is
looked up by that id everywhere (archives, the chunked store, the
CLI).  Adding a codec never touches store code::

    from repro.codecs.registry import register_codec

    register_codec("bitshuffle", bs_compress, bs_decompress,
                   kind="lossless")

Entry-point-style lookup: an id of the form ``"pkg.module:name"``
imports ``pkg.module`` (whose import side effect is expected to call
:func:`register_codec`) and then resolves ``name``.  That is the
no-setuptools equivalent of a ``zarr.codecs`` entry point: shipping a
codec in a separate module requires zero changes here.

Batch decode: :meth:`CodecSpec.decompress_many` decodes several
payloads of one codec in one call.  A codec registered with a
``decompress_many=`` callable (SZ, whose per-chunk Huffman decode
batches into one lockstep pass) uses it; any other maps
``decompress`` over the payloads, so dpz, zfp and user codecs need
nothing new.  The chunked store calls it once per codec per read.

Failure contract: duplicate registration and unknown-id lookup both
raise :class:`~repro.errors.ConfigError` naming the known ids --
never a bare ``KeyError``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from repro.devtools.sanitize import checked_rlock
from repro.errors import ConfigError

__all__ = [
    "CompressFn",
    "DecompressFn",
    "DecompressManyFn",
    "CodecSpec",
    "register_codec",
    "unregister_codec",
    "get_codec",
    "codec_functions",
    "codec_ids",
    "have_codec",
]


class CompressFn(Protocol):
    """``compress(data, **kwargs) -> bytes`` (self-describing payload)."""

    def __call__(self, data: Any, **kwargs: Any) -> bytes: ...


DecompressFn = Callable[[bytes], "np.ndarray[Any, np.dtype[Any]]"]

#: ``decompress_many(payloads) -> arrays``, one array per payload.
DecompressManyFn = Callable[[Sequence[bytes]],
                            "list[np.ndarray[Any, np.dtype[Any]]]"]

#: Registration kinds, used for documentation / filtering only.
KINDS = ("lossy", "lossless", "filter")


@dataclass(frozen=True)
class CodecSpec:
    """One registered codec: id, callables, and a coarse kind label."""

    name: str
    compress: CompressFn
    decompress: DecompressFn
    kind: str = "lossy"
    #: Where the registration came from ("builtin" or a module path).
    source: str = "user"
    #: Batch decoder; ``None`` maps :attr:`decompress` over the payloads.
    batch: DecompressManyFn | None = None

    pair: tuple[CompressFn, DecompressFn] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", (self.compress, self.decompress))

    def decompress_many(self, payloads: Sequence[bytes]
                        ) -> "list[np.ndarray[Any, np.dtype[Any]]]":
        """Decode several payloads of this codec; one array each."""
        if self.batch is not None:
            return self.batch(payloads)
        return [self.decompress(p) for p in payloads]


# Reentrant: _ensure_builtins holds it while importing modules whose
# bodies call register_codec, which takes it again on the same thread.
_LOCK = checked_rlock("codecs.registry._LOCK")
_REGISTRY: dict[str, CodecSpec] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Lazily register the built-in codec set.

    The builtins live in modules that import heavy machinery
    (``repro.archive`` pulls in the whole DPZ pipeline), so they are
    imported on first *lookup*, not when this module loads -- that
    keeps ``repro.codecs`` importable from anywhere without cycles.
    """
    global _builtins_loaded
    with _LOCK:
        if _builtins_loaded:
            return
        # Flip the flag first: the archive module body calls
        # register_codec(), which must not recurse back in here.
        _builtins_loaded = True
        importlib.import_module("repro.archive")
        importlib.import_module("repro.codecs.filters")


def register_codec(name: str, compress: CompressFn,
                   decompress: DecompressFn, *, kind: str = "lossy",
                   source: str = "user",
                   decompress_many: DecompressManyFn | None = None,
                   overwrite: bool = False) -> CodecSpec:
    """Register ``(compress, decompress)`` under ``name``.

    ``kind`` is ``"lossy"``, ``"lossless"`` or ``"filter"``.
    ``decompress_many``, if given, must equal ``decompress`` mapped
    over its payloads, only faster.  A second
    registration of the same id raises
    :class:`~repro.errors.ConfigError` unless ``overwrite=True`` (the
    escape hatch for tests and deliberate codec shadowing).
    """
    if not name or ":" in name or "/" in name or "\x00" in name:
        raise ConfigError(
            f"invalid codec id {name!r}: ids are plain names "
            f"(':' is reserved for module-qualified lookup)")
    if kind not in KINDS:
        raise ConfigError(
            f"invalid codec kind {kind!r} for {name!r}; "
            f"use one of {KINDS}")
    spec = CodecSpec(name=name, compress=compress,
                     decompress=decompress, kind=kind, source=source,
                     batch=decompress_many)
    with _LOCK:
        if name in _REGISTRY and not overwrite:
            raise ConfigError(
                f"codec {name!r} is already registered "
                f"(source {_REGISTRY[name].source!r}); known ids: "
                f"{sorted(_REGISTRY)}; pass overwrite=True to replace")
        _REGISTRY[name] = spec
    return spec


def unregister_codec(name: str) -> None:
    """Remove a registered codec (unknown ids raise ``ConfigError``)."""
    with _LOCK:
        if name not in _REGISTRY:
            raise ConfigError(
                f"cannot unregister unknown codec {name!r}; "
                f"known ids: {sorted(_REGISTRY)}")
        del _REGISTRY[name]


def get_codec(name: str) -> CodecSpec:
    """Resolve a codec id to its :class:`CodecSpec`.

    ``"pkg.module:name"`` first imports ``pkg.module`` (which is
    expected to register the codec as an import side effect), then
    resolves ``name``.  Unknown ids raise
    :class:`~repro.errors.ConfigError` listing every known id.
    """
    _ensure_builtins()
    lookup = name
    if ":" in name:
        module_path, _, lookup = name.partition(":")
        try:
            importlib.import_module(module_path)
        except ImportError as exc:
            raise ConfigError(
                f"codec id {name!r}: cannot import module "
                f"{module_path!r}: {exc}") from exc
    with _LOCK:
        try:
            return _REGISTRY[lookup]
        except KeyError:
            raise ConfigError(
                f"unknown codec {lookup!r}; known ids: "
                f"{sorted(_REGISTRY)}") from None


def codec_functions(name: str) -> tuple[CompressFn, DecompressFn]:
    """Shorthand: ``(compress, decompress)`` for a codec id."""
    return get_codec(name).pair


def codec_ids(kind: str | None = None) -> list[str]:
    """Sorted registered ids, optionally filtered by kind."""
    _ensure_builtins()
    with _LOCK:
        return sorted(n for n, s in _REGISTRY.items()
                      if kind is None or s.kind == kind)


def have_codec(name: str) -> bool:
    """True when ``name`` resolves without raising."""
    _ensure_builtins()
    with _LOCK:
        return name in _REGISTRY
