"""Wire protocol for ``dpz serve``: URL grammar, region frame, errors.

Everything the server and the stdlib client must agree on lives here,
with no dependency on asyncio or sockets, so the whole protocol is
testable as pure functions (and FORMATS.md's "Serve wire protocol"
section is the normative prose for these bytes).

URL grammar
-----------
::

    GET /healthz                        liveness JSON
    GET /metrics                        Prometheus text exposition
    GET /metrics.json                   metrics snapshot JSON
    GET /runs                           run registry JSON array
    GET /v1/stores                      {"stores": ["alias", ...]}
    GET /v1/stores/{alias}/manifest     store + per-field metadata JSON
    GET /v1/stores/{alias}/fields/{field}/region?slices=0:16,8:24,3

``alias`` and ``field`` are percent-encoded path segments.  ``slices``
uses the CLI's region grammar -- comma-separated per-dimension
selectors, each either ``start:stop`` (unit-step, either bound
optional) or a bare integer index (the dimension collapses, NumPy
basic-indexing semantics).

Region response frame
---------------------
A successful region read returns ``application/x-dpz-region``::

    bytes 0..3    magic  b"DPZR"
    bytes 4..7    u32le  header_length H
    bytes 8..8+H  JSON header (UTF-8):
                    {"store": ..., "field": ..., "shape": [...],
                     "dtype": "<f4"|"<f8", "order": "C", "nbytes": N}
    then exactly N bytes of raw little-endian C-order array data.

Error responses are ``application/json``:
``{"error": "...", "status": <int>}`` plus optional context keys
(``routes`` on 404s, ``retry_after`` on 503s).
"""

from __future__ import annotations

import json
import struct
import urllib.parse
from dataclasses import dataclass, field as dc_field
from typing import Any, Sequence, Union

import numpy as np

from repro.errors import ConfigError, FormatError, ServeError

__all__ = [
    "FRAME_MAGIC",
    "REGION_CONTENT_TYPE",
    "ROUTES",
    "RequestFailed",
    "Route",
    "decode_region_frame",
    "encode_region_frame",
    "error_body",
    "format_slices",
    "parse_slices",
    "parse_target",
]

FRAME_MAGIC = b"DPZR"
REGION_CONTENT_TYPE = "application/x-dpz-region"

#: Routes advertised in 404 bodies, in documentation order.
ROUTES = (
    "/healthz",
    "/metrics",
    "/metrics.json",
    "/runs",
    "/v1/stores",
    "/v1/stores/{alias}/manifest",
    "/v1/stores/{alias}/fields/{field}/region?slices=...",
)

_FRAME_HEAD = struct.Struct("<4sI")

#: Largest JSON header the decoder will read (a shape list for any
#: sane ndim is well under this; the cap keeps a corrupt length field
#: from driving a giant allocation).
_MAX_HEADER = 1 << 20

RegionSel = Union[int, slice]


class RequestFailed(ServeError):
    """A request that maps to a specific HTTP error status.

    The server's task code raises this (or lets taxonomy errors be
    wrapped into it) and the dispatch layer renders it as the error
    JSON; the client re-raises it so callers see the server's message.
    """

    def __init__(self, status: int, message: str, *,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = retry_after


@dataclass
class Route:
    """One parsed request target.

    ``kind`` is one of ``healthz`` / ``metrics`` / ``metrics_json`` /
    ``runs`` / ``stores`` / ``manifest`` / ``region``; ``alias`` and
    ``field`` are set for the store routes, ``query`` holds decoded
    query parameters (last occurrence wins).
    """

    kind: str
    alias: str = ""
    field: str = ""
    query: dict[str, str] = dc_field(default_factory=dict)


def parse_target(target: str) -> Route:
    """Parse a request target (path + query) into a :class:`Route`.

    Raises :class:`RequestFailed` (404) for anything outside the
    grammar, carrying the route list for the error body.
    """
    split = urllib.parse.urlsplit(target)
    path = split.path.rstrip("/") or "/"
    query = {k: v for k, v in
             urllib.parse.parse_qsl(split.query, keep_blank_values=True)}
    if path == "/healthz":
        return Route("healthz", query=query)
    if path in ("/metrics", "/"):
        return Route("metrics", query=query)
    if path == "/metrics.json":
        return Route("metrics_json", query=query)
    if path == "/v1/stores":
        return Route("stores", query=query)
    if path == "/runs":
        return Route("runs", query=query)
    parts = [urllib.parse.unquote(p) for p in path.split("/")[1:]]
    if len(parts) == 4 and parts[:2] == ["v1", "stores"] \
            and parts[3] == "manifest" and parts[2]:
        return Route("manifest", alias=parts[2], query=query)
    if len(parts) == 6 and parts[:2] == ["v1", "stores"] \
            and parts[3] == "fields" and parts[5] == "region" \
            and parts[2] and parts[4]:
        return Route("region", alias=parts[2], field=parts[4],
                     query=query)
    raise RequestFailed(404, f"unknown path {split.path!r}")


def parse_slices(spec: str) -> tuple[RegionSel, ...]:
    """Parse ``"0:16,8:24,3"`` into a tuple of slices and ints.

    The single region grammar shared by the ``dpz store region`` CLI
    and the ``slices=`` query parameter.  Raises
    :class:`~repro.errors.ConfigError` on malformed selectors.
    """
    sels: list[RegionSel] = []
    for part in spec.split(","):
        part = part.strip()
        if ":" in part:
            lo, _, hi = part.partition(":")
            try:
                sels.append(slice(int(lo) if lo else None,
                                  int(hi) if hi else None))
            except ValueError:
                raise ConfigError(
                    f"bad region selector {part!r} (want START:STOP "
                    f"or an integer index)") from None
        elif part:
            try:
                sels.append(int(part))
            except ValueError:
                raise ConfigError(
                    f"bad region selector {part!r} (want START:STOP "
                    f"or an integer index)") from None
        else:
            raise ConfigError(f"empty selector in region spec {spec!r}")
    return tuple(sels)


def format_slices(region: Sequence[RegionSel]) -> str:
    """Render a region tuple back into the ``slices=`` grammar.

    The inverse of :func:`parse_slices` for unit-step slices and
    integer selectors; anything else (a step, a non-int) raises
    :class:`~repro.errors.ConfigError` because the wire grammar cannot
    express it.
    """
    parts: list[str] = []
    for sel in region:
        if isinstance(sel, slice):
            if sel.step not in (None, 1):
                raise ConfigError(
                    f"region slices must be unit-step, got step "
                    f"{sel.step!r}")
            lo = "" if sel.start is None else str(int(sel.start))
            hi = "" if sel.stop is None else str(int(sel.stop))
            parts.append(f"{lo}:{hi}")
        elif isinstance(sel, (int, np.integer)):
            parts.append(str(int(sel)))
        else:
            raise ConfigError(
                f"region selector {sel!r} is neither a slice nor an "
                f"integer")
    if not parts:
        raise ConfigError("region must have at least one selector")
    return ",".join(parts)


def encode_region_frame(store: str, field: str,
                        arr: "np.ndarray[Any, np.dtype[Any]]") -> bytes:
    """Serialize one region result as a ``DPZR`` frame."""
    if arr.dtype.newbyteorder("=") == np.dtype(np.float32):
        wire_dtype = "<f4"
    elif arr.dtype.newbyteorder("=") == np.dtype(np.float64):
        wire_dtype = "<f8"
    else:
        raise ConfigError(
            f"region frame carries <f4/<f8 payloads only, got dtype "
            f"{arr.dtype}")
    payload = np.ascontiguousarray(arr, dtype=wire_dtype).tobytes()
    header = json.dumps({
        "store": store,
        "field": field,
        "shape": [int(n) for n in arr.shape],
        "dtype": wire_dtype,
        "order": "C",
        "nbytes": len(payload),
    }, sort_keys=True).encode("utf-8")
    return _FRAME_HEAD.pack(FRAME_MAGIC, len(header)) + header + payload


def decode_region_frame(buf: bytes) -> tuple[
        dict[str, Any], "np.ndarray[Any, np.dtype[Any]]"]:
    """Parse a ``DPZR`` frame into ``(header, array)``.

    Raises :class:`~repro.errors.FormatError` on any structural
    problem -- wrong magic, truncated header or payload, a header that
    disagrees with the payload length.
    """
    if len(buf) < _FRAME_HEAD.size:
        raise FormatError(
            f"region frame truncated: {len(buf)} bytes is shorter "
            f"than the {_FRAME_HEAD.size}-byte frame head")
    magic, header_len = _FRAME_HEAD.unpack_from(buf)
    if magic != FRAME_MAGIC:
        raise FormatError(
            f"bad region frame magic {magic!r} (want {FRAME_MAGIC!r})")
    if header_len > _MAX_HEADER:
        raise FormatError(
            f"region frame header length {header_len} exceeds the "
            f"{_MAX_HEADER}-byte cap")
    head_end = _FRAME_HEAD.size + header_len
    if len(buf) < head_end:
        raise FormatError(
            f"region frame truncated inside the JSON header "
            f"({len(buf)} of {head_end} bytes)")
    try:
        header = json.loads(buf[_FRAME_HEAD.size:head_end])
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"region frame header is not JSON: {exc}") \
            from None
    for key in ("store", "field", "shape", "dtype", "nbytes"):
        if key not in header:
            raise FormatError(f"region frame header missing {key!r}")
    dtype = str(header["dtype"])
    if dtype not in ("<f4", "<f8"):
        raise FormatError(
            f"region frame dtype {dtype!r} is not <f4/<f8")
    shape = tuple(int(n) for n in header["shape"])
    payload = buf[head_end:]
    if len(payload) != int(header["nbytes"]):
        raise FormatError(
            f"region frame payload is {len(payload)} bytes, header "
            f"promised {header['nbytes']}")
    expected = int(np.prod(shape, dtype=np.int64)) * int(dtype[-1])
    if len(payload) != expected:
        raise FormatError(
            f"region frame payload is {len(payload)} bytes but shape "
            f"{shape} x dtype {dtype} needs {expected}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return dict(header), arr


def error_body(status: int, message: str,
               **extra: Any) -> bytes:
    """The error-JSON body shared by every failure response."""
    payload: dict[str, Any] = {"error": message, "status": int(status)}
    payload.update(extra)
    return json.dumps(payload, sort_keys=True).encode("utf-8")
