"""Length-prefixed binary wire protocol for the optimizer service.

JSON-lines framing is friendly but it is also the socket transport's
remaining tax: every query round-trips through ``json.loads`` /
``json.dumps`` and a per-query Python dict even though the resolver
takes ``(preset, d, m)`` cell keys and answers in columns
(:func:`repro.service.batch.resolve_queries`).  This module is
the lean alternative — struct-packed query arrays in, contiguous
float64 answer arrays plus provenance codes out — and it is the single
source of truth for every frame constant: the server and both clients
import the magic, version, opcodes, and record layouts from here (the
``protocol-drift`` rule of :mod:`repro.check.rules` flags any
redefinition).

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic          b"RPRW"
    4       1     version        WIRE_VERSION (currently 1)
    5       1     opcode         OP_* below
    6       2     reserved       0
    8       4     payload length (<= MAX_FRAME_BYTES)
    12      n     payload

Opcodes and payloads:

``OP_HELLO`` (client -> server)
    Opens a binary session; MUST be the first frame on the connection
    (the leading magic is also how the server distinguishes a binary
    client from a JSON-lines one — anything else falls back to the
    JSON transport byte-for-byte unchanged).  Payload: a UTF-8 JSON
    object, ``{"token": "..."}`` (empty string when no auth is used).
``OP_HELLO_OK`` (server -> client)
    Negotiation answer.  Payload: UTF-8 JSON ``{"version": 1,
    "presets": [...], "default_preset": ..., "max_queries": N}``.  The
    ``presets`` list is the catalog: a query's ``preset`` field is an
    index into it.
``OP_QUERY`` (client -> server)
    Payload: a packed array of :data:`QUERY_DTYPE` records —
    ``(preset: u16, d: u16, m: f64)``, 12 bytes per query, any count
    up to the server's per-request limit.
``OP_RESULT`` (server -> client)
    Payload: ``u32 count`` | ``f64 time_us[count]`` |
    ``u8 source[count]`` (:data:`SOURCE_NAMES` index) |
    ``u8 nparts[count]`` | ``u8 parts[sum(nparts)]`` — answers in
    query order for the matching ``OP_QUERY`` frame.
``OP_ERROR`` (server -> client)
    Payload: UTF-8 message.  The binary analogue of the JSON
    ``{"ok": false}`` document; the session survives unless framing
    itself was lost (bad magic, oversized length, truncation).
``OP_RETRY_LATER`` (server -> client)
    Payload: UTF-8 message.  Admission control shed the matching
    ``OP_QUERY`` frame; nothing was resolved — retry after backoff.

The shard-fabric control plane (:mod:`repro.fabric`) rides the same
framing with its own opcode range (16+).  Control traffic is rare and
schema-evolving, so every fabric payload is a UTF-8 JSON object
(:func:`fabric_payload` / :func:`parse_fabric_payload`):

``OP_JOIN`` / ``OP_JOIN_OK``
    A node registers with the coordinator (node id, advertised
    address, preset catalog, shard inventory); the answer carries the
    routing epoch plus the heartbeat cadence and miss limit the
    coordinator enforces.
``OP_HEARTBEAT`` / ``OP_HEARTBEAT_OK``
    Periodic node liveness plus a stats snapshot (shed counter, p99,
    loaded tables); the answer echoes the current epoch and may carry
    ``{"drain": true}`` to ask the node to drain and exit.
``OP_ROUTES`` / ``OP_ROUTES_OK``
    A client fetches the versioned routing table; the request may
    carry the client's cached ``epoch`` and the answer is
    ``{"unchanged": true}`` when that epoch is still current.
``OP_STATUS`` / ``OP_STATUS_OK``
    The full membership document — every node with state, last-seen
    age, and latest stats (``repro cluster status``).
``OP_DRAIN`` / ``OP_DRAIN_OK``
    Administratively drain one node: it leaves the routing table at
    the next epoch and is told to shut down on its next heartbeat.

Every frame helper here is transport-agnostic bytes-in/bytes-out so
the asyncio server, the blocking client, and the asyncio client share
one codec; :exc:`WireError` carries a ``fatal`` flag separating
recoverable in-band errors (unknown opcode, bad payload) from lost
framing (bad magic, oversized length), mirroring how the JSON
transport treats an overlong line.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Sequence

import numpy as np

__all__ = [
    "HEADER",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "OP_DRAIN",
    "OP_DRAIN_OK",
    "OP_ERROR",
    "OP_HEARTBEAT",
    "OP_HEARTBEAT_OK",
    "OP_HELLO",
    "OP_HELLO_OK",
    "OP_JOIN",
    "OP_JOIN_OK",
    "OP_QUERY",
    "OP_RESULT",
    "OP_RETRY_LATER",
    "OP_ROUTES",
    "OP_ROUTES_OK",
    "OP_STATUS",
    "OP_STATUS_OK",
    "QUERY_DTYPE",
    "SOURCE_CODES",
    "SOURCE_NAMES",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "decode_query_payload",
    "decode_result_payload",
    "encode_query_records",
    "encode_results",
    "error_frame",
    "fabric_payload",
    "hello_ok_payload",
    "hello_payload",
    "make_query_records",
    "pack_frame",
    "parse_fabric_payload",
    "parse_header",
    "parse_hello",
    "parse_hello_ok",
    "read_frame",
    "read_frame_blocking",
]

#: the four bytes that open every binary frame — and the negotiation
#: sniff: a connection whose first bytes are not this magic is served
#: as JSON lines, unchanged
WIRE_MAGIC = b"RPRW"
#: protocol revision carried in every frame header
WIRE_VERSION = 1
#: frame header: magic, version, opcode, reserved, payload length
HEADER = struct.Struct("<4sBBHI")
HEADER_BYTES = 12
#: payload cap — the binary twin of the JSON transport's 1 MiB line cap
MAX_FRAME_BYTES = 1 << 20

OP_HELLO = 1
OP_HELLO_OK = 2
OP_QUERY = 3
OP_RESULT = 4
OP_ERROR = 5
OP_RETRY_LATER = 6

# -- shard-fabric control plane (16+; JSON payloads, see module doc) --
OP_JOIN = 16
OP_JOIN_OK = 17
OP_HEARTBEAT = 18
OP_HEARTBEAT_OK = 19
OP_ROUTES = 20
OP_ROUTES_OK = 21
OP_STATUS = 22
OP_STATUS_OK = 23
OP_DRAIN = 24
OP_DRAIN_OK = 25

#: one packed query: catalog index, cube dimension, block size
QUERY_DTYPE = np.dtype([("preset", "<u2"), ("d", "<u2"), ("m", "<f8")])

#: provenance codes on the wire; index = code (see QueryResult.source)
SOURCE_NAMES = ("memo", "grid", "pool")
SOURCE_CODES = {name: code for code, name in enumerate(SOURCE_NAMES)}

#: fixed prefix of the OP_RESULT payload
_RESULT_COUNT = struct.Struct("<I")


class WireError(ValueError):
    """A malformed binary frame.

    ``fatal`` distinguishes errors after which framing is still intact
    (the peer can keep the session) from ones where the byte stream's
    frame boundaries are unknowable (bad magic, oversized length,
    truncation) and the connection must end after the in-band error.
    """

    def __init__(self, message: str, *, fatal: bool = False) -> None:
        super().__init__(message)
        self.fatal = fatal


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def pack_frame(opcode: int, payload: bytes = b"", *, version: int = WIRE_VERSION) -> bytes:
    """One complete frame: header + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return HEADER.pack(WIRE_MAGIC, version, opcode, 0, len(payload)) + payload


def parse_header(header: bytes, *, max_payload: int = MAX_FRAME_BYTES) -> tuple[int, int, int]:
    """``(version, opcode, payload_length)`` from 12 header bytes.

    Raises :exc:`WireError` (fatal) on bad magic or an oversized
    length prefix — both mean frame boundaries can no longer be
    trusted.
    """
    magic, version, opcode, _, length = HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise WireError(
            f"bad frame magic {magic!r} (expected {WIRE_MAGIC!r})", fatal=True
        )
    if length > max_payload:
        raise WireError(
            f"frame payload of {length} bytes exceeds the {max_payload}-byte cap",
            fatal=True,
        )
    return version, opcode, length


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    first: bytes = b"",
    max_payload: int = MAX_FRAME_BYTES,
) -> tuple[int, int, bytes]:
    """Read one frame from an asyncio stream.

    ``first`` holds header bytes already consumed by the caller (the
    server's transport sniff eats the magic of the first frame).
    Header truncation surfaces as :exc:`asyncio.IncompleteReadError`
    (the caller checks ``partial`` to tell a clean frame-boundary EOF
    from a mid-header cut); a payload cut after a complete header is
    always mid-frame, so it raises a fatal :exc:`WireError`.
    """
    header = first + await reader.readexactly(HEADER_BYTES - len(first))
    version, opcode, length = parse_header(header, max_payload=max_payload)
    if not length:
        return version, opcode, b""
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise WireError(
            "connection closed mid-frame (truncated payload)", fatal=True
        ) from None
    return version, opcode, payload


def read_frame_blocking(
    read: Any, *, max_payload: int = MAX_FRAME_BYTES
) -> tuple[int, int, bytes]:
    """Read one frame via a blocking ``read(n)`` callable (file/socket).

    Raises :exc:`ConnectionError` when the peer closes mid-frame.
    """
    header = read(HEADER_BYTES)
    if len(header) < HEADER_BYTES:
        raise ConnectionError("server closed the connection mid-frame")
    version, opcode, length = parse_header(header, max_payload=max_payload)
    payload = read(length) if length else b""
    if len(payload) < length:
        raise ConnectionError("server closed the connection mid-frame")
    return version, opcode, payload


def error_frame(message: str, *, retry: bool = False) -> bytes:
    """An in-band ``OP_ERROR`` (or ``OP_RETRY_LATER``) frame."""
    return pack_frame(OP_RETRY_LATER if retry else OP_ERROR, message.encode("utf-8"))


# ----------------------------------------------------------------------
# negotiation payloads (one-time per connection, JSON for flexibility)
# ----------------------------------------------------------------------
def hello_payload(token: str | None = None) -> bytes:
    """The ``OP_HELLO`` payload a client sends."""
    return json.dumps({"token": token or ""}).encode("utf-8")


def parse_hello(payload: bytes) -> str:
    """The auth token out of an ``OP_HELLO`` payload (may be empty)."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed HELLO payload: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("token", ""), str):
        raise WireError("malformed HELLO payload: expected {\"token\": str}")
    return str(obj.get("token", ""))


def hello_ok_payload(
    presets: Sequence[str],
    default_preset: str | None,
    max_queries: int,
) -> bytes:
    """The ``OP_HELLO_OK`` payload: the preset catalog and limits."""
    return json.dumps({
        "version": WIRE_VERSION,
        "presets": list(presets),
        "default_preset": default_preset,
        "max_queries": max_queries,
    }).encode("utf-8")


def parse_hello_ok(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed HELLO_OK payload: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("presets"), list):
        raise WireError("malformed HELLO_OK payload: no preset catalog")
    return obj


# ----------------------------------------------------------------------
# fabric control-plane payloads (rare, schema-evolving -> JSON objects)
# ----------------------------------------------------------------------
def fabric_payload(doc: dict) -> bytes:
    """The payload for any fabric control-plane frame (OP_JOIN etc.)."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def parse_fabric_payload(payload: bytes) -> dict:
    """The JSON object inside a fabric control-plane frame.

    Raises :exc:`WireError` (non-fatal — framing is intact) when the
    payload is not a JSON object.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed fabric payload: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError("malformed fabric payload: expected a JSON object")
    return obj


# ----------------------------------------------------------------------
# query payload codec
# ----------------------------------------------------------------------
def make_query_records(
    specs: Sequence[tuple[int, int, float]] | np.ndarray,
) -> np.ndarray:
    """Pack ``(preset_id, d, m)`` triples into a QUERY_DTYPE array."""
    if isinstance(specs, np.ndarray) and specs.dtype == QUERY_DTYPE:
        return specs
    return np.array([tuple(s) for s in specs], dtype=QUERY_DTYPE)


def encode_query_records(records: np.ndarray) -> bytes:
    """The ``OP_QUERY`` payload for a QUERY_DTYPE record array."""
    if records.dtype != QUERY_DTYPE:
        records = records.astype(QUERY_DTYPE)
    return records.tobytes()


def decode_query_payload(payload: bytes) -> np.ndarray:
    """The QUERY_DTYPE record array inside an ``OP_QUERY`` payload."""
    itemsize = QUERY_DTYPE.itemsize
    if len(payload) % itemsize:
        raise WireError(
            f"query payload of {len(payload)} bytes is not a whole number "
            f"of {itemsize}-byte records"
        )
    return np.frombuffer(payload, dtype=QUERY_DTYPE)


# ----------------------------------------------------------------------
# result payload codec
# ----------------------------------------------------------------------
def encode_results(answers: _batch.Answers | Sequence[_batch.QueryResult]) -> bytes:
    """The ``OP_RESULT`` payload for resolved queries, in their order:
    the resolver's :class:`~repro.service.batch.Answers` columns packed
    as they are, or QueryResult objects converted to the same columns
    first.  One ``b"".join``, no object per query."""
    if isinstance(answers, _batch.Answers):
        times, source, parts = answers.time_us, answers.source, answers.parts
    else:
        times = [r.time_us for r in answers]
        source = bytearray(SOURCE_CODES[r.source] for r in answers)
        parts = [bytes(r.partition) for r in answers]
    count = len(parts)
    return b"".join((
        _RESULT_COUNT.pack(count),
        struct.pack(f"<{count}d", *times),
        source,
        bytes(map(len, parts)),
        *parts,
    ))


def decode_result_payload(
    payload: bytes,
) -> tuple[np.ndarray, list[str], list[tuple[int, ...]]]:
    """``(times, source_names, partitions)`` out of an ``OP_RESULT``.

    ``times`` stays a float64 array; sources come back as their
    protocol names and partitions as tuples, in query order.
    """
    if len(payload) < _RESULT_COUNT.size:
        raise WireError("result payload shorter than its count prefix")
    (count,) = _RESULT_COUNT.unpack_from(payload)
    offset = _RESULT_COUNT.size
    need = offset + count * 8 + count + count
    if len(payload) < need:
        raise WireError(
            f"result payload of {len(payload)} bytes is shorter than the "
            f"{need} bytes its count of {count} implies"
        )
    times = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
    offset += count * 8
    codes = np.frombuffer(payload, dtype=np.uint8, count=count, offset=offset)
    offset += count
    nparts = np.frombuffer(payload, dtype=np.uint8, count=count, offset=offset)
    offset += count
    total = int(nparts.sum())
    if len(payload) != offset + total:
        raise WireError("result payload length disagrees with its partition counts")
    parts = np.frombuffer(payload, dtype=np.uint8, count=total, offset=offset)
    if codes.size and int(codes.max()) >= len(SOURCE_NAMES):
        raise WireError(f"unknown source code {int(codes.max())}")
    sources = [SOURCE_NAMES[code] for code in codes.tolist()]
    partitions: list[tuple[int, ...]] = []
    cursor = 0
    flat = parts.tolist()
    for k in nparts.tolist():
        partitions.append(tuple(flat[cursor:cursor + k]))
        cursor += k
    return times, sources, partitions


# last: batch imports this module's source codes
from repro.service import batch as _batch  # noqa: E402
