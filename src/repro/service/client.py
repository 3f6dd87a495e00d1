"""Client library for the optimizer query service socket transport.

The client side of the socket server's two protocols
(:mod:`repro.service.async_server`) — the JSON lines of
:mod:`repro.service.server` and, with ``wire="binary"``, the frames of
:mod:`repro.service.wire` — is written once, in :class:`_ServerCore`,
as *flows*: generators that yield I/O steps and are sent each step's
result.  A step is bytes to send, :data:`_READ_LINE` or
:data:`_READ_FRAME` (answered with one line, or one
``(opcode, payload)`` frame).  The flows cover HELLO / auth
negotiation, ``request``, ``query``, pipelined ``query_many`` and the
ops.  Two drivers run them, differing only in how a step moves bytes:

:class:`ServerClient`
    Blocking sockets, for scripts and ``repro query --connect``.
:class:`AsyncServerClient`
    asyncio streams, for load generators and event-loop services.

Both bound every read by ``timeout`` and close the connection when
connecting or negotiating fails; :mod:`repro.fabric.cluster` runs its
node connections and coordinator round trips on them.  ``query_many``
pipelines: every request is written before the first response is read,
so a micro-batching server sees them all at once.  Prefer the
:func:`repro.service.connect` / :func:`repro.service.aconnect`
factories, which also understand ``cluster:`` targets.

On the binary wire the client opens with a ``HELLO`` (carrying the
optional ``auth_token``) and keeps the server's ``HELLO_OK`` preset
catalog, then :meth:`~ServerClient.query_many` packs queries into
``(preset_id, d, m)`` record frames and decodes the answer arrays back
into the same response documents the JSON wire produces — callers
cannot tell the transports apart by result shape.  Ops (``stats``,
``shutdown``) stay JSON-connection affairs; a binary
:meth:`~ServerClient.presets` answers from the negotiated catalog.
With ``auth_token`` on the JSON wire, the client authenticates with
``{"op": "auth", "token": ...}`` before anything else.

Addresses are written ``HOST:PORT`` (TCP; a bare ``:PORT`` binds
loopback) or ``unix:PATH`` / any spec containing ``/`` (Unix domain
socket), parsed by :func:`parse_address`:

>>> parse_address("127.0.0.1:7831")
Address(kind='tcp', host='127.0.0.1', port=7831, path='')
>>> str(parse_address("unix:/tmp/repro.sock"))
'unix:/tmp/repro.sock'

Responses are the protocol's JSON documents as plain dicts;
:meth:`~ServerClient.query` raises :class:`ServiceError` when the
server answers ``{"ok": false}`` so callers cannot mistake an in-band
error for a result.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Generator, Iterable, Sequence

from repro.service import wire as wire_proto

__all__ = [
    "Address",
    "AsyncServerClient",
    "ServerClient",
    "ServiceError",
    "parse_address",
]

#: wire protocol selectors accepted by the clients
_WIRES = ("json", "binary")

#: the read steps a flow yields (any other step is bytes to send)
_READ_LINE = "read line"
_READ_FRAME = "read frame"

#: a flow: yields steps, is sent each step's result, returns the answer
_Flow = Generator[Any, Any, Any]


class ServiceError(RuntimeError):
    """The server answered a request with ``{"ok": false}``."""

    def __init__(self, response: dict) -> None:
        super().__init__(response.get("error", "unknown service error"))
        #: the full error document the server sent back
        self.response = response


@dataclass(frozen=True)
class Address:
    """One serving endpoint: TCP ``host:port`` or a Unix socket path."""

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def parse_address(spec: str | Address) -> Address:
    """Parse ``HOST:PORT``, ``:PORT``, ``unix:PATH``, or a filesystem
    path into an :class:`Address` (an :class:`Address` passes through).
    """
    if isinstance(spec, Address):
        return spec
    if not isinstance(spec, str) or not spec:
        raise ValueError("address must be 'HOST:PORT' or 'unix:PATH'")
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError("unix socket address has an empty path")
        return Address("unix", path=path)
    if "/" in spec:
        # a bare filesystem path is unambiguous — treat it as a socket
        return Address("unix", path=spec)
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        raise ValueError(
            f"address {spec!r} is not 'HOST:PORT' or 'unix:PATH'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address {spec!r} has a non-integer port") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} is out of range 0..65535")
    return Address("tcp", host=host or "127.0.0.1", port=port)


def _query_request(item: object, default_preset: str | None) -> dict:
    """One protocol request document from a client-side query spec."""
    if isinstance(item, dict):
        doc = dict(item)
    elif isinstance(item, Sequence) and len(item) == 3:
        doc = {"preset": item[0], "d": item[1], "m": item[2]}
    elif isinstance(item, Sequence) and len(item) == 2:
        doc = {"d": item[0], "m": item[1]}
    else:
        raise ValueError(
            f"query must be a dict, (d, m), or (preset, d, m); got {item!r}"
        )
    if default_preset is not None:
        doc.setdefault("preset", default_preset)
    return doc


class _BinarySession:
    """The negotiated state and codec logic both clients share on the
    binary wire; the transports differ only in how bytes move."""

    def __init__(self, hello_ok: dict) -> None:
        self.catalog: list[str] = [str(name) for name in hello_ok["presets"]]
        self.preset_ids = {name: i for i, name in enumerate(self.catalog)}
        default = hello_ok.get("default_preset")
        self.default_preset: str | None = default if isinstance(default, str) else None

    def spec(self, item: object, preset: str | None) -> dict:
        """One query spec: the JSON request document plus its packed
        preset index, validated client-side against the catalog."""
        doc = _query_request(item, preset)
        unknown = set(doc) - {"preset", "d", "m", "id"}
        if unknown:
            raise ValueError(f"unknown query fields {sorted(unknown)}")
        name = doc.get("preset", self.default_preset)
        if name is None:
            raise ValueError(
                "query has no machine preset and the server has no default"
            )
        preset_id = self.preset_ids.get(name)
        if preset_id is None:
            raise ValueError(
                f"unknown machine preset {name!r} (server has {self.catalog})"
            )
        try:
            d, m = doc["d"], doc["m"]
        except KeyError as missing:
            raise ValueError(
                f"query is missing required field {missing}"
            ) from None
        return {"preset": name, "pid": preset_id, "d": d, "m": m, "id": doc.get("id")}

    @staticmethod
    def query_frame(specs: list[dict]) -> bytes:
        records = wire_proto.make_query_records(
            [(spec["pid"], spec["d"], spec["m"]) for spec in specs]
        )
        return wire_proto.pack_frame(
            wire_proto.OP_QUERY, wire_proto.encode_query_records(records)
        )

    @staticmethod
    def frame_docs(opcode: int, payload: bytes, specs: list[dict]) -> list[dict]:
        """The response documents for one answer frame — the same
        shape the JSON wire produces, so transports are swappable."""
        if opcode == wire_proto.OP_RESULT:
            times, sources, partitions = wire_proto.decode_result_payload(payload)
            if len(sources) != len(specs):
                raise ServiceError({
                    "ok": False,
                    "error": f"result frame carries {len(sources)} answers "
                             f"for {len(specs)} queries",
                })
            docs = []
            for spec, time_us, source, partition in zip(
                specs, times.tolist(), sources, partitions
            ):
                doc: dict[str, Any] = {
                    "ok": True,
                    "preset": spec["preset"],
                    "d": spec["d"],
                    "m": spec["m"],
                    "partition": list(partition),
                    "time_us": time_us,
                    "source": source,
                }
                if spec["id"] is not None:
                    doc["id"] = spec["id"]
                docs.append(doc)
            return docs
        message = payload.decode("utf-8", "replace")
        base: dict[str, Any] = {"ok": False, "error": message}
        if opcode == wire_proto.OP_RETRY_LATER:
            base["retry"] = True
        elif opcode != wire_proto.OP_ERROR:
            base["error"] = f"unexpected frame opcode {opcode}: {message!r}"
        docs = []
        for spec in specs:
            doc = dict(base)
            if spec["id"] is not None:
                doc["id"] = spec["id"]
            docs.append(doc)
        return docs


def _check_wire(wire: str) -> str:
    if wire not in _WIRES:
        raise ValueError(f"wire must be one of {_WIRES}, got {wire!r}")
    return wire


def _check_frame_queries(wire: str, frame_queries: int | None) -> None:
    """The one ``query_many(frame_queries=...)`` check every client
    (single-server and cluster, sync and async) runs first."""
    if frame_queries is None:
        return
    if wire != "binary":
        raise ValueError("frame_queries applies to the binary wire only")
    if frame_queries < 1:
        raise ValueError(f"frame_queries must be >= 1, got {frame_queries}")


def _checked(response: dict) -> dict:
    """``response``, or :class:`ServiceError` for an error answer."""
    if not response.get("ok", False):
        raise ServiceError(response)
    return response


def _hello_session(opcode: int, payload: bytes) -> _BinarySession:
    """Interpret the server's answer to a HELLO frame."""
    if opcode == wire_proto.OP_ERROR:
        raise ServiceError({"ok": False, "error": payload.decode("utf-8", "replace")})
    if opcode != wire_proto.OP_HELLO_OK:
        raise ServiceError({
            "ok": False,
            "error": f"expected HELLO_OK from the server, got opcode {opcode}",
        })
    return _BinarySession(wire_proto.parse_hello_ok(payload))


def _json_lines(docs: Iterable[dict]) -> bytes:
    return b"".join(json.dumps(doc).encode() + b"\n" for doc in docs)


def _read_doc() -> _Flow:
    """Read one JSON response line."""
    line = yield _READ_LINE
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def _drive(flow: _Flow, handle: Callable[[Any], Any]) -> Any:
    """Run ``flow`` to its return value, answering each step it yields
    with ``handle(step)``."""
    result = None
    while True:
        try:
            step = flow.send(result)
        except StopIteration as done:
            return done.value
        result = handle(step)


async def _adrive(flow: _Flow, handle: Callable[[Any], Awaitable[Any]]) -> Any:
    """:func:`_drive` with an awaitable step handler."""
    result = None
    while True:
        try:
            step = flow.send(result)
        except StopIteration as done:
            return done.value
        result = await handle(step)


class _ServerCore:
    """One server connection's client protocol, written once as flows
    that both drivers run (see the module docstring)."""

    def __init__(self, wire: str) -> None:
        self.wire = _check_wire(wire)
        self._session: _BinarySession | None = None

    def _negotiate_flow(self, auth_token: str | None) -> _Flow:
        if self.wire == "binary":
            yield wire_proto.pack_frame(
                wire_proto.OP_HELLO, wire_proto.hello_payload(auth_token)
            )
            self._session = _hello_session(*(yield _READ_FRAME))
        elif auth_token is not None:
            _checked((yield from self._request_flow({"op": "auth", "token": auth_token})))

    def _request_flow(self, obj: dict) -> _Flow:
        if self.wire == "binary":
            raise ValueError(
                "the binary wire carries query frames only; connect with "
                "wire='json' for ops"
            )
        yield _json_lines([obj])
        return (yield from _read_doc())

    def _op_flow(self, op: str) -> _Flow:
        return _checked((yield from self._request_flow({"op": op})))

    def _presets_flow(self) -> _Flow:
        if self._session is not None:
            # the HELLO_OK already carried the catalog
            return list(self._session.catalog)
        return list((yield from self._op_flow("presets"))["presets"])

    def _query_flow(self, d: int, m: float, preset: str | None) -> _Flow:
        answers = yield from self._query_many_flow([(d, m)], preset, None)
        return _checked(answers[0])

    def _query_many_flow(
        self, queries: Iterable, preset: str | None, frame_queries: int | None
    ) -> _Flow:
        _check_frame_queries(self.wire, frame_queries)
        responses: list[dict] = []
        session = self._session
        if session is None:
            docs = [_query_request(q, preset) for q in queries]
            if docs:
                yield _json_lines(docs)
            for _ in docs:
                responses.append((yield from _read_doc()))
            return responses
        specs = [session.spec(q, preset) for q in queries]
        chunk = frame_queries or max(len(specs), 1)
        groups = [specs[i : i + chunk] for i in range(0, len(specs), chunk)]
        if groups:
            yield b"".join(session.query_frame(g) for g in groups)
        for group in groups:
            opcode, payload = yield _READ_FRAME
            responses.extend(session.frame_docs(opcode, payload, group))
        return responses


class ServerClient(_ServerCore):
    """Blocking client for one server connection.

    ``wire="binary"`` negotiates the binary protocol at connect (and
    carries ``auth_token`` in the HELLO); on the default JSON wire an
    ``auth_token`` is presented via ``{"op": "auth"}`` first.  Usable
    as a context manager; the connection closes on exit.
    """

    def __init__(
        self,
        address: str | Address,
        *,
        timeout: float | None = 30.0,
        wire: str = "json",
        auth_token: str | None = None,
    ) -> None:
        super().__init__(wire)
        addr = parse_address(address)
        if addr.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
        else:
            sock = socket.create_connection((addr.host, addr.port), timeout=timeout)
        self.address = addr
        self._sock = sock
        self._file = sock.makefile("rwb")
        try:
            if addr.kind == "unix":
                sock.connect(addr.path)
            self._run(self._negotiate_flow(auth_token))
        except BaseException:
            self.close()
            raise

    def _run(self, flow: _Flow) -> Any:
        return _drive(flow, self._step)

    def _step(self, step: Any) -> Any:
        if step is _READ_LINE:
            return self._file.readline()
        if step is _READ_FRAME:
            return wire_proto.read_frame_blocking(self._file.read)[1:]
        self._file.write(step)
        self._file.flush()
        return None

    def request(self, obj: dict) -> dict:
        """One request, one response — no interpretation of either."""
        return self._run(self._request_flow(obj))

    def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        """One lookup; raises :class:`ServiceError` on an error answer."""
        return self._run(self._query_flow(d, m, preset))

    def query_many(
        self,
        queries: Iterable,
        *,
        preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]:
        """Pipelined lookups: write every request, then read every
        response (in request order — the protocol guarantees it).
        Returns the raw response documents; callers inspect ``ok``.

        On the binary wire the queries pack into ``OP_QUERY`` record
        frames — one frame by default, or ``frame_queries`` per frame
        to bound per-frame latency; the response documents match the
        JSON wire's shape.
        """
        return self._run(self._query_many_flow(queries, preset, frame_queries))

    def stats(self) -> dict:
        """The server's live counters (registry stats; socket servers
        add a ``server`` section with transport/batcher counters)."""
        return self._run(self._op_flow("stats"))

    def presets(self) -> list[str]:
        return self._run(self._presets_flow())

    def shutdown(self) -> dict:
        """Ask the server to drain and exit (socket transport only)."""
        return self._run(self._op_flow("shutdown"))

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServerClient(_ServerCore):
    """The same client surface on asyncio streams.

    >>> # client = await AsyncServerClient.connect("127.0.0.1:7831")
    >>> # await client.query(7, 40)  ->  {"ok": True, "partition": [4, 3], ...}
    """

    def __init__(
        self,
        address: Address,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        super().__init__("json")
        self.address = address
        self._reader = reader
        self._writer = writer
        #: bound on every read and drain; :meth:`connect` sets it
        self._timeout: float | None = None

    @classmethod
    async def connect(
        cls,
        address: str | Address,
        *,
        timeout: float | None = 30.0,
        wire: str = "json",
        auth_token: str | None = None,
    ) -> "AsyncServerClient":
        _check_wire(wire)
        addr = parse_address(address)
        async with asyncio.timeout(timeout):
            if addr.kind == "unix":
                reader, writer = await asyncio.open_unix_connection(addr.path)
            else:
                reader, writer = await asyncio.open_connection(addr.host, addr.port)
        client = cls(addr, reader, writer)
        client.wire = wire
        client._timeout = timeout
        try:
            await client._run(client._negotiate_flow(auth_token))
        except BaseException:
            await client.aclose()
            raise
        return client

    async def _run(self, flow: _Flow) -> Any:
        return await _adrive(flow, self._step)

    async def _step(self, step: Any) -> Any:
        async with asyncio.timeout(self._timeout):
            if step is _READ_LINE:
                return await self._reader.readline()
            if step is _READ_FRAME:
                try:
                    return (await wire_proto.read_frame(self._reader))[1:]
                except asyncio.IncompleteReadError:
                    raise ConnectionError(
                        "server closed the connection mid-frame"
                    ) from None
            self._writer.write(step)
            await self._writer.drain()
            return None

    async def _write_lines(self, docs: Iterable[dict]) -> None:
        await self._step(_json_lines(docs))

    async def _read_response(self) -> dict:
        return await self._run(_read_doc())

    async def request(self, obj: dict) -> dict:
        return await self._run(self._request_flow(obj))

    async def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        return await self._run(self._query_flow(d, m, preset))

    async def query_many(
        self,
        queries: Iterable,
        *,
        preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]:
        """Pipelined lookups: one write carries every request, then the
        responses stream back in order.  On the binary wire the queries
        pack into ``OP_QUERY`` record frames (one by default,
        ``frame_queries`` per frame to bound per-frame latency)."""
        return await self._run(self._query_many_flow(queries, preset, frame_queries))

    async def stats(self) -> dict:
        return await self._run(self._op_flow("stats"))

    async def presets(self) -> list[str]:
        return await self._run(self._presets_flow())

    async def shutdown(self) -> dict:
        return await self._run(self._op_flow("shutdown"))

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServerClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
