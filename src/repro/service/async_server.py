"""Async multi-client serving with cross-client micro-batching.

:class:`AsyncOptimizerServer` puts the JSON-lines protocol of
:mod:`repro.service.server` on an asyncio socket (TCP ``host:port`` or
``unix:path``) so many clients can hold connections open and pipeline
requests.  The request semantics are untouched — classification,
range checks, and response encoding are the same
:func:`~repro.service.server.extract_queries` /
:func:`~repro.service.server.check_cells` /
:func:`~repro.service.server.handle_op` /
:func:`~repro.service.server.build_response` helpers the stdio loop
uses, so a JSON query line stays cells, ids and answer columns from
:func:`json.loads` to its response bytes, and both transports write
the same bytes — what the socket transport adds is *concurrency*:

* **per-connection pipelining** — a connection's requests are admitted
  synchronously as its lines arrive and answered strictly in request
  order, so a client may write hundreds of lines before reading one
  response;
* **cross-client micro-batching** — every admitted query's cell, from
  every connection, lands in one shared :class:`_MicroBatcher`.  A batch
  flushes into a single coalesced
  :func:`~repro.service.batch.resolve_queries` pass (answering in
  :class:`~repro.service.batch.Answers` columns) when it reaches
  ``max_batch`` queries or, by default, at the end of the current
  event-loop turn — i.e. once every connection with readable data has
  been admitted, so concurrent clients coalesce while a lone serial
  client never waits on a clock.  A ``hold_us`` window (``> 0``)
  instead holds the batch up to that long to gather occupancy across
  turns — the latency/amortization trade is configuration, not code;
* **a negotiated binary wire** — a connection whose first four bytes
  are :data:`repro.service.wire.WIRE_MAGIC` speaks the length-prefixed
  binary protocol of :mod:`repro.service.wire`: a ``HELLO`` exchange
  carries the auth token and returns the preset catalog, then packed
  ``(preset_id, d, m)`` query frames answer with contiguous float64
  time arrays plus provenance codes.  A frame goes from decode to
  ``OP_RESULT`` bytes as cells and columns in wire order, as a JSON
  line does: one pass validates it into one cell per record
  (:func:`~repro.service.batch.queries_from_arrays`), repeats included,
  and the answer columns are packed as the resolver returns them — no
  ``Query`` or ``QueryResult`` per query.  Any other first bytes fall
  back to the JSON-lines transport byte-for-byte unchanged;
* **graceful drain** — :meth:`AsyncOptimizerServer.aclose` (also
  triggered by the socket-only ``{"op": "shutdown"}`` request and by
  SIGINT/SIGTERM under :func:`run_server`) stops accepting, stops
  reading, and answers everything already admitted; a client that
  stopped reading gets ``drain_timeout`` seconds before its remaining
  responses are dropped, so shutdown always terminates.  Pipelining is
  bounded per connection (``max_pipeline``): past the bound the server
  stops reading and lets TCP push back, so a client that never reads
  its responses cannot grow server memory without limit;
* **SLO-grade telemetry and admission control** — every request's
  admission-to-response latency lands in a fixed-bucket
  :class:`LatencyHistogram` surfaced as ``p50_us``/``p99_us`` in
  :class:`ServerStats` and the ``{"op": "stats"}`` response; when the
  batcher depth or admitted-but-unanswered bytes pass the configurable
  ``shed_queries`` / ``shed_bytes`` high-water marks, new query
  requests are shed with an explicit retry signal (a JSON error doc
  with ``"retry": true``, an ``OP_RETRY_LATER`` frame on the binary
  wire) instead of queueing without bound;
* **optional shared-secret auth** — with ``auth_token`` set, a binary
  client's ``HELLO`` must carry the token and a JSON client must send
  ``{"op": "auth", "token": ...}`` before anything else; failures are
  answered in-band and counted, then the connection closes.

One event loop, one registry: resolution runs on the loop, so the
registry needs no locking and the memo/LRU stay exactly as consistent
as under the stdio loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable

from repro.service import wire
from repro.service.batch import Answers, Cell, queries_from_arrays, resolve_queries
from repro.service.client import Address, parse_address
from repro.service.config import ServerConfig
from repro.service.registry import OptimizerRegistry
from repro.service.server import (
    MAX_BATCH_QUERIES,
    build_response,
    check_cells,
    error_response,
    extract_queries,
    handle_op,
    overload_response,
)
from repro.service.wire import (
    OP_HELLO,
    OP_HELLO_OK,
    OP_QUERY,
    OP_RESULT,
    WIRE_MAGIC,
    WIRE_VERSION,
    WireError,
    error_frame,
    pack_frame,
)

__all__ = [
    "AsyncOptimizerServer",
    "LatencyHistogram",
    "ServerStats",
    "run_server",
]

#: sentinel distinguishing "keyword not passed" from an explicit None,
#: so config= and loose keywords cannot silently fight
_UNSET: Any = object()


class LatencyHistogram:
    """Fixed-bucket request-latency histogram (microseconds).

    Power-of-two bucket bounds from 1 µs to ~33 s plus an overflow
    bucket: recording is one :func:`bisect.bisect_left` and an
    increment, so it is cheap enough for every response, and the fixed
    shape means percentile queries never allocate.  Percentiles
    interpolate linearly inside the winning bucket (the overflow
    bucket reports the observed maximum).
    """

    #: upper bounds (inclusive) of the finite buckets, in microseconds
    BOUNDS: tuple[float, ...] = tuple(float(1 << k) for k in range(26))

    __slots__ = ("counts", "count", "total_us", "max_us")

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total_us = 0.0
        self.max_us = 0.0

    def record(self, us: float) -> None:
        self.counts[bisect_left(self.BOUNDS, us)] += 1
        self.count += 1
        self.total_us += us
        if us > self.max_us:
            self.max_us = us

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile latency in microseconds."""
        if not self.count:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                low = self.BOUNDS[index - 1] if index else 0.0
                high = (
                    self.BOUNDS[index]
                    if index < len(self.BOUNDS)
                    else self.max_us
                )
                return low + (high - low) * (rank - cumulative) / bucket_count
            cumulative += bucket_count
        return self.max_us

    def as_dict(self) -> dict:
        """Count, mean/max, p50/p99, and the non-empty buckets as
        ``[upper_bound_us_or_null, count]`` pairs (null = overflow)."""
        buckets = [
            [self.BOUNDS[i] if i < len(self.BOUNDS) else None, c]
            for i, c in enumerate(self.counts)
            if c
        ]
        return {
            "count": self.count,
            "mean_us": self.mean_us,
            "max_us": self.max_us,
            "p50_us": self.percentile(50.0),
            "p99_us": self.percentile(99.0),
            "buckets": buckets,
        }


@dataclass
class ServerStats:
    """Counters for one socket server's lifetime."""

    #: connections accepted / fully closed
    connections_opened: int = 0
    connections_closed: int = 0
    #: connections that negotiated the binary wire protocol
    binary_connections: int = 0
    #: request lines admitted (including ones that answer with errors)
    requests: int = 0
    #: responses written back to clients
    responses: int = 0
    #: responses that carried ``{"ok": false}`` (or an error frame)
    errors: int = 0
    #: query requests refused by admission control (RETRY_LATER)
    shed: int = 0
    #: responses dropped at drain because their client stopped reading
    dropped: int = 0
    #: failed authentication attempts (wrong token)
    auth_failures: int = 0
    #: requests admitted but not yet answered (live gauge) and its peak
    in_flight: int = 0
    peak_in_flight: int = 0
    #: request bytes admitted but not yet answered, and its peak —
    #: the byte-denominated twin of ``in_flight`` that ``shed_bytes``
    #: admission control watches
    inflight_bytes: int = 0
    peak_inflight_bytes: int = 0
    #: micro-batcher flushes, and what triggered each
    batches: int = 0
    flushes_size: int = 0
    flushes_drain: int = 0
    flushes_timer: int = 0
    #: queries resolved through the batcher (each binary record, as each
    #: JSON query), requests they came from, and the largest single
    #: flush (cross-client occupancy high-water)
    batched_queries: int = 0
    batched_requests: int = 0
    peak_batch_queries: int = 0
    #: admission-to-response latency of every answered request
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def connections_active(self) -> int:
        return self.connections_opened - self.connections_closed

    @property
    def mean_batch_queries(self) -> float:
        """Average flush occupancy (queries per grid-coalesced pass)."""
        return self.batched_queries / self.batches if self.batches else 0.0

    @property
    def p50_us(self) -> float:
        return self.latency.percentile(50.0)

    @property
    def p99_us(self) -> float:
        return self.latency.percentile(99.0)

    def as_dict(self) -> dict:
        return {
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "connections_active": self.connections_active,
            "binary_connections": self.binary_connections,
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "shed": self.shed,
            "dropped": self.dropped,
            "auth_failures": self.auth_failures,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "inflight_bytes": self.inflight_bytes,
            "peak_inflight_bytes": self.peak_inflight_bytes,
            "batches": self.batches,
            "flushes_size": self.flushes_size,
            "flushes_drain": self.flushes_drain,
            "flushes_timer": self.flushes_timer,
            "batched_queries": self.batched_queries,
            "batched_requests": self.batched_requests,
            "peak_batch_queries": self.peak_batch_queries,
            "mean_batch_queries": self.mean_batch_queries,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "latency": self.latency.as_dict(),
        }


class _MicroBatcher:
    """Coalesce concurrently pending queries into one grid pass.

    Submissions accumulate until one of three triggers flushes them all
    through a single :func:`resolve_queries` call:

    ``size``
        the pending pool reached ``max_batch`` queries;
    ``drain``
        the event loop reached the end of the turn in which the first
        pending query was admitted (``hold_s == 0``).  Admission is
        synchronous in each connection's read loop, so by then every
        connection with buffered input has contributed — concurrent
        load coalesces, and a lone serial request flushes immediately;
    ``timer``
        the opt-in ``hold_s > 0`` window expired: the batch was held
        across turns to gather more occupancy at a bounded latency
        cost.
    """

    def __init__(
        self,
        registry: OptimizerRegistry,
        stats: ServerStats,
        *,
        max_batch: int,
        hold_s: float,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if hold_s < 0:
            raise ValueError(f"hold window must be >= 0, got {hold_s}")
        self._registry = registry
        self._stats = stats
        self._max_batch = max_batch
        self._hold_s = hold_s
        self._pending: list[tuple[list[Cell], asyncio.Future]] = []
        self._pending_queries = 0
        self._scheduled: asyncio.TimerHandle | asyncio.Handle | None = None

    @property
    def pending_queries(self) -> int:
        """Queries admitted but not yet flushed, one per binary record
        or JSON query — the depth that ``shed_queries`` admission
        control watches."""
        return self._pending_queries

    def submit(self, cells: list[Cell]) -> "asyncio.Future[Answers]":
        """Queue one request's cells; the future resolves to their Answers."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((cells, future))
        self._pending_queries += len(cells)
        if self._pending_queries >= self._max_batch:
            self.flush("size")
        elif self._scheduled is None:
            if self._hold_s > 0:
                self._scheduled = loop.call_later(self._hold_s, self._flush_scheduled)
            else:
                self._scheduled = loop.call_soon(self._flush_scheduled)
        return future

    def _flush_scheduled(self) -> None:
        self._scheduled = None
        self.flush("drain" if self._hold_s == 0 else "timer")

    def flush(self, reason: str = "drain") -> None:
        """Resolve everything pending in one coalesced pass."""
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        n_queries, self._pending_queries = self._pending_queries, 0
        stats = self._stats
        stats.batches += 1
        stats.batched_queries += n_queries
        stats.batched_requests += len(pending)
        stats.peak_batch_queries = max(stats.peak_batch_queries, n_queries)
        setattr(stats, f"flushes_{reason}", getattr(stats, f"flushes_{reason}") + 1)
        flat = [cell for cells, _ in pending for cell in cells]
        try:
            # every cell passed admission: the core call, in submit order
            answers = resolve_queries(self._registry, flat, pre_normalized=True)
        except Exception as exc:  # pre-validated queries: only infrastructure
            # failures (e.g. a shard file going bad mid-serving) land here;
            # every waiter gets the error instead of the whole server dying
            for _, future in pending:
                if not future.done():
                    future.set_exception(
                        RuntimeError(f"batch resolution failed: {exc}")
                    )
            return
        offset = 0
        for cells, future in pending:
            end = offset + len(cells)
            if not future.done():
                future.set_result(answers.slice(offset, end))
            offset = end

class AsyncOptimizerServer:
    """Socket transport for one :class:`OptimizerRegistry`.

    Construct, then ``await start(address)``; ``await wait_closed()``
    blocks until a shutdown request, :meth:`aclose`, or a signal under
    :func:`run_server` drains the server.
    """

    def __init__(
        self,
        registry: OptimizerRegistry,
        config: ServerConfig | None = None,
        *,
        default_preset: Any = _UNSET,
        max_batch: Any = _UNSET,
        hold_us: Any = _UNSET,
        max_queries: Any = _UNSET,
        max_line_bytes: Any = _UNSET,
        max_pipeline: Any = _UNSET,
        drain_timeout: Any = _UNSET,
        auth_token: Any = _UNSET,
        shed_queries: Any = _UNSET,
        shed_bytes: Any = _UNSET,
    ) -> None:
        overrides = {
            name: value
            for name, value in (
                ("default_preset", default_preset),
                ("max_batch", max_batch),
                ("hold_us", hold_us),
                ("max_queries", max_queries),
                ("max_line_bytes", max_line_bytes),
                ("max_pipeline", max_pipeline),
                ("drain_timeout", drain_timeout),
                ("auth_token", auth_token),
                ("shed_queries", shed_queries),
                ("shed_bytes", shed_bytes),
            )
            if value is not _UNSET
        }
        if config is not None and overrides:
            raise ValueError(
                "pass either config=ServerConfig(...) or individual server "
                f"keywords, not both (got {sorted(overrides)})"
            )
        cfg = config if config is not None else ServerConfig(**overrides)
        self.registry = registry
        self.stats = ServerStats()
        #: the validated configuration this server runs under
        self.config = cfg
        self._default_preset = cfg.default_preset
        self._max_queries = cfg.max_queries
        self._max_line_bytes = cfg.max_line_bytes
        #: per-connection cap on admitted-but-unwritten responses: past
        #: it the read loop stops admitting, which stops reading, which
        #: pushes TCP backpressure onto a client that isn't reading —
        #: server memory stays bounded no matter how a client behaves
        self._max_pipeline = cfg.max_pipeline
        #: how long a drain waits for a connection's queued responses to
        #: reach a slow client before dropping them (shutdown must not
        #: hang on a client that stopped reading)
        self._drain_timeout = cfg.drain_timeout
        #: shared secret: binary HELLOs must carry it, JSON connections
        #: must send {"op": "auth", "token": ...} before anything else
        self._auth_token = cfg.auth_token
        #: admission-control high-water marks (None = shedding off):
        #: queries pending in the batcher / bytes admitted-but-unanswered
        self._shed_queries = cfg.shed_queries
        self._shed_bytes = cfg.shed_bytes
        self._batcher = _MicroBatcher(
            registry, self.stats, max_batch=cfg.max_batch, hold_s=cfg.hold_us / 1e6
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._bound: Address | None = None
        self._connections: set[asyncio.Task] = set()
        self._closing = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, address: str | Address) -> "AsyncOptimizerServer":
        """Bind and begin accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._loop = asyncio.get_running_loop()
        addr = parse_address(address)
        if addr.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=addr.path, limit=self._max_line_bytes
            )
            self._bound = addr
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, addr.host, addr.port,
                limit=self._max_line_bytes,
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self._bound = Address("tcp", host=host, port=int(port))
        return self

    @property
    def address(self) -> Address:
        """The actually bound endpoint (resolves an ephemeral port 0)."""
        if self._bound is None:
            raise RuntimeError("server is not started")
        return self._bound

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, stop reading, answer every
        admitted request, flush the batcher, close all connections."""
        if self._closing:
            await self._closed.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # interrupt each connection's read loop; its handler flushes the
        # responses already queued (bounded by drain_timeout per
        # connection for clients that stopped reading) before closing
        for task in list(self._connections):
            task.cancel()
        self._batcher.flush("drain")
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        # lines admitted while the read loops were being cancelled may
        # have queued new work — resolve it so no waiter leaks
        self._batcher.flush("drain")
        if self._bound is not None and self._bound.kind == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self._bound.path)
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _now(self) -> float:
        assert self._loop is not None
        return self._loop.time()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self.stats.connections_opened += 1
        responses: asyncio.Queue = asyncio.Queue()
        # the pipelining bound: acquired per admitted request, released
        # by the writer once the response is out (or dropped)
        window = asyncio.Semaphore(self._max_pipeline)
        writer_task = asyncio.create_task(
            self._write_responses(responses, writer, window)
        )
        try:
            # transport sniff: a binary session opens with the frame
            # magic; anything else — including a short line like "[]" —
            # is the JSON transport, with the sniffed bytes replayed
            prefix, eof = b"", False
            try:
                prefix = await reader.readexactly(len(WIRE_MAGIC))
            except asyncio.IncompleteReadError as short:
                prefix, eof = short.partial, True
            if prefix == WIRE_MAGIC:
                self.stats.binary_connections += 1
                await self._serve_binary(reader, responses, window)
            else:
                await self._serve_json(reader, prefix, eof, responses, window)
        except asyncio.CancelledError:
            pass  # drain: stop reading, fall through to flush the queue
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the client vanished; answer what we can, then close
        finally:
            responses.put_nowait(None)
            await self._drain_writer(writer_task, responses)
            writer.close()
            try:
                # close() flushes buffered data first — which never ends
                # when the peer stopped reading, so bound it and abort
                await asyncio.wait_for(writer.wait_closed(), self._drain_timeout)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                writer.transport.abort()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.stats.connections_closed += 1
            self._connections.discard(task)

    # ------------------------------------------------------------------
    # JSON-lines transport
    # ------------------------------------------------------------------
    async def _iter_lines(
        self, reader: asyncio.StreamReader, prefix: bytes, eof: bool
    ) -> AsyncIterator[bytes]:
        """The connection's request lines, replaying sniffed bytes."""
        while b"\n" in prefix:
            line, _, prefix = prefix.partition(b"\n")
            yield line + b"\n"
        if eof:
            if prefix:
                yield prefix  # final unterminated line
            return
        if prefix:
            yield prefix + await reader.readline()
        while True:
            line = await reader.readline()
            if not line:
                return
            yield line

    async def _serve_json(
        self,
        reader: asyncio.StreamReader,
        prefix: bytes,
        eof: bool,
        responses: asyncio.Queue,
        window: asyncio.Semaphore,
    ) -> None:
        authed = self._auth_token is None
        lines = self._iter_lines(reader, prefix, eof)
        while True:
            try:
                line = await anext(lines)
            except StopAsyncIteration:
                break
            except ValueError:
                # a line beyond the transport cap: answer in-band,
                # then close — framing past it is unknowable
                self._count_admitted()
                responses.put_nowait(("done", {
                    "ok": False,
                    "error": f"request line exceeds {self._max_line_bytes} bytes",
                }, self._now(), 0))
                break
            text = line.strip()
            if not text:
                continue
            # blocks only when the client is max_pipeline responses
            # behind — reading stops, and TCP pushes back
            await window.acquire()
            t0 = self._now()
            decoded = text.decode("utf-8", "replace")
            if not authed:
                authed, keep_open = self._admit_preauth(
                    decoded, responses.put_nowait, t0, len(line)
                )
                if not keep_open:
                    break
                continue
            # admission is synchronous: when every readable line has
            # been admitted the loop turn ends, and that is exactly
            # when the batcher's end-of-turn flush fires
            self._admit_line(decoded, responses.put_nowait, t0, len(line))

    def _admit_preauth(
        self,
        text: str,
        enqueue: Callable[[tuple], None],
        t0: float,
        nbytes: int,
    ) -> tuple[bool, bool]:
        """Answer one line on a connection that has not authenticated
        yet; returns ``(authed, keep_open)``.  Only ``{"op": "auth"}``
        can make progress — everything else is refused in-band (the
        connection survives, so a client can still discover the
        requirement), and a wrong token closes the session."""
        self._count_admitted(nbytes)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            enqueue(("done", {"ok": False, "error": f"invalid JSON: {exc}"}, t0, nbytes))
            return False, True
        request_id = obj.get("id") if isinstance(obj, dict) else None
        if isinstance(obj, dict) and obj.get("op") == "auth":
            if obj.get("token") == self._auth_token:
                doc: dict = {"ok": True, "op": "auth"}
                if request_id is not None:
                    doc["id"] = request_id
                enqueue(("done", doc, t0, nbytes))
                return True, True
            self.stats.auth_failures += 1
            enqueue(("done", error_response(
                ValueError("invalid auth token"), request_id
            ), t0, nbytes))
            return False, False
        enqueue(("done", error_response(
            ValueError(
                'authentication required: send {"op": "auth", "token": ...} first'
            ),
            request_id,
        ), t0, nbytes))
        return False, True

    # ------------------------------------------------------------------
    # binary transport
    # ------------------------------------------------------------------
    async def _serve_binary(
        self,
        reader: asyncio.StreamReader,
        responses: asyncio.Queue,
        window: asyncio.Semaphore,
    ) -> None:
        enqueue = responses.put_nowait
        catalog = list(self.registry.preset_names)
        hello_done = False
        first = WIRE_MAGIC  # the sniff consumed the first frame's magic
        while True:
            try:
                version, opcode, payload = await wire.read_frame(
                    reader, first=first, max_payload=self._max_line_bytes
                )
            except asyncio.IncompleteReadError as short:
                if short.partial or first:
                    # mid-header cut: answer in-band, then close
                    self._count_admitted()
                    enqueue(("frame", error_frame(
                        "connection closed mid-frame (truncated header)"
                    ), True, self._now(), 0))
                break  # clean EOF at a frame boundary
            except WireError as exc:
                # bad magic / oversized length / truncated payload:
                # framing is lost — answer in-band, then close
                self._count_admitted()
                enqueue(("frame", error_frame(str(exc)), True, self._now(), 0))
                break
            first = b""
            await window.acquire()
            t0 = self._now()
            nbytes = wire.HEADER_BYTES + len(payload)
            self._count_admitted(nbytes)
            if opcode == OP_HELLO:
                if version != WIRE_VERSION:
                    enqueue(("frame", error_frame(
                        f"unsupported wire version {version} "
                        f"(server speaks {WIRE_VERSION})"
                    ), True, t0, nbytes))
                    continue  # the client may retry with a supported HELLO
                try:
                    token = wire.parse_hello(payload)
                except WireError as exc:
                    enqueue(("frame", error_frame(str(exc)), True, t0, nbytes))
                    continue
                if self._auth_token is not None and token != self._auth_token:
                    self.stats.auth_failures += 1
                    enqueue(("frame", error_frame("invalid auth token"), True, t0, nbytes))
                    break
                hello_done = True
                enqueue(("frame", pack_frame(OP_HELLO_OK, wire.hello_ok_payload(
                    catalog, self._default_preset, self._max_queries
                )), False, t0, nbytes))
                continue
            if not hello_done:
                enqueue(("frame", error_frame(
                    f"expected a HELLO frame before opcode {opcode}"
                ), True, t0, nbytes))
                continue
            if opcode != OP_QUERY:
                enqueue(("frame", error_frame(
                    f"unknown opcode {opcode}; clients send HELLO and QUERY"
                ), True, t0, nbytes))
                continue
            self._admit_query_frame(payload, catalog, enqueue, t0, nbytes)

    def _admit_query_frame(
        self,
        payload: bytes,
        catalog: list[str],
        enqueue: Callable[[tuple], None],
        t0: float,
        nbytes: int,
    ) -> None:
        """Admit one ``OP_QUERY`` frame: decode, shed-check, validate
        into one cell per record in wire order, and enter the shared
        micro-batch, where the resolver coalesces repeats."""
        try:
            records = wire.decode_query_payload(payload)
        except WireError as exc:
            enqueue(("frame", error_frame(str(exc)), True, t0, nbytes))
            return
        if len(records) > self._max_queries:
            enqueue(("frame", error_frame(
                f"batch of {len(records)} queries exceeds the per-request "
                f"limit of {self._max_queries}"
            ), True, t0, nbytes))
            return
        shed = self._shed_reason()
        if shed is not None:
            self.stats.shed += 1
            enqueue(("frame", error_frame(
                f"server overloaded: {shed}; retry later", retry=True
            ), True, t0, nbytes))
            return
        try:
            cells = queries_from_arrays(catalog, records)
        except (TypeError, ValueError, OverflowError) as exc:
            enqueue(("frame", error_frame(str(exc)), True, t0, nbytes))
            return
        except Exception as exc:  # noqa: BLE001 — see _admit_line
            enqueue(("frame", error_frame(
                f"internal server error: {exc}"
            ), True, t0, nbytes))
            return
        enqueue(("bquery", self._batcher.submit(cells), t0, nbytes))

    # ------------------------------------------------------------------
    # shared admission plumbing
    # ------------------------------------------------------------------
    async def _drain_writer(
        self, writer_task: asyncio.Task, responses: asyncio.Queue
    ) -> None:
        """Give already-admitted responses up to ``drain_timeout`` to
        reach the client, tolerating the drain cancellation itself —
        then drop the remainder: a client that stopped reading must
        never wedge shutdown."""
        cancels = 0
        while not writer_task.done():
            try:
                await asyncio.wait_for(
                    asyncio.shield(writer_task), self._drain_timeout
                )
            except asyncio.TimeoutError:
                writer_task.cancel()  # stalled client: drop the rest
                break
            except asyncio.CancelledError:
                # first cancel is aclose() interrupting the wait — keep
                # draining; repeats mean event-loop rundown: stop
                cancels += 1
                if cancels >= 2:
                    writer_task.cancel()
                    break
            except Exception:
                break
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await writer_task
        # whatever never reached the writer still counts as answered for
        # the in-flight gauge
        while True:
            try:
                item = responses.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                self.stats.in_flight -= 1
                self.stats.inflight_bytes -= item[-1]
                self.stats.dropped += 1

    def _count_admitted(self, nbytes: int = 0) -> None:
        stats = self.stats
        stats.requests += 1
        stats.in_flight += 1
        stats.peak_in_flight = max(stats.peak_in_flight, stats.in_flight)
        stats.inflight_bytes += nbytes
        stats.peak_inflight_bytes = max(
            stats.peak_inflight_bytes, stats.inflight_bytes
        )

    def _shed_reason(self) -> str | None:
        """The admission-control verdict for one query request —
        ``None`` admits; a reason string sheds with RETRY_LATER."""
        if (
            self._shed_queries is not None
            and self._batcher.pending_queries >= self._shed_queries
        ):
            return (
                f"batcher depth {self._batcher.pending_queries} at the "
                f"high-water mark of {self._shed_queries} queries"
            )
        if (
            self._shed_bytes is not None
            and self.stats.inflight_bytes >= self._shed_bytes
        ):
            return (
                f"{self.stats.inflight_bytes} request bytes in flight at the "
                f"high-water mark of {self._shed_bytes}"
            )
        return None

    def _admit_line(
        self,
        text: str,
        enqueue: Callable[[tuple], None],
        t0: float,
        nbytes: int = 0,
    ) -> None:
        """Admit one request line without yielding: immediate responses
        enqueue as ``("done", doc, t0, nbytes)``, query requests enter
        the shared micro-batch and enqueue as
        ``("query", kind, id, tags, future, t0, nbytes)``."""
        self._count_admitted(nbytes)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            enqueue(("done", {"ok": False, "error": f"invalid JSON: {exc}"}, t0, nbytes))
            return
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            if isinstance(obj, dict) and obj.get("op") == "shutdown":
                enqueue(("done", self._handle_shutdown(request_id), t0, nbytes))
                return
            if isinstance(obj, dict) and obj.get("op") == "auth":
                # no auth is configured (or it already succeeded) — the
                # op acknowledges idempotently, like shutdown it is a
                # socket-transport op the stdio loop never sees
                doc: dict = {"ok": True, "op": "auth"}
                if request_id is not None:
                    doc["id"] = request_id
                enqueue(("done", doc, t0, nbytes))
                return
            if isinstance(obj, (list, dict)) and not (
                isinstance(obj, dict) and "op" in obj
            ):
                shed = self._shed_reason()
                if shed is not None:
                    self.stats.shed += 1
                    enqueue(("done", overload_response(shed, request_id), t0, nbytes))
                    return
            extracted = extract_queries(
                obj,
                default_preset=self._default_preset,
                max_queries=self._max_queries,
            )
            if extracted is None:
                response = handle_op(obj, self.registry)
                if obj.get("op") == "stats":
                    # the socket transport reports itself alongside the
                    # registry (stdio responses are unchanged)
                    response["server"] = self.stats.as_dict()
                if request_id is not None:
                    response["id"] = request_id
                enqueue(("done", response, t0, nbytes))
                return
            kind, cells, tags = extracted
            # range-check *before* entering the shared batch: one
            # client's bad query must never poison a flush that carries
            # other clients' requests
            check_cells(cells, self.registry)
        except (TypeError, ValueError, OverflowError) as exc:
            enqueue(("done", error_response(exc, request_id), t0, nbytes))
            return
        except Exception as exc:  # noqa: BLE001 — a multi-client server
            # answers in-band and keeps serving rather than dying
            enqueue(("done", self._internal_error(exc, request_id), t0, nbytes))
            return
        enqueue(("query", kind, request_id, tags, self._batcher.submit(cells), t0, nbytes))

    @staticmethod
    def _internal_error(exc: BaseException, request_id: object | None) -> dict:
        response: dict = {"ok": False, "error": f"internal server error: {exc}"}
        if request_id is not None:
            response["id"] = request_id
        return response

    def _handle_shutdown(self, request_id: object | None) -> dict:
        """Acknowledge, then drain in the background.  The ack is queued
        before the drain cancels the reader, so it is always written."""
        asyncio.get_running_loop().create_task(self.aclose())
        response: dict = {"ok": True, "op": "shutdown", "draining": True}
        if request_id is not None:
            response["id"] = request_id
        return response

    async def _write_responses(
        self,
        responses: asyncio.Queue,
        writer: asyncio.StreamWriter,
        window: asyncio.Semaphore,
    ) -> None:
        """Consume the admission queue in FIFO order — resolving query
        futures as they come up — and write each response.  Both
        transports meet here: JSON items encode to a line, binary items
        to a frame, and every settled item records its latency."""
        broken = False
        while True:
            item = await responses.get()
            if item is None:
                return
            tag = item[0]
            t0, nbytes = item[-2], item[-1]
            is_error = False
            if tag == "done":
                doc = item[1]
                is_error = not doc.get("ok", True)
                out = json.dumps(doc).encode() + b"\n"
            elif tag == "query":
                _, kind, request_id, tags, future, _, _ = item
                try:
                    out = build_response(kind, await future, tags, request_id)
                except Exception as exc:  # noqa: BLE001 — see _admit_line
                    out = json.dumps(self._internal_error(exc, request_id)).encode() + b"\n"
                    is_error = True
            elif tag == "frame":
                out, is_error = item[1], item[2]
            else:  # "bquery": a binary frame's answer columns
                try:
                    out = pack_frame(OP_RESULT, wire.encode_results(await item[1]))
                except Exception as exc:  # noqa: BLE001 — see _admit_line
                    out = error_frame(f"internal server error: {exc}")
                    is_error = True
            stats = self.stats
            stats.in_flight -= 1
            stats.inflight_bytes -= nbytes
            stats.latency.record((self._now() - t0) * 1e6)
            window.release()
            if is_error:
                stats.errors += 1
            if broken:
                continue  # keep consuming so in-flight accounting drains
            try:
                writer.write(out)
                await writer.drain()
                stats.responses += 1
            except (ConnectionResetError, BrokenPipeError, OSError):
                broken = True


def run_server(
    registry: OptimizerRegistry,
    address: str | Address,
    *,
    config: ServerConfig | None = None,
    default_preset: str | None = None,
    max_batch: int = 64,
    hold_us: float = 0.0,
    max_queries: int = MAX_BATCH_QUERIES,
    auth_token: str | None = None,
    shed_queries: int | None = None,
    shed_bytes: int | None = None,
    install_signal_handlers: bool = True,
    ready: Callable[[AsyncOptimizerServer], None] | None = None,
) -> ServerStats:
    """Serve until shutdown (request, signal, or KeyboardInterrupt);
    returns the transport stats.  The blocking entry behind
    ``repro serve --socket``; ``ready`` fires once the socket is bound.
    A ``config`` (:class:`~repro.service.config.ServerConfig`) carries
    every tunable at once and takes precedence over the loose keywords.
    """
    cfg = config if config is not None else ServerConfig(
        default_preset=default_preset,
        max_batch=max_batch,
        hold_us=hold_us,
        max_queries=max_queries,
        auth_token=auth_token,
        shed_queries=shed_queries,
        shed_bytes=shed_bytes,
    )

    async def _main() -> ServerStats:
        server = AsyncOptimizerServer(registry, cfg)
        await server.start(address)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(server.aclose())
                    )
        if ready is not None:
            ready(server)
        await server.wait_closed()
        return server.stats

    return asyncio.run(_main())
