"""The fabric coordinator: registration, liveness, routing, admin.

A NameNode-style control-plane server (asyncio, one task per
connection) speaking the fabric opcodes of :mod:`repro.service.wire`
over the same length-prefixed framing as the data plane.  Nodes hold
one long-lived registration connection each (``OP_JOIN`` then periodic
``OP_HEARTBEAT``); clients and the CLI open short connections for
``OP_ROUTES`` / ``OP_STATUS`` / ``OP_DRAIN``.

All cluster state lives in :class:`~repro.fabric.membership.Membership`
(pure, fake-clock-testable); the coordinator adds the I/O shell:

- a JOIN binds the connection to its node, so the connection dropping
  reports the node's death (or clean exit, when draining) immediately
  — faster than waiting out the miss-K window;
- a background sweeper enforces miss-K ⇒ dead for nodes whose
  connection is technically open but silent;
- ROUTES answers are epoch-conditional: a client that already holds
  the current epoch gets a tiny ``{"unchanged": true}`` instead of the
  full table.

:func:`run_coordinator` is the blocking entry behind
``repro cluster coordinator``.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import signal
from typing import Callable

from repro.service import wire as wire_proto
from repro.service.client import Address, parse_address
from repro.fabric.membership import Membership

__all__ = ["Coordinator", "run_coordinator"]

_log = logging.getLogger("repro.fabric")


class Coordinator:
    """Control-plane server for one optimizer cluster."""

    def __init__(
        self,
        *,
        replication: int = 2,
        heartbeat_s: float = 2.0,
        miss_limit: int = 3,
    ) -> None:
        self._heartbeat_s = heartbeat_s
        self._miss_limit = miss_limit
        self._replication = replication
        self._loop: asyncio.AbstractEventLoop | None = None
        self.membership: Membership | None = None
        self._server: asyncio.base_events.Server | None = None
        self._bound: Address | None = None
        self._connections: set[asyncio.Task] = set()
        self._sweeper: asyncio.Task | None = None
        self._closing = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, address: str | Address) -> "Coordinator":
        if self._server is not None:
            raise RuntimeError("coordinator is already started")
        self._loop = asyncio.get_running_loop()
        self.membership = Membership(
            replication=self._replication,
            heartbeat_s=self._heartbeat_s,
            miss_limit=self._miss_limit,
            now=self._loop.time,
        )
        addr = parse_address(address)
        if addr.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=addr.path
            )
            self._bound = addr
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, addr.host, addr.port
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self._bound = Address("tcp", host=host, port=int(port))
        self._sweeper = self._loop.create_task(self._sweep_loop())
        return self

    @property
    def address(self) -> Address:
        if self._bound is None:
            raise RuntimeError("coordinator is not started")
        return self._bound

    async def aclose(self) -> None:
        if self._closing:
            await self._closed.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        if self._bound is not None and self._bound.kind == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self._bound.path)
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # ------------------------------------------------------------------
    # liveness sweeper
    # ------------------------------------------------------------------
    async def _sweep_loop(self) -> None:
        membership = self.membership
        assert membership is not None
        while True:
            await asyncio.sleep(self._heartbeat_s)
            for node_id in membership.sweep():
                _log.warning(
                    "node %s missed %d heartbeats — marked dead (epoch %d)",
                    node_id, self._miss_limit, membership.epoch,
                )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        joined_node: str | None = None
        membership = self.membership
        assert membership is not None
        try:
            while True:
                try:
                    _, opcode, payload = await wire_proto.read_frame(reader)
                except asyncio.IncompleteReadError as eof:
                    if eof.partial:
                        _log.debug("connection cut mid-header")
                    break
                except wire_proto.WireError as exc:
                    writer.write(wire_proto.error_frame(str(exc)))
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.drain()
                    break
                try:
                    response, joined = self._dispatch(opcode, payload, joined_node)
                except wire_proto.WireError as exc:
                    response = wire_proto.error_frame(str(exc))
                    joined = joined_node
                joined_node = joined
                writer.write(response)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(task)
            if joined_node is not None and not self._closing:
                membership.connection_lost(joined_node)
                info = membership.get(joined_node)
                _log.info(
                    "node %s connection closed — %s (epoch %d)",
                    joined_node,
                    info.state if info else "gone",
                    membership.epoch,
                )
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    def _dispatch(
        self, opcode: int, payload: bytes, joined_node: str | None
    ) -> tuple[bytes, str | None]:
        """One control frame in, one answer frame out; returns the
        (possibly updated) node id bound to this connection."""
        membership = self.membership
        assert membership is not None
        if opcode == wire_proto.OP_JOIN:
            doc = wire_proto.parse_fabric_payload(payload)
            node_id = str(doc.get("node") or "")
            address = str(doc.get("address") or "")
            try:
                membership.join(
                    node_id,
                    address,
                    presets=[str(p) for p in doc.get("presets", [])],
                    default_preset=doc.get("default_preset"),
                    stats=doc.get("stats") if isinstance(doc.get("stats"), dict) else None,
                )
            except ValueError as exc:
                raise wire_proto.WireError(f"bad JOIN: {exc}") from None
            _log.info(
                "node %s joined at %s (epoch %d)",
                node_id, address, membership.epoch,
            )
            answer = wire_proto.fabric_payload({
                "epoch": membership.epoch,
                "heartbeat_s": membership.heartbeat_s,
                "miss_limit": membership.miss_limit,
            })
            return wire_proto.pack_frame(wire_proto.OP_JOIN_OK, answer), node_id
        if opcode == wire_proto.OP_HEARTBEAT:
            doc = wire_proto.parse_fabric_payload(payload)
            node_id = str(doc.get("node") or "") or (joined_node or "")
            stats = doc.get("stats")
            try:
                info = membership.heartbeat(
                    node_id, stats if isinstance(stats, dict) else None
                )
            except KeyError:
                raise wire_proto.WireError(
                    f"unknown node {node_id!r}: re-join required"
                ) from None
            answer = wire_proto.fabric_payload({
                "epoch": membership.epoch,
                "drain": info.state == "draining",
            })
            return wire_proto.pack_frame(wire_proto.OP_HEARTBEAT_OK, answer), joined_node
        if opcode == wire_proto.OP_ROUTES:
            doc = wire_proto.parse_fabric_payload(payload) if payload else {}
            known = int(doc.get("epoch", -1))
            if known == membership.epoch:
                answer = wire_proto.fabric_payload(
                    {"unchanged": True, "epoch": membership.epoch}
                )
            else:
                answer = wire_proto.fabric_payload(membership.routing_table().as_dict())
            return wire_proto.pack_frame(wire_proto.OP_ROUTES_OK, answer), joined_node
        if opcode == wire_proto.OP_STATUS:
            answer = wire_proto.fabric_payload(membership.status())
            return wire_proto.pack_frame(wire_proto.OP_STATUS_OK, answer), joined_node
        if opcode == wire_proto.OP_DRAIN:
            doc = wire_proto.parse_fabric_payload(payload)
            node_id = str(doc.get("node") or "")
            try:
                info = membership.drain(node_id)
            except KeyError:
                raise wire_proto.WireError(f"unknown node {node_id!r}") from None
            _log.info("drain requested for node %s (epoch %d)", node_id, membership.epoch)
            answer = wire_proto.fabric_payload({
                "epoch": membership.epoch,
                "node": node_id,
                "state": info.state,
            })
            return wire_proto.pack_frame(wire_proto.OP_DRAIN_OK, answer), joined_node
        raise wire_proto.WireError(f"unexpected control opcode {opcode}")


def run_coordinator(
    address: str | Address,
    *,
    replication: int = 2,
    heartbeat_s: float = 2.0,
    miss_limit: int = 3,
    install_signal_handlers: bool = True,
    ready: Callable[[Coordinator], None] | None = None,
) -> dict:
    """Serve the control plane until a signal; returns the final
    membership status document.  The blocking entry behind
    ``repro cluster coordinator``."""

    async def _main() -> dict:
        coordinator = Coordinator(
            replication=replication,
            heartbeat_s=heartbeat_s,
            miss_limit=miss_limit,
        )
        await coordinator.start(address)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(coordinator.aclose())
                    )
        if ready is not None:
            ready(coordinator)
        await coordinator.wait_closed()
        assert coordinator.membership is not None
        return coordinator.membership.status()

    return asyncio.run(_main())
