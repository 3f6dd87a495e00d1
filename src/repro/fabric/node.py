"""One fabric node: a serving registry plus its coordinator liaison.

:class:`FabricNode` wraps an ordinary
:class:`~repro.service.async_server.AsyncOptimizerServer` (the data
plane is untouched — clients query the node exactly like a standalone
server) and adds the control loop that makes it a cluster member: it
JOINs the coordinator over one long-lived connection, heartbeats at
the cadence the JOIN_OK dictated (carrying a compact stats snapshot —
shed count, p99, live connections), re-joins with capped exponential
backoff when the coordinator is unreachable, and drains itself when a
heartbeat answer carries ``{"drain": true}`` (``repro cluster drain``).

Node identity defaults to the advertised serving address, which is
also what the routing table hands to clients; pass ``node_id`` to name
nodes independently of where they listen.

:func:`run_node` is the blocking entry behind ``repro cluster join``
— it consumes the same :class:`~repro.service.config.ServerConfig` as
``repro serve``, verbatim.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
from typing import Callable

from repro.service import wire as wire_proto
from repro.service.async_server import AsyncOptimizerServer, ServerStats
from repro.service.client import Address, parse_address
from repro.service.config import ServerConfig
from repro.service.registry import OptimizerRegistry

__all__ = ["FabricNode", "run_node"]

_log = logging.getLogger("repro.fabric")


def _backoff_s(attempt: int, *, base: float, cap: float) -> float:
    """Deterministic capped exponential backoff (no jitter: retries
    here are one node against one coordinator, not a thundering herd)."""
    return min(cap, base * (2.0 ** attempt))


class FabricNode:
    """A cluster member: one optimizer server + its control loop."""

    def __init__(
        self,
        registry: OptimizerRegistry,
        coordinator: str | Address,
        *,
        config: ServerConfig | None = None,
        node_id: str | None = None,
        advertise: str | None = None,
        retry_base_s: float = 0.25,
        retry_max_s: float = 5.0,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else ServerConfig()
        self.server = AsyncOptimizerServer(registry, self.config)
        self._coordinator = parse_address(coordinator)
        self._node_id = node_id
        self._advertise = advertise
        self._retry_base_s = retry_base_s
        self._retry_max_s = retry_max_s
        self._control: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, listen: str | Address) -> "FabricNode":
        """Bind the data plane, then start joining the coordinator."""
        self._loop = asyncio.get_running_loop()
        await self.server.start(listen)
        if self._advertise is None:
            self._advertise = str(self.server.address)
        if self._node_id is None:
            self._node_id = self._advertise
        self._control = self._loop.create_task(self._control_loop())
        return self

    @property
    def node_id(self) -> str:
        if self._node_id is None:
            raise RuntimeError("node is not started")
        return self._node_id

    @property
    def address(self) -> Address:
        return self.server.address

    @property
    def stats(self) -> ServerStats:
        return self.server.stats

    async def aclose(self) -> None:
        self._closing = True
        if self._control is not None:
            self._control.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._control
        await self.server.aclose()

    async def wait_closed(self) -> None:
        await self.server.wait_closed()

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _join_doc(self) -> dict:
        return {
            "node": self._node_id,
            "address": self._advertise,
            "presets": list(self.registry.preset_names),
            "default_preset": self.config.default_preset,
            "stats": self._stats_doc(),
        }

    def _stats_doc(self) -> dict:
        stats = self.server.stats
        return {
            "requests": stats.requests,
            "responses": stats.responses,
            "shed": stats.shed,
            "errors": stats.errors,
            "connections_active": stats.connections_active,
            "in_flight": stats.in_flight,
            "p50_us": stats.p50_us,
            "p99_us": stats.p99_us,
        }

    async def _open_control(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._coordinator.kind == "unix":
            return await asyncio.open_unix_connection(self._coordinator.path)
        return await asyncio.open_connection(
            self._coordinator.host, self._coordinator.port
        )

    async def _control_loop(self) -> None:
        """Join, heartbeat, re-join on loss, drain on request."""
        attempt = 0
        while not self._closing:
            writer: asyncio.StreamWriter | None = None
            try:
                reader, writer = await self._open_control()
                writer.write(wire_proto.pack_frame(
                    wire_proto.OP_JOIN, wire_proto.fabric_payload(self._join_doc())
                ))
                await writer.drain()
                _, opcode, payload = await wire_proto.read_frame(reader)
                if opcode != wire_proto.OP_JOIN_OK:
                    raise wire_proto.WireError(
                        f"JOIN answered with opcode {opcode}: "
                        f"{payload.decode('utf-8', 'replace')!r}"
                    )
                welcome = wire_proto.parse_fabric_payload(payload)
                heartbeat_s = float(welcome.get("heartbeat_s", 2.0))
                attempt = 0
                _log.info(
                    "node %s joined coordinator %s (epoch %s)",
                    self._node_id, self._coordinator, welcome.get("epoch"),
                )
                if await self._heartbeat_loop(reader, writer, heartbeat_s):
                    return  # drain requested; shutdown already scheduled
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    wire_proto.WireError) as exc:
                delay = _backoff_s(
                    attempt, base=self._retry_base_s, cap=self._retry_max_s
                )
                attempt += 1
                _log.warning(
                    "coordinator %s unreachable (%s) — retry %d in %.2fs",
                    self._coordinator, exc, attempt, delay,
                )
                await asyncio.sleep(delay)
            finally:
                if writer is not None:
                    writer.close()
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.wait_closed()

    async def _heartbeat_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        heartbeat_s: float,
    ) -> bool:
        """Heartbeat until the connection breaks (False — the caller
        re-joins) or the coordinator asks for a drain (True)."""
        while not self._closing:
            await asyncio.sleep(heartbeat_s)
            writer.write(wire_proto.pack_frame(
                wire_proto.OP_HEARTBEAT,
                wire_proto.fabric_payload(
                    {"node": self._node_id, "stats": self._stats_doc()}
                ),
            ))
            await writer.drain()
            _, opcode, payload = await wire_proto.read_frame(reader)
            if opcode != wire_proto.OP_HEARTBEAT_OK:
                # unknown-node answer after a coordinator restart: the
                # caller tears this connection down and re-joins
                raise wire_proto.WireError(
                    f"heartbeat answered with opcode {opcode}: "
                    f"{payload.decode('utf-8', 'replace')!r}"
                )
            answer = wire_proto.parse_fabric_payload(payload)
            if answer.get("drain"):
                _log.info("node %s draining on coordinator request", self._node_id)
                assert self._loop is not None
                self._closing = True
                self._loop.create_task(self.aclose())
                return True
        return False


def run_node(
    registry: OptimizerRegistry,
    coordinator: str | Address,
    listen: str | Address,
    *,
    config: ServerConfig | None = None,
    node_id: str | None = None,
    advertise: str | None = None,
    install_signal_handlers: bool = True,
    ready: Callable[[FabricNode], None] | None = None,
) -> ServerStats:
    """Serve as a cluster member until drained or signalled; returns
    the data-plane stats.  The blocking entry behind
    ``repro cluster join``."""

    async def _main() -> ServerStats:
        node = FabricNode(
            registry,
            coordinator,
            config=config,
            node_id=node_id,
            advertise=advertise,
        )
        await node.start(listen)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(node.aclose())
                    )
        if ready is not None:
            ready(node)
        await node.wait_closed()
        return node.stats

    return asyncio.run(_main())
