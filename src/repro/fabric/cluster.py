"""Cluster-aware clients: route, fan out, fail over, retry.

:class:`ClusterClient` (blocking) and :class:`AsyncClusterClient`
(asyncio) present the exact same surface as a single-server client —
``query`` / ``query_many`` / ``stats`` / ``presets`` / ``close``, the
:class:`~repro.service.api.OptimizerClient` protocol — but behind it
they hold one data-plane connection per node and route every query by
its (preset, d) shard key through the coordinator's cached
:class:`~repro.fabric.routing.RoutingTable`:

- ``query_many`` groups the queries by target node and pipelines each
  group over that node's connection (the single-server client's
  pipelining, unchanged), reassembling answers into request order;
- a node that drops, refuses, stalls past ``timeout``, or answers
  ``RETRY_LATER`` (shedding) fails only its group: those queries retry
  on the *next replica* in their key's failover order, after a capped
  exponential backoff and a forced routing-table refresh — node loss
  is a normal, retried event;
- group submission is all-or-nothing: answers are committed by query
  index only when a group's full response pipeline arrived, so a
  connection cut mid-pipeline re-runs the whole group on a replica —
  callers see exactly one answer per query, never duplicates or holes;
- the routing table refreshes epoch-conditionally (``OP_ROUTES`` with
  the cached epoch; the coordinator answers ``{"unchanged": true}``
  when nothing moved).

The route/commit/retry loop is written once, in :class:`_ClusterCore`,
as a flow in the style of :mod:`repro.service.client`: a generator
that yields three steps — ``("sleep", s)``, ``("refresh",)`` (a forced
route refresh, answered with the fresh table) and ``("group", address,
docs, frame_queries)`` (answered with the node's answers, or ``None``
when the node failed).  The two clients are its blocking and asyncio
drivers; node connections are :class:`~repro.service.client.ServerClient`
/ :class:`~repro.service.client.AsyncServerClient`, and each
coordinator round trip is one flow run on the same drivers.

Routing tables come from a pluggable source: :class:`CoordinatorRoutes`
asks a live coordinator, :class:`StaticRoutes` pins a table (tests
script membership changes without a coordinator).  The module-level
:func:`fetch_status` / :func:`request_drain` helpers back
``repro cluster status`` / ``repro cluster drain``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.fabric.routing import RoutingTable
from repro.service import wire as wire_proto
from repro.service.client import (
    _READ_FRAME,
    Address,
    AsyncServerClient,
    ServerClient,
    ServiceError,
    parse_address,
    _adrive,
    _check_frame_queries,
    _checked,
    _drive,
    _Flow,
    _query_request,
)

__all__ = [
    "AsyncClusterClient",
    "ClusterClient",
    "CoordinatorRoutes",
    "RetryPolicy",
    "RouteError",
    "StaticRoutes",
    "fetch_routes",
    "fetch_status",
    "request_drain",
]


class RouteError(RuntimeError):
    """The cluster could not answer: no routable node, a coordinator
    error, or every replica of some key failed past the retry budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff across replica failover attempts.

    Deterministic by design (no jitter): the project's unseeded-rand
    rule bans ambient randomness, and a single client retrying against
    a handful of replicas gains nothing from desynchronization.
    """

    attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"need 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )

    def delay_s(self, failure: int) -> float:
        """Seconds to back off after the ``failure``-th failed attempt."""
        return min(self.max_delay_s, self.base_delay_s * (2.0 ** failure))


# ----------------------------------------------------------------------
# control-plane round trips: one flow each, on either driver
# ----------------------------------------------------------------------
def _control_flow(opcode: int, doc: dict, expect: int) -> _Flow:
    yield wire_proto.pack_frame(opcode, wire_proto.fabric_payload(doc))
    answer_op, payload = yield _READ_FRAME
    if answer_op == wire_proto.OP_ERROR:
        raise RouteError(payload.decode("utf-8", "replace"))
    if answer_op != expect:
        raise RouteError(f"coordinator answered opcode {answer_op}, expected {expect}")
    return wire_proto.parse_fabric_payload(payload)


def _routes_flow(known_epoch: int | None) -> _Flow:
    doc = yield from _control_flow(
        wire_proto.OP_ROUTES,
        {"epoch": -1 if known_epoch is None else known_epoch},
        wire_proto.OP_ROUTES_OK,
    )
    return None if doc.get("unchanged") else RoutingTable.from_dict(doc)


def _status_flow() -> _Flow:
    return _control_flow(wire_proto.OP_STATUS, {}, wire_proto.OP_STATUS_OK)


def _control_request(
    address: str | Address, flow: _Flow, *, timeout: float | None
) -> Any:
    """One blocking control-plane round trip against the coordinator (a
    JSON-wire client without a token sends nothing at connect, so the
    coordinator sees only the flow's frame)."""
    with ServerClient(address, timeout=timeout) as conn:
        return conn._run(flow)


async def _control_request_async(
    address: str | Address, flow: _Flow, *, timeout: float | None
) -> Any:
    async with await AsyncServerClient.connect(address, timeout=timeout) as conn:
        return await conn._run(flow)


def fetch_routes(
    coordinator: str | Address, *, known_epoch: int | None = None,
    timeout: float | None = 10.0,
) -> RoutingTable | None:
    """The coordinator's routing table, or ``None`` when ``known_epoch``
    is still current."""
    return _control_request(coordinator, _routes_flow(known_epoch), timeout=timeout)


def fetch_status(
    coordinator: str | Address, *, timeout: float | None = 10.0
) -> dict:
    """The full membership document (``repro cluster status``)."""
    return _control_request(coordinator, _status_flow(), timeout=timeout)


def request_drain(
    coordinator: str | Address, node_id: str, *, timeout: float | None = 10.0
) -> dict:
    """Ask the coordinator to drain one node (``repro cluster drain``)."""
    return _control_request(
        coordinator,
        _control_flow(wire_proto.OP_DRAIN, {"node": node_id}, wire_proto.OP_DRAIN_OK),
        timeout=timeout,
    )


# ----------------------------------------------------------------------
# routing-table sources
# ----------------------------------------------------------------------
class CoordinatorRoutes:
    """Routing tables straight from a live coordinator."""

    def __init__(self, coordinator: str | Address, *, timeout: float | None = 10.0) -> None:
        self.coordinator = parse_address(coordinator)
        self.timeout = timeout

    def table(self, known_epoch: int | None = None) -> RoutingTable | None:
        return fetch_routes(
            self.coordinator, known_epoch=known_epoch, timeout=self.timeout
        )

    async def table_async(self, known_epoch: int | None = None) -> RoutingTable | None:
        return await _control_request_async(
            self.coordinator, _routes_flow(known_epoch), timeout=self.timeout
        )

    def status(self) -> dict:
        return fetch_status(self.coordinator, timeout=self.timeout)


class StaticRoutes:
    """A pinned routing table (tests script failover without a
    coordinator by swapping tables between attempts)."""

    def __init__(self, table: RoutingTable) -> None:
        self._table = table

    def set(self, table: RoutingTable) -> None:
        self._table = table

    def table(self, known_epoch: int | None = None) -> RoutingTable | None:
        if known_epoch is not None and known_epoch == self._table.epoch:
            return None
        return self._table

    async def table_async(self, known_epoch: int | None = None) -> RoutingTable | None:
        return self.table(known_epoch)

    def status(self) -> dict:
        return {
            "epoch": self._table.epoch,
            "replication": self._table.replication,
            "nodes": [
                {"node": node, "address": address, "state": "alive"}
                for node, address in self._table.nodes
            ],
        }


# ----------------------------------------------------------------------
# shared routing logic (pure: the loop below delegates here)
# ----------------------------------------------------------------------
def _route_groups(
    table: RoutingTable, docs: list[dict], pending: list[int], attempt: int
) -> tuple[dict[str, list[int]], list[int]]:
    """Group pending query indices by target address for this attempt.

    Attempt ``k`` routes each key to replica ``k % len(replicas)`` of
    its failover list, so consecutive retries walk the replica set.
    Returns ``(groups, unroutable)`` — keys with no replica at all
    (empty table, unknown preset) stay pending for a later refresh.
    """
    groups: dict[str, list[int]] = {}
    unroutable: list[int] = []
    for idx in pending:
        doc = docs[idx]
        preset = str(doc.get("preset") or table.default_preset or "")
        replicas = table.replicas_for(preset, int(doc.get("d", 0)))
        if not replicas:
            unroutable.append(idx)
            continue
        groups.setdefault(replicas[attempt % len(replicas)], []).append(idx)
    return groups, unroutable


def _commit_group(
    results: list[dict | None], idxs: list[int], answers: list[dict]
) -> list[int]:
    """Commit one group's answers by index; shed answers stay pending.
    The caller only reaches this when the *whole* pipeline arrived, so
    commitment is all-or-nothing per group."""
    still_pending: list[int] = []
    for idx, answer in zip(idxs, answers):
        if answer.get("retry"):
            still_pending.append(idx)
        else:
            results[idx] = answer
    return still_pending


_NODE_FAILURES = (ConnectionError, OSError, wire_proto.WireError, ServiceError)


class _ClusterCore:
    """The route/commit/retry loop both cluster clients drive (see the
    module docstring for its steps and semantics)."""

    def __init__(
        self,
        routes: CoordinatorRoutes | StaticRoutes,
        *,
        wire: str = "json",
        auth_token: str | None = None,
        timeout: float | None = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._routes = routes
        self._wire = wire
        self._auth_token = auth_token
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._table: RoutingTable | None = None
        self._conns: dict[str, Any] = {}

    def _known_epoch(self, force: bool) -> int | None:
        return None if force or self._table is None else self._table.epoch

    def _adopt(self, fresh: RoutingTable | None) -> RoutingTable:
        if fresh is not None:
            self._table = fresh
        assert self._table is not None
        return self._table

    def _table_flow(self) -> _Flow:
        if self._table is None:
            return (yield ("refresh",))
        return self._table

    def _query_flow(self, d: int, m: float, preset: str | None) -> _Flow:
        answers = yield from self._query_many_flow([(d, m)], preset, None)
        return _checked(answers[0])

    def _query_many_flow(
        self, queries: Iterable, preset: str | None, frame_queries: int | None
    ) -> _Flow:
        _check_frame_queries(self._wire, frame_queries)
        table = yield from self._table_flow()
        docs = [
            _query_request(q, preset if preset is not None else table.default_preset)
            for q in queries
        ]
        results: list[dict | None] = [None] * len(docs)
        pending = list(range(len(docs)))
        failures = 0
        for attempt in range(self._retry.attempts):
            if not pending:
                break
            if failures:
                yield ("sleep", self._retry.delay_s(failures - 1))
                table = yield ("refresh",)
            groups, pending = _route_groups(table, docs, pending, attempt)
            for address, idxs in groups.items():
                answers = yield ("group", address, [docs[i] for i in idxs], frame_queries)
                if answers is None:
                    pending.extend(idxs)
                else:
                    pending.extend(_commit_group(results, idxs, answers))
            if pending:
                failures += 1
        if pending:
            raise RouteError(
                f"{len(pending)} of {len(docs)} queries unanswered after "
                f"{self._retry.attempts} attempts across replicas"
            )
        return [doc for doc in results if doc is not None]


class ClusterClient(_ClusterCore):
    """Blocking cluster client (see module docstring for semantics)."""

    def _run(self, flow: _Flow) -> Any:
        return _drive(flow, self._step)

    def _step(self, step: tuple) -> Any:
        kind, *args = step
        if kind == "sleep":
            time.sleep(*args)
            return None
        if kind == "refresh":
            return self.refresh(force=True)
        return self._group(*args)

    def _group(self, address: str, docs: list[dict], frame_queries: int | None) -> Any:
        """The node's answers to one group, or ``None`` (and its
        connection dropped) when the node failed."""
        try:
            client = self._conns.get(address)
            if client is None:
                client = self._conns[address] = ServerClient(
                    address, wire=self._wire, auth_token=self._auth_token,
                    timeout=self._timeout,
                )
            return client.query_many(docs, frame_queries=frame_queries)
        except _NODE_FAILURES:
            self._drop_conn(address)
            return None

    # -- routing ------------------------------------------------------
    @property
    def table(self) -> RoutingTable:
        return self._run(self._table_flow())

    def refresh(self, *, force: bool = False) -> RoutingTable:
        return self._adopt(self._routes.table(self._known_epoch(force)))

    def _drop_conn(self, address: str) -> None:
        client = self._conns.pop(address, None)
        if client is not None:
            client.close()

    # -- queries ------------------------------------------------------
    def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        return self._run(self._query_flow(d, m, preset))

    def query_many(
        self,
        queries: Iterable,
        *,
        preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]:
        return self._run(self._query_many_flow(queries, preset, frame_queries))

    # -- ops ----------------------------------------------------------
    def stats(self) -> dict:
        """The cluster's membership/status document, wrapped like a
        server stats answer."""
        return {"ok": True, "cluster": self._routes.status()}

    def presets(self) -> list[str]:
        return list(self.table.presets)

    def close(self) -> None:
        for address in list(self._conns):
            self._drop_conn(address)

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncClusterClient(_ClusterCore):
    """The same routing client on asyncio connections."""

    async def _run(self, flow: _Flow) -> Any:
        return await _adrive(flow, self._step)

    async def _step(self, step: tuple) -> Any:
        kind, *args = step
        if kind == "sleep":
            await asyncio.sleep(*args)
            return None
        if kind == "refresh":
            return await self.refresh(force=True)
        return await self._group(*args)

    async def _group(
        self, address: str, docs: list[dict], frame_queries: int | None
    ) -> Any:
        try:
            client = self._conns.get(address)
            if client is None:
                client = self._conns[address] = await AsyncServerClient.connect(
                    address, wire=self._wire, auth_token=self._auth_token,
                    timeout=self._timeout,
                )
            return await client.query_many(docs, frame_queries=frame_queries)
        except _NODE_FAILURES:
            await self._drop_conn(address)
            return None

    # -- routing ------------------------------------------------------
    async def refresh(self, *, force: bool = False) -> RoutingTable:
        return self._adopt(await self._routes.table_async(self._known_epoch(force)))

    async def _drop_conn(self, address: str) -> None:
        client = self._conns.pop(address, None)
        if client is not None:
            await client.aclose()

    # -- queries ------------------------------------------------------
    async def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        return await self._run(self._query_flow(d, m, preset))

    async def query_many(
        self,
        queries: Iterable,
        *,
        preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]:
        return await self._run(self._query_many_flow(queries, preset, frame_queries))

    # -- ops ----------------------------------------------------------
    async def stats(self) -> dict:
        if isinstance(self._routes, CoordinatorRoutes):
            status = await _control_request_async(
                self._routes.coordinator, _status_flow(),
                timeout=self._routes.timeout,
            )
        else:
            status = self._routes.status()
        return {"ok": True, "cluster": status}

    async def presets(self) -> list[str]:
        return list((await self._run(self._table_flow())).presets)

    async def aclose(self) -> None:
        for address in list(self._conns):
            await self._drop_conn(address)

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
