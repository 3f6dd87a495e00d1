"""Long-lived optimizer query service (paper §6, served at scale).

The paper's punchline is that the block-size/partition enumeration
"needs to be done only once and the optimal combination stored for
repeated future use".  This subsystem is the *repeated future use*:

:mod:`repro.service.registry`
    :class:`OptimizerRegistry` — precomputes and shards
    :class:`~repro.model.optimizer.OptimizerTable` objects per machine
    preset × cube dimension (backed by the v2 shard files of
    :mod:`repro.model.store`), with lazy loading, LRU eviction, a
    result memo cache, and cache-hit statistics.
:mod:`repro.service.batch`
    :class:`QueryBatch` — coalesces heterogeneous ``(preset, d, m)``
    lookups into one row-kernel call per machine preset.
:mod:`repro.service.server`
    :func:`serve` — the stdin/stdout JSON-lines request loop behind
    ``repro serve`` (and the one-shot ``repro query``), plus the
    protocol helpers every transport shares.
:mod:`repro.service.async_server`
    :class:`AsyncOptimizerServer` — the same protocol on asyncio
    TCP/Unix sockets with per-connection pipelining and a cross-client
    micro-batcher coalescing concurrently pending queries into single
    grid passes (``repro serve --socket``).
:mod:`repro.service.wire`
    The length-prefixed binary wire protocol (magic + version + opcode
    frames, packed ``(preset_id, d, m)`` query records, contiguous
    answer arrays) negotiated per connection with JSON fallback.
:mod:`repro.service.client`
    :class:`ServerClient` / :class:`AsyncServerClient` — sync and
    asyncio clients with pipelined ``query_many`` on either wire
    (the old ``ServiceClient`` / ``AsyncServiceClient`` names remain
    as deprecation shims).
:mod:`repro.service.api`
    :func:`connect` / :func:`aconnect` — the one public entry point:
    hand it ``"HOST:PORT"`` for a server or ``"cluster:HOST:PORT"``
    for a :mod:`repro.fabric` coordinator and get back one
    :class:`OptimizerClient`, identical surface either way.
:mod:`repro.service.config`
    :class:`ServerConfig` — every server tunable in one validated
    dataclass, consumed identically by ``repro serve``,
    ``repro cluster join``, and programmatic construction.
:mod:`repro.service.warmup`
    :func:`warm_registry` — seed the result memo from a JSON-lines
    query log before the first connection (``repro serve --warm``).
"""

from repro.service.api import (
    AsyncOptimizerClient,
    OptimizerClient,
    aconnect,
    connect,
)
from repro.service.async_server import (
    AsyncOptimizerServer,
    LatencyHistogram,
    ServerStats,
    run_server,
)
from repro.service.batch import Query, QueryBatch, QueryResult, as_query, resolve_queries
from repro.service.client import (
    Address,
    AsyncServerClient,
    AsyncServiceClient,
    ServerClient,
    ServiceClient,
    ServiceError,
    parse_address,
)
from repro.service.config import ServerConfig
from repro.service.registry import DEFAULT_DIMS, OptimizerRegistry, RegistryStats
from repro.service.server import MAX_BATCH_QUERIES, handle_request, serve
from repro.service.warmup import WarmupReport, load_query_log, warm_registry

__all__ = [
    "Address",
    "AsyncOptimizerClient",
    "AsyncOptimizerServer",
    "AsyncServerClient",
    "AsyncServiceClient",
    "DEFAULT_DIMS",
    "LatencyHistogram",
    "MAX_BATCH_QUERIES",
    "OptimizerClient",
    "OptimizerRegistry",
    "Query",
    "QueryBatch",
    "QueryResult",
    "RegistryStats",
    "ServerClient",
    "ServerConfig",
    "ServerStats",
    "ServiceClient",
    "ServiceError",
    "WarmupReport",
    "aconnect",
    "as_query",
    "connect",
    "handle_request",
    "load_query_log",
    "parse_address",
    "resolve_queries",
    "run_server",
    "serve",
    "warm_registry",
]
