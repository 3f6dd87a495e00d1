"""Throughput of cross-client batching vs serial per-request serving.

8 clients pipelining a mixed 400-query workload into the socket server
(whose micro-batcher coalesces concurrently pending queries from
*different* connections into single pricing passes), against the same
400 queries answered serially, one request-response round trip at a
time, by the same server — both measured from a **cold** shard-backed
registry (empty memo, no tables materialized).  The correctness tests
below assert the answers cell by cell; the throughput test archives
both sides' queries/sec and asserts no ratio: pricing a cell got
cheaper than a serial round trip, so the ratio mostly measures the
socket round trip, and a wall-clock floor on it only flakes.  That the
pipelined answers equal the serial ones is asserted in
``tests/service/test_async_server.py``.

The load generator pre-encodes every request line and parses responses
only after the clock stops, for both serving modes alike: the measured
quantity is server throughput, not client-side JSON handling.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.service import OptimizerRegistry, aconnect
from repro.service.async_server import AsyncOptimizerServer

N_CLIENTS = 8
PER_CLIENT = 50
DIMS = (5, 6, 7)
#: 400 distinct (d, m) cells — no repeats, so every query is a memo
#: miss and the only amortization available is cross-request batching.
#: Half the block sizes sit inside the shards' 400 B sweep bound (one
#: winning-partition grid cell each when served one at a time), half
#: beyond it (an exact full-pool scoring pass each) — the mixed shape
#: of real traffic, and both of the resolver's cold paths.
WORKLOAD = tuple(
    (DIMS[i % len(DIMS)], round(0.5 + (0.97 if i % 2 else 400.97) + 0.97 * i, 3))
    for i in range(N_CLIENTS * PER_CLIENT)
)

REQUEST_LINES = tuple(
    json.dumps({"d": d, "m": m}).encode() + b"\n" for d, m in WORKLOAD
)


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-async-shards")
    OptimizerRegistry().save_shards(directory, presets=["ipsc860"], dims=DIMS)
    return directory


def server_address(tmp_path_factory):
    if hasattr(socket, "AF_UNIX"):
        return f"unix:{tmp_path_factory.mktemp('bench-async-sock') / 'srv.sock'}"
    return "127.0.0.1:0"


async def _open(server):
    address = server.address
    if address.kind == "unix":
        return await asyncio.open_unix_connection(address.path)
    return await asyncio.open_connection(address.host, address.port)


async def _with_cold_server(shard_dir, address, drive):
    """Start a cold shard-backed server, run ``drive(server)``, drain.

    Returns ``(raw_response_lines, server)`` — parsing happens outside
    the timed region.
    """
    registry = OptimizerRegistry.from_shards(shard_dir)
    server = AsyncOptimizerServer(
        registry, default_preset="ipsc860", max_batch=len(WORKLOAD)
    )
    await server.start(address)
    try:
        raw = await drive(server)
    finally:
        await server.aclose()
    return raw, server


async def _serial_load(server):
    """One connection, strict request-response: no pipelining, so the
    batcher sees exactly one pending query at every flush."""
    reader, writer = await _open(server)
    raw = []
    for line in REQUEST_LINES:
        writer.write(line)
        await writer.drain()
        raw.append(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return raw


async def _concurrent_load(server):
    """8 connections, each pipelining its slice in one write."""

    async def one_client(k):
        reader, writer = await _open(server)
        lines = REQUEST_LINES[k * PER_CLIENT : (k + 1) * PER_CLIENT]
        writer.write(b"".join(lines))
        await writer.drain()
        raw = [await reader.readline() for _ in lines]
        writer.close()
        await writer.wait_closed()
        return raw

    per_client = await asyncio.gather(*[one_client(k) for k in range(N_CLIENTS)])
    return [line for lines in per_client for line in lines]


def _parse(raw_lines):
    return [json.loads(line) for line in raw_lines]


def test_bench_async_answers_match_serial_and_ground_truth(
    shard_dir, tmp_path_factory, ipsc
):
    """Both serving modes return the exact resolver answers."""
    raw_serial, _ = asyncio.run(
        _with_cold_server(shard_dir, server_address(tmp_path_factory), _serial_load)
    )
    raw_concurrent, server = asyncio.run(
        _with_cold_server(shard_dir, server_address(tmp_path_factory), _concurrent_load)
    )
    expected = OptimizerRegistry.from_shards(shard_dir).resolve(
        [("ipsc860", d, m) for d, m in WORKLOAD]
    )
    for responses in (_parse(raw_serial), _parse(raw_concurrent)):
        assert all(r["ok"] for r in responses)
        assert [r["partition"] for r in responses] == [
            list(e.partition) for e in expected
        ]
        assert [r["time_us"] for r in responses] == [e.time_us for e in expected]
    # both cold paths are exercised: stored-table cells and beyond-bound
    # exact pool scoring
    sources = {r["source"] for r in _parse(raw_concurrent)}
    assert sources == {"grid", "pool"}
    # the concurrent run really coalesced across clients ...
    stats = server.stats
    assert stats.batched_queries == len(WORKLOAD)
    assert stats.batches <= len(WORKLOAD) // 2
    assert stats.peak_batch_queries > 1
    # ... and every table came off disk: the registry stayed shard-backed
    assert server.registry.stats.tables_built == 0
    assert server.registry.stats.tables_loaded == len(DIMS)


def test_bench_async_client_library_sees_same_answers(shard_dir, tmp_path_factory):
    """The pipelined client library path agrees with the raw loader."""

    async def drive(server):
        async with await aconnect(str(server.address)) as client:
            return await client.query_many(WORKLOAD[:20])

    responses, _ = asyncio.run(
        _with_cold_server(shard_dir, server_address(tmp_path_factory), drive)
    )
    expected = OptimizerRegistry.from_shards(shard_dir).resolve(
        [("ipsc860", d, m) for d, m in WORKLOAD[:20]]
    )
    assert [r["partition"] for r in responses] == [list(e.partition) for e in expected]


@pytest.mark.perf
def test_bench_async_pipelined_vs_serial_throughput(shard_dir, tmp_path_factory, archive):
    """8 pipelined clients vs serial per-request handling, cold start:
    both sides' queries/sec, archived and not asserted."""
    t_serial = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        asyncio.run(
            _with_cold_server(shard_dir, server_address(tmp_path_factory), _serial_load)
        )
        t_serial = min(t_serial, time.perf_counter() - start)

    t_concurrent = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _, server = asyncio.run(
            _with_cold_server(
                shard_dir, server_address(tmp_path_factory), _concurrent_load
            )
        )
        t_concurrent = min(t_concurrent, time.perf_counter() - start)

    n = len(WORKLOAD)
    stats = server.stats
    archive(
        "async_serving_throughput.txt",
        f"async optimizer serving, {n} cold queries over d={DIMS}\n"
        f"  serial per-request (1 client):  {t_serial * 1e3:9.2f} ms "
        f"({n / t_serial:,.0f} q/s)\n"
        f"  pipelined ({N_CLIENTS} clients, batched): {t_concurrent * 1e3:9.2f} ms "
        f"({n / t_concurrent:,.0f} q/s)\n"
        f"  ratio: {t_serial / t_concurrent:.1f}x (reported, not asserted)\n"
        f"  batches: {stats.batches} (mean occupancy "
        f"{stats.mean_batch_queries:.1f}, peak {stats.peak_batch_queries})",
    )
