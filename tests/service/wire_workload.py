"""64 pipelined clients, once as JSON lines and once as binary frames.

The workload both ``test_wire.py`` (answers checked cell by cell
against the resolver) and ``benchmarks/test_bench_wire.py`` (the
binary-vs-JSON throughput ratio) drive against a cold shard-backed
server.  Every request byte is encoded before a load starts, and
responses are parsed only after it ends.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.service import OptimizerRegistry
from repro.service import wire
from repro.service.async_server import AsyncOptimizerServer

N_CLIENTS = 64
FRAMES_PER_CLIENT = 3
QUERIES_PER_FRAME = 32
PER_CLIENT = FRAMES_PER_CLIENT * QUERIES_PER_FRAME
N_QUERIES = N_CLIENTS * PER_CLIENT
DIMS = (5, 6, 7)
#: the distinct (d, m) cells the workload draws from — half inside the
#: shards' 400 B sweep bound (grid cells), half beyond it (exact pool
#: scoring), so both cold resolver paths are in the mix.  Clients
#: revisit cells, as real traffic does: the JSON wire still pays its
#: per-query encode/decode on every hit, which is exactly the tax the
#: binary wire exists to remove.
N_CELLS = 192
CELLS = tuple(
    (DIMS[i % len(DIMS)], round((0.97 if i % 2 else 400.97) + 1.03 * i, 3))
    for i in range(N_CELLS)
)

#: client k's j-th query — a deterministic scatter over the cells with
#: repeats both across clients and *within* each frame (consecutive
#: query pairs hit the same cell, the hot-cell shape of real traffic):
#: the binary wire's admission folds those repeats into one cell each
#: and resolves and encodes per distinct cell, gathering the answers
#: back to request order, while the JSON wire pays full per-query
#: encode/decode either way
WORKLOAD = tuple(
    tuple(CELLS[(k * 7 + (j // 2) * 5) % N_CELLS] for j in range(PER_CLIENT))
    for k in range(N_CLIENTS)
)

#: the JSON wire's bytes: one pre-encoded request line per query
JSON_BLOBS = tuple(
    b"".join(
        json.dumps({"d": d, "m": m}).encode() + b"\n" for d, m in queries
    )
    for queries in WORKLOAD
)


def save_shards(directory) -> None:
    OptimizerRegistry().save_shards(directory, presets=["ipsc860"], dims=DIMS)


def binary_blobs(shard_dir) -> tuple[bytes, ...]:
    """The binary wire's bytes per client: a HELLO frame followed by
    the client's queries packed into ``QUERIES_PER_FRAME``-record
    ``OP_QUERY`` frames."""
    catalog = list(OptimizerRegistry.from_shards(shard_dir).preset_names)
    pid = catalog.index("ipsc860")
    blobs = []
    for queries in WORKLOAD:
        frames = [wire.pack_frame(wire.OP_HELLO, wire.hello_payload())]
        for j in range(0, PER_CLIENT, QUERIES_PER_FRAME):
            chunk = queries[j : j + QUERIES_PER_FRAME]
            records = wire.make_query_records([(pid, d, m) for d, m in chunk])
            frames.append(
                wire.pack_frame(wire.OP_QUERY, wire.encode_query_records(records))
            )
        blobs.append(b"".join(frames))
    return tuple(blobs)


def server_address(tmp_path_factory):
    if hasattr(socket, "AF_UNIX"):
        return f"unix:{tmp_path_factory.mktemp('bench-wire-sock') / 'srv.sock'}"
    return "127.0.0.1:0"


async def _open(server):
    address = server.address
    if address.kind == "unix":
        return await asyncio.open_unix_connection(address.path)
    return await asyncio.open_connection(address.host, address.port)


async def with_cold_server(shard_dir, address, drive):
    """Start a cold shard-backed server, run ``drive(server)``, drain."""
    registry = OptimizerRegistry.from_shards(shard_dir)
    server = AsyncOptimizerServer(
        registry, default_preset="ipsc860", max_batch=4096
    )
    await server.start(address)
    try:
        raw = await drive(server)
    finally:
        await server.aclose()
    return raw, server


async def json_load(server):
    """64 connections, each pipelining its pre-encoded lines."""

    async def one_client(k):
        reader, writer = await _open(server)
        writer.write(JSON_BLOBS[k])
        await writer.drain()
        raw = [await reader.readline() for _ in range(PER_CLIENT)]
        writer.close()
        await writer.wait_closed()
        return raw

    return await asyncio.gather(*[one_client(k) for k in range(N_CLIENTS)])


def binary_load(blobs):
    async def drive(server):
        async def one_client(k):
            reader, writer = await _open(server)
            writer.write(blobs[k])
            await writer.drain()
            frames = [
                await wire.read_frame(reader)
                for _ in range(1 + FRAMES_PER_CLIENT)
            ]
            writer.close()
            await writer.wait_closed()
            return frames

        return await asyncio.gather(*[one_client(k) for k in range(N_CLIENTS)])

    return drive


def json_answers(raw):
    """``(partitions, times)`` per client from raw response lines."""
    out = []
    for lines in raw:
        docs = [json.loads(line) for line in lines]
        assert all(doc["ok"] for doc in docs)
        out.append((
            [tuple(doc["partition"]) for doc in docs],
            [doc["time_us"] for doc in docs],
        ))
    return out


def binary_answers(raw):
    out = []
    for frames in raw:
        opcode = frames[0][1]
        assert opcode == wire.OP_HELLO_OK
        partitions, times = [], []
        for _, answer, payload in frames[1:]:
            assert answer == wire.OP_RESULT
            frame_times, _, frame_parts = wire.decode_result_payload(payload)
            partitions.extend(frame_parts)
            times.extend(frame_times.tolist())
        out.append((partitions, times))
    return out
