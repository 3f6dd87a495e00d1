"""Binary wire protocol vs JSON lines under heavy pipelined load.

The acceptance bar for the length-prefixed binary transport
(:mod:`repro.service.wire`): 64 clients pipelining a 6144-query
workload as packed ``OP_QUERY`` record frames must achieve at least
2x the throughput of the same workload spoken as JSON lines to the
same server — both from a **cold** shard-backed registry, with
byte-identical answers (``tests/service/test_wire.py`` checks
partitions and times cell by cell against the resolver's ground
truth on the same workload, :mod:`tests.service.wire_workload`).

Both load generators pre-encode every request byte before the clock
starts and parse responses only after it stops: the measured quantity
is the server's per-query protocol cost (framing, parsing, response
building), not client-side encoding.  The run also reports the
server-side p99 admission-to-response latency from the new
:class:`~repro.service.async_server.LatencyHistogram` — the SLO number
``{"op": "stats"}`` serves in production.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from tests.service.wire_workload import (
    N_CELLS,
    N_CLIENTS,
    N_QUERIES,
    DIMS,
    binary_answers,
    binary_load,
    json_answers,
    json_load,
    save_shards,
    server_address,
    with_cold_server,
)
from tests.service.wire_workload import binary_blobs as encode_binary_blobs


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-wire-shards")
    save_shards(directory)
    return directory


@pytest.fixture(scope="module")
def binary_blobs(shard_dir):
    return encode_binary_blobs(shard_dir)


@pytest.mark.perf
def test_bench_wire_binary_beats_json(
    shard_dir, binary_blobs, tmp_path_factory, archive, record_metrics
):
    """64 pipelined clients: packed record frames vs JSON lines."""
    t_json = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        raw_json, json_server = asyncio.run(
            with_cold_server(
                shard_dir, server_address(tmp_path_factory), json_load
            )
        )
        t_json = min(t_json, time.perf_counter() - start)

    t_binary = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        raw_binary, binary_server = asyncio.run(
            with_cold_server(
                shard_dir,
                server_address(tmp_path_factory),
                binary_load(binary_blobs),
            )
        )
        t_binary = min(t_binary, time.perf_counter() - start)

    # identical answers before any throughput claim
    assert [a[0] for a in binary_answers(raw_binary)] == [
        a[0] for a in json_answers(raw_json)
    ]

    speedup = t_json / t_binary
    json_p99 = json_server.stats.p99_us
    binary_p99 = binary_server.stats.p99_us
    archive(
        "wire_protocol_throughput.txt",
        f"binary wire vs JSON lines, {N_QUERIES} queries "
        f"({N_CLIENTS} pipelined clients, {N_CELLS} distinct cells, "
        f"d={DIMS}, cold shard-backed registry)\n"
        f"  JSON lines:  {t_json * 1e3:9.2f} ms ({N_QUERIES / t_json:,.0f} q/s), "
        f"server p99 {json_p99 / 1e3:.2f} ms\n"
        f"  binary wire: {t_binary * 1e3:9.2f} ms ({N_QUERIES / t_binary:,.0f} q/s), "
        f"server p99 {binary_p99 / 1e3:.2f} ms\n"
        f"  speedup: {speedup:.1f}x (acceptance floor: 2x)\n"
        f"  answers identical: True",
    )
    record_metrics(
        "wire_protocol",
        speedup=speedup,
        json_p99_us=json_p99,
        binary_p99_us=binary_p99,
    )
    assert speedup >= 2.0
