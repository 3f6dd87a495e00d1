"""Scale-out serving: 64 pipelined clients against a 3-node cluster.

The acceptance bar for the shard fabric: 64 clients pipelining a mixed
cold workload through a real 3-node cluster (coordinator + three
``repro cluster join`` subprocesses, replication 2, routed by the
public ``connect("cluster:...")`` machinery) must sustain at least
**2x** the ``async_serving`` baseline — the same workload answered
serially, one request-response round trip at a time, by a single
``repro serve --socket`` server (the denominator of that benchmark's
5x floor).  The floor is deliberately lower than async_serving's own:
the fabric pays for shard routing, per-node route fan-out, and replica
bookkeeping, and this gate pins how much of the cross-client batching
advantage it is allowed to spend.  A routing regression that serializes
queries (per-query round trips, broken group pipelining) lands far
below 2x.

Every timed run starts cold: fresh server processes, shard-backed
registries, empty memos.  Answers are asserted identical to the
in-process resolver, cell by cell, before any timing is trusted.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fabric import RetryPolicy
from repro.fabric.cluster import fetch_status
from repro.service import OptimizerRegistry, aconnect

SRC = str(Path(__file__).resolve().parents[1] / "src")
N_CLIENTS = 64
PER_CLIENT = 50
DIMS = (5, 6, 7)
#: 384 distinct (d, m) cells, half inside the shards' 400 B sweep bound
#: (grid cells) and half beyond it (exact pool scoring) — the exact
#: mixed-traffic shape (and dims) of the async_serving workload, so the
#: serial baseline here prices the same per-query work as that
#: benchmark's denominator.
WORKLOAD = tuple(
    (DIMS[i % len(DIMS)], round(0.5 + (0.97 if i % 2 else 400.97) + 0.97 * i, 3))
    for i in range(N_CLIENTS * PER_CLIENT)
)
REQUEST_LINES = tuple(
    json.dumps({"d": d, "m": m}).encode() + b"\n" for d, m in WORKLOAD
)


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-cluster-shards")
    OptimizerRegistry().save_shards(directory, presets=["ipsc860"])
    return directory


@pytest.fixture(scope="module")
def ground_truth(shard_dir):
    return [
        [list(r.partition), r.time_us]
        for r in OptimizerRegistry.from_shards(shard_dir).resolve(
            [("ipsc860", d, m) for d, m in WORKLOAD]
        )
    ]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _reap(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def _wait_tcp(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return
        except OSError:
            time.sleep(0.1)
    raise AssertionError(f"server on port {port} never came up")


def _wait_cluster(coordinator: str, nodes: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status = fetch_status(coordinator, timeout=2.0)
        except (ConnectionError, OSError):
            status = {"nodes": []}
        if sum(1 for n in status["nodes"] if n["state"] == "alive") >= nodes:
            return
        time.sleep(0.1)
    raise AssertionError("cluster never became fully alive")


# ----------------------------------------------------------------------
# the two serving topologies under test
# ----------------------------------------------------------------------
def serial_single_server(shard_dir):
    """The async_serving baseline: one server, one connection, strict
    request-response.  Returns (elapsed_s, parsed_responses)."""
    port = _free_port()
    procs = [_spawn(["serve", "--socket", f"127.0.0.1:{port}", "--shards", str(shard_dir)])]
    try:
        _wait_tcp(port)
        start = time.perf_counter()
        with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
            file = sock.makefile("rwb")
            raw = []
            for line in REQUEST_LINES:
                file.write(line)
                file.flush()
                raw.append(file.readline())
        elapsed = time.perf_counter() - start
    finally:
        _reap(procs)
    return elapsed, [json.loads(line) for line in raw]


def pipelined_cluster(shard_dir):
    """64 clients pipelining through a 3-node cluster via the public
    cluster API.  Returns (elapsed_s, parsed_responses)."""
    coordinator = f"127.0.0.1:{_free_port()}"
    procs = [_spawn(["cluster", "coordinator", coordinator, "--replication", "2"])]
    try:
        time.sleep(0.3)
        procs.extend(
            _spawn([
                "cluster", "join", coordinator,
                "--listen", "127.0.0.1:0", "--shards", str(shard_dir),
            ])
            for _ in range(3)
        )
        _wait_cluster(coordinator, 3)

        async def drive():
            retry = RetryPolicy(attempts=4, base_delay_s=0.05, max_delay_s=0.5)

            async def one_client(k):
                queries = WORKLOAD[k * PER_CLIENT : (k + 1) * PER_CLIENT]
                client = await aconnect(f"cluster:{coordinator}", retry=retry)
                try:
                    return await client.query_many(queries)
                finally:
                    await client.aclose()

            per_client = await asyncio.gather(
                *[one_client(k) for k in range(N_CLIENTS)]
            )
            return [doc for docs in per_client for doc in docs]

        start = time.perf_counter()
        responses = asyncio.run(drive())
        elapsed = time.perf_counter() - start
    finally:
        _reap(procs)
    return elapsed, responses


def _assert_answers(responses, ground_truth):
    assert all(r["ok"] for r in responses)
    assert [[r["partition"], r["time_us"]] for r in responses] == ground_truth


def test_bench_cluster_answers_match_ground_truth(shard_dir, ground_truth):
    """The routed cluster returns the exact resolver answers, in
    request order, exactly once each."""
    _, responses = pipelined_cluster(shard_dir)
    assert len(responses) == len(WORKLOAD)
    _assert_answers(responses, ground_truth)


@pytest.mark.perf
def test_bench_cluster_scaleout_beats_serial_baseline(
    shard_dir, ground_truth, archive, record_metrics
):
    """3-node cluster at 64 pipelined clients vs the serial baseline."""
    t_serial = float("inf")
    for _ in range(2):
        elapsed, serial_responses = serial_single_server(shard_dir)
        t_serial = min(t_serial, elapsed)
    _assert_answers(serial_responses, ground_truth)

    t_cluster = float("inf")
    for _ in range(2):
        elapsed, cluster_responses = pipelined_cluster(shard_dir)
        t_cluster = min(t_cluster, elapsed)
    _assert_answers(cluster_responses, ground_truth)

    n = len(WORKLOAD)
    speedup = t_serial / t_cluster
    archive(
        "cluster_scaleout.txt",
        f"cluster serving, {n} cold queries over d={DIMS}, "
        f"3 nodes x replication 2\n"
        f"  serial single server (baseline): {t_serial * 1e3:9.2f} ms "
        f"({n / t_serial:,.0f} q/s)\n"
        f"  cluster ({N_CLIENTS} pipelined clients):  {t_cluster * 1e3:9.2f} ms "
        f"({n / t_cluster:,.0f} q/s)\n"
        f"  speedup: {speedup:.1f}x (acceptance floor: 2x)\n"
        f"  answers identical: True",
    )
    record_metrics("cluster_scaleout", speedup=speedup)
    assert speedup >= 2.0
