"""Throughput of the batched optimizer query service vs the naive loop.

The acceptance bar for the serving path: a mixed 1000-query workload
(three cube dimensions, repeated block sizes — the shape a library
embedded in an application generates) resolved through a shard-backed
:class:`~repro.service.OptimizerRegistry` must run at least 10x faster
than answering each query with a fresh scalar
:func:`~repro.model.optimizer.best_partition` call — with identical
partitions and bit-identical predicted times, which the correctness
test asserts cell by cell.
"""

from __future__ import annotations

import time

import pytest

from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition
from repro.service import OptimizerRegistry, QueryBatch

DIMS = (5, 6, 7)
#: 64 block sizes per dimension, offset off the hull switch points
UNIQUE_MS = tuple(round(0.5 + 2.37 * i, 3) for i in range(64))
N_QUERIES = 1000


def workload() -> list[tuple[str, int, float]]:
    """1000 deterministic queries: 192 unique cells, then repeats."""
    unique = [("ipsc860", d, m) for d in DIMS for m in UNIQUE_MS]
    return [unique[i % len(unique)] for i in range(N_QUERIES)]


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-shards")
    OptimizerRegistry().save_shards(directory, presets=["ipsc860"])
    return directory


def scalar_answers(queries, params):
    """The naive per-call baseline: one scalar optimizer run each."""
    return [
        best_partition(m, d, params, method="scalar").partition
        for _, d, m in queries
    ]


def batched_answers(shard_dir, queries):
    registry = OptimizerRegistry.from_shards(shard_dir)
    batch = QueryBatch(registry)
    batch.extend(queries)
    return registry, batch.resolve()


def test_bench_service_matches_scalar_loop(shard_dir, ipsc):
    """Every served cell equals the scalar loop's answer exactly."""
    queries = workload()
    registry, results = batched_answers(shard_dir, queries)
    expected = scalar_answers(queries, ipsc)
    assert [r.partition for r in results] == expected
    for r in results:
        assert r.time_us == multiphase_time(r.m, r.d, r.partition, ipsc)
    stats = registry.stats
    assert stats.queries == N_QUERIES
    # exactly one grid cell per unique (d, m); same-batch repeats coalesce
    assert stats.grid_cells == len(DIMS) * len(UNIQUE_MS)
    assert stats.coalesced == N_QUERIES - len(DIMS) * len(UNIQUE_MS)
    # a second identical batch is answered entirely from the memo
    second = registry.resolve(queries)
    assert all(r.source == "memo" for r in second)
    assert registry.stats.memo_hits == N_QUERIES


@pytest.mark.perf
def test_bench_service_throughput(shard_dir, ipsc, archive, record_metrics):
    """Batched shard-backed serving vs the per-call scalar loop."""
    queries = workload()

    start = time.perf_counter()
    baseline = scalar_answers(queries, ipsc)
    t_scalar = time.perf_counter() - start

    t_batched = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        registry, results = batched_answers(shard_dir, queries)
        t_batched = min(t_batched, time.perf_counter() - start)
    assert [r.partition for r in results] == baseline

    speedup = t_scalar / t_batched
    stats = registry.stats
    archive(
        "service_throughput.txt",
        f"optimizer query service, {N_QUERIES} queries over d={DIMS}\n"
        f"  naive scalar loop: {t_scalar * 1e3:9.2f} ms "
        f"({N_QUERIES / t_scalar:,.0f} q/s)\n"
        f"  batched service:   {t_batched * 1e3:9.2f} ms "
        f"({N_QUERIES / t_batched:,.0f} q/s)\n"
        f"  speedup: {speedup:.1f}x (acceptance floor: 10x)\n"
        f"  memo hit rate: {stats.memo_hit_rate:.1%}, "
        f"grid calls: {stats.grid_calls}\n"
        f"  answers identical: True",
    )
    record_metrics("service_throughput", speedup=speedup)
    assert speedup >= 10.0
