"""Distributed table lookup via complete exchange (paper §3, ref. [12]).

A key-value table is sharded across the ``n`` processors by key range.
Every processor holds a batch of keys to resolve, scattered across all
shards.  Resolution is two complete exchanges:

1. **scatter queries** — each node routes its keys to the owning
   shards (fixed-size padded query blocks, one per destination);
2. **gather answers** — shard owners look the keys up locally and the
   answers travel back along the mirrored exchange.

The block sizes this produces are tiny (a handful of keys per
node-pair), squarely in the 0–160 byte regime where the paper's
multiphase algorithm wins — the reason distributed lookups are listed
among the motivating applications.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.exchange import replay
from repro.util.bitops import log2_exact

__all__ = ["DistributedTable", "distributed_lookup"]

_KEY_DTYPE = np.int64
_VAL_DTYPE = np.float64
#: key slot value marking padding in a query block
_EMPTY = np.iinfo(_KEY_DTYPE).min


class DistributedTable:
    """A key-sharded lookup table over ``n = 2**d`` nodes.

    Keys are non-negative ints in ``[0, capacity)``; shard ``x`` owns
    the contiguous range ``[x * capacity/n, (x+1) * capacity/n)``.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, n_nodes: int,
                 capacity: int) -> None:
        log2_exact(n_nodes)
        if capacity % n_nodes:
            raise ValueError(f"capacity {capacity} not divisible by {n_nodes} shards")
        keys = np.asarray(keys, dtype=_KEY_DTYPE)
        values = np.asarray(values, dtype=_VAL_DTYPE)
        if keys.shape != values.shape:
            raise ValueError("keys and values must align")
        if keys.size and (keys.min() < 0 or keys.max() >= capacity):
            raise ValueError(f"keys must lie in [0, {capacity})")
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate keys")
        self.n_nodes = n_nodes
        self.capacity = capacity
        self.range_per_shard = capacity // n_nodes
        self._shards: list[dict[int, float]] = [dict() for _ in range(n_nodes)]
        for k, v in zip(keys.tolist(), values.tolist()):
            self._shards[self.owner(k)][k] = v

    def owner(self, key: int) -> int:
        """The shard owning ``key``."""
        return int(key) // self.range_per_shard

    def local_lookup(self, shard: int, keys: np.ndarray) -> np.ndarray:
        """Resolve keys against one shard; missing keys yield NaN."""
        table = self._shards[shard]
        return np.array([table.get(int(k), np.nan) for k in keys], dtype=_VAL_DTYPE)


def distributed_lookup(
    table: DistributedTable,
    queries: Sequence[np.ndarray],
    *,
    partition: Sequence[int] | None = None,
    planner=None,
) -> list[np.ndarray]:
    """Resolve each node's query batch against the sharded table.

    ``queries[x]`` is node ``x``'s 1-D array of keys; the result list
    gives the values in the same order (NaN for absent keys).  Uses two
    complete exchanges with blocks padded to the largest per-pair query
    count, mirroring a fixed-block implementation on the real machine.
    With a ``planner`` (:class:`repro.plan.CollectivePlanner`), each
    exchange's algorithm is selected per ``(d, m)`` at call time.
    """
    if planner is not None and partition is not None:
        raise ValueError("pass either a planner or an explicit partition, not both")

    def exchange(rows):
        return replay("multiphase", rows=rows, partition=partition, planner=planner).rows()

    n = table.n_nodes
    if len(queries) != n:
        raise ValueError(f"need one query batch per node, got {len(queries)} for {n}")
    batches = [np.asarray(q, dtype=_KEY_DTYPE) for q in queries]

    # route queries: per (source, owner) key lists + position bookkeeping
    routed: list[list[np.ndarray]] = []
    positions: list[list[np.ndarray]] = []
    for x in range(n):
        owners = np.array([table.owner(k) for k in batches[x]], dtype=np.int64)
        routed.append([batches[x][owners == j] for j in range(n)])
        positions.append([np.nonzero(owners == j)[0] for j in range(n)])

    slots = max((len(r) for per_node in routed for r in per_node), default=0)
    slots = max(slots, 1)
    key_block = slots * np.dtype(_KEY_DTYPE).itemsize

    # exchange 1: queries to shard owners
    send_rows = []
    for x in range(n):
        rows = np.empty((n, key_block), dtype=np.uint8)
        for j in range(n):
            padded = np.full(slots, _EMPTY, dtype=_KEY_DTYPE)
            padded[: len(routed[x][j])] = routed[x][j]
            rows[j] = padded.view(np.uint8)
        send_rows.append(rows)
    recv_rows = exchange(send_rows)

    # local lookups at each shard
    answer_rows = []
    val_block = slots * np.dtype(_VAL_DTYPE).itemsize
    for shard in range(n):
        rows = np.empty((n, val_block), dtype=np.uint8)
        for src in range(n):
            keys = recv_rows[shard][src].view(_KEY_DTYPE)
            answers = np.full(slots, np.nan, dtype=_VAL_DTYPE)
            valid = keys != _EMPTY
            answers[valid] = table.local_lookup(shard, keys[valid])
            rows[src] = answers.view(np.uint8)
        answer_rows.append(rows)

    # exchange 2: answers back to the querying nodes
    returned = exchange(answer_rows)

    # unpad and restore original query order
    results = []
    for x in range(n):
        out = np.full(len(batches[x]), np.nan, dtype=_VAL_DTYPE)
        for j in range(n):
            values = returned[x][j].view(_VAL_DTYPE)[: len(positions[x][j])]
            out[positions[x][j]] = values
        results.append(out)
    return results
