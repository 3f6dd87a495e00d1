"""Independent verification of complete-exchange results.

Correctness of an all-to-all personalized exchange is a single matrix
identity: if ``S[x]`` is node ``x``'s ``(n, m)`` send array (row ``j``
bound for node ``j``) and ``R[x]`` its receive array (row ``j`` from
node ``j``), then ``R[x][j] == S[j][x]`` for all ``x, j`` — the block
transpose of Figure 2.  These helpers check that identity directly on
raw arrays, independent of the buffer classes, so a bug in the buffer
bookkeeping cannot mask itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "alltoall_reference",
    "assert_exchange_correct",
    "exchange_defect",
]


def alltoall_reference(send_rows: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The ground-truth complete exchange, computed by direct indexing.

    ``result[x][j] = send_rows[j][x]``.  O(n^2) block copies; used as
    the oracle for every algorithmic implementation.
    """
    n = len(send_rows)
    arrays = [np.asarray(r) for r in send_rows]
    for x, r in enumerate(arrays):
        if r.ndim != 2 or r.shape[0] != n:
            raise ValueError(f"node {x}: expected ({n}, m) send rows, got {r.shape}")
    return [np.stack([arrays[j][x] for j in range(n)]) for x in range(n)]


def exchange_defect(
    send_rows: Sequence[np.ndarray], recv_rows: Sequence[np.ndarray]
) -> list[tuple[int, int]]:
    """All ``(receiver, origin)`` pairs whose block is wrong or missing.

    Empty list means the exchange is correct.
    """
    n = len(send_rows)
    if len(recv_rows) != n:
        raise ValueError(f"{len(recv_rows)} receive arrays for {n} nodes")
    defects: list[tuple[int, int]] = []
    for x in range(n):
        recv = np.asarray(recv_rows[x])
        if recv.shape[0] != n:
            defects.extend((x, j) for j in range(n))
            continue
        for j in range(n):
            if not np.array_equal(recv[j], np.asarray(send_rows[j])[x]):
                defects.append((x, j))
    return defects


def assert_exchange_correct(
    send_rows: Sequence[np.ndarray], recv_rows: Sequence[np.ndarray]
) -> None:
    """Assert ``recv_rows`` is the complete exchange of ``send_rows``,
    reporting the first few defects on failure."""
    defects = exchange_defect(send_rows, recv_rows)
    if defects:
        raise AssertionError(
            f"complete exchange incorrect at {len(defects)} (receiver, origin) pairs; "
            f"first few: {defects[:8]}"
        )
