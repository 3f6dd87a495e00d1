"""Distributed matrix transpose via complete exchange (paper §3, Fig. 2).

An ``N x N`` matrix mapped row-strip-wise onto ``n = 2**d`` processors
is transposed by exchanging ``n**2`` sub-blocks: processor ``x`` sends
the sub-block at (row-strip ``x``, column-strip ``j``) to processor
``j`` — one block per destination, the defining complete exchange.
After the exchange each processor locally transposes the received
sub-blocks and owns the row-strip of the transposed matrix.

This is the paper's headline application ("at the heart of many
important algorithms, most notably the matrix transpose") and the
substrate for the ADI and FFT kernels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.exchange import replay
from repro.util.bitops import log2_exact

__all__ = [
    "distributed_transpose",
    "gather_strips",
    "split_into_strips",
    "transpose_block_size",
]


def split_into_strips(matrix: np.ndarray, n_nodes: int) -> list[np.ndarray]:
    """Row-strip decomposition: strip ``x`` is rows
    ``[x * N/n, (x+1) * N/n)`` (the Figure 2 mapping)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    size = matrix.shape[0]
    if size % n_nodes:
        raise ValueError(f"matrix size {size} not divisible by {n_nodes} nodes")
    rows_per = size // n_nodes
    return [matrix[x * rows_per : (x + 1) * rows_per].copy() for x in range(n_nodes)]


def gather_strips(strips: Sequence[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`split_into_strips`."""
    return np.vstack(list(strips))


def transpose_block_size(size: int, n_nodes: int, dtype=np.float64) -> int:
    """Bytes per exchanged block: ``(N/n)**2`` elements.

    The paper's observation that multiphase wins for 0–160 byte blocks
    corresponds to strip blocks of up to ~40 float32s — i.e. *small*
    matrices per node, the common case for strong scaling.
    """
    per = size // n_nodes
    return per * per * np.dtype(dtype).itemsize


def distributed_transpose(
    matrix: np.ndarray,
    n_nodes: int,
    *,
    partition: Sequence[int] | None = None,
    planner=None,
) -> np.ndarray:
    """Transpose ``matrix`` using a multiphase complete exchange.

    Parameters
    ----------
    matrix:
        Square ``N x N`` array, any dtype; ``N`` divisible by
        ``n_nodes`` (a power of two).
    n_nodes:
        Number of processors ``n = 2**d``.
    partition:
        Multiphase partition (default single phase).
    planner:
        A :class:`repro.plan.CollectivePlanner`; when given, the
        exchange algorithm (standard / multiphase / naive) is selected
        per ``(d, m)`` at call time instead of via ``partition``.

    Returns the transposed matrix, reassembled from the strips.  The
    result equals ``matrix.T`` exactly (asserted by the tests for all
    partitions).

    >>> import numpy as np
    >>> a = np.arange(64.0).reshape(8, 8)
    >>> np.array_equal(distributed_transpose(a, 4, partition=(1, 1)), a.T)
    True
    """
    if planner is not None and partition is not None:
        raise ValueError("pass either a planner or an explicit partition, not both")
    matrix = np.asarray(matrix)
    log2_exact(n_nodes)
    strips = split_into_strips(matrix, n_nodes)
    size = matrix.shape[0]
    per = size // n_nodes
    itemsize = matrix.dtype.itemsize
    block_bytes = per * per * itemsize

    # Build each node's send rows: block j is the (x, j) sub-block,
    # flattened to bytes.
    send_rows = []
    for x in range(n_nodes):
        rows = np.empty((n_nodes, block_bytes), dtype=np.uint8)
        for j in range(n_nodes):
            sub = strips[x][:, j * per : (j + 1) * per]
            rows[j] = np.ascontiguousarray(sub).view(np.uint8).reshape(-1)
        send_rows.append(rows)

    recv_rows = replay("multiphase", rows=send_rows, partition=partition, planner=planner).rows()

    # Node x now holds sub-block (j, x) from every j; transpose each
    # sub-block locally and lay them out as the x-th strip of A^T.
    out_strips = []
    for x in range(n_nodes):
        strip = np.empty((per, size), dtype=matrix.dtype)
        for j in range(n_nodes):
            sub = recv_rows[x][j].view(matrix.dtype).reshape(per, per)
            strip[:, j * per : (j + 1) * per] = sub.T
        out_strips.append(strip)
    return gather_strips(out_strips)
