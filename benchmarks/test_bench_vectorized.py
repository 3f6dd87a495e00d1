"""Scalar vs vectorized throughput of the §6 optimizer machinery.

The acceptance bar for the grid path: over a d=7, 512-point block-size
grid, :func:`partition_sweep` must run at least 10x faster via the
vectorized kernel than via the scalar baseline — with identical
(bit-for-bit) results, which the benchmark asserts before timing
anything.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.sweep import partition_sweep
from repro.core.partitions import cached_partitions
from repro.model.cost import multiphase_time
from repro.model.vectorized import multiphase_time_grid

D = 7
GRID_POINTS = 512
BLOCK_SIZES = tuple(400.0 * i / (GRID_POINTS - 1) for i in range(GRID_POINTS))


def _best_of(fn, *, repeats: int = 3) -> tuple[float, object]:
    """Best-of-N wall time (seconds) and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_grid_kernel_throughput(benchmark, ipsc):
    """Raw kernel rate: all p(7)=15 partitions x 512 block sizes per call."""
    pool = cached_partitions(D)
    grid = benchmark(multiphase_time_grid, BLOCK_SIZES, D, pool, ipsc)
    assert grid.shape == (len(pool), GRID_POINTS)
    assert grid[0, 0] == multiphase_time(BLOCK_SIZES[0], D, pool[0], ipsc)


@pytest.mark.perf
def test_bench_sweep_grid_vs_scalar(benchmark, ipsc, archive, record_metrics):
    """partition_sweep over the 512-point d=7 row: batch vs scalar."""
    t_scalar, scalar_cells = _best_of(
        lambda: partition_sweep((D,), BLOCK_SIZES, ipsc, batch=False), repeats=1
    )
    batch_cells = benchmark(partition_sweep, (D,), BLOCK_SIZES, ipsc, batch=True)
    assert batch_cells == scalar_cells
    t_batch, _ = _best_of(lambda: partition_sweep((D,), BLOCK_SIZES, ipsc, batch=True))
    speedup = t_scalar / t_batch
    archive(
        "vectorized_sweep_speedup.txt",
        f"partition_sweep, d={D}, {GRID_POINTS} block sizes\n"
        f"  scalar: {t_scalar * 1e3:9.2f} ms\n"
        f"  batch:  {t_batch * 1e3:9.2f} ms\n"
        f"  speedup: {speedup:.1f}x (acceptance floor: 10x)\n"
        f"  cells identical: True",
    )
    record_metrics("vectorized_sweep", speedup=speedup)
    assert speedup >= 10.0
