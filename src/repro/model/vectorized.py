"""Vectorized (numpy) fast path for the eqs. (1)–(3) cost model.

The paper's §6 enumeration — model every partition of ``d`` at every
block size of interest, keep the lower envelope — is embarrassingly
data-parallel, yet :func:`repro.model.cost.multiphase_time` evaluates
one scalar ``(m, partition)`` pair per call.  This module prices many
at once, which is what lets the optimizer, the sweeps, the figure
generators and the query service answer "which partition should a
library call?" at production rates.

One row kernel, :func:`price_rows`, does all of it.  A row is a
``(d, partition, m)`` triple: the ``(d, partition)`` half is an index
into a coefficient table filled once per pair (the enumeration "needs
to be done only once"), holding each phase slot's ``n_tx = 2**d_i - 1``,
the exact scale ``2**(d - d_i)``, the hop distance ``d_i·2**(d_i-1)``
and the masked ``2**d`` and ``d`` factors of the shuffle and global
sync terms.  Rows of any mix of ``d`` and partitions are priced in one
call, one numpy pass per phase slot; the table grows only with new
``(d, partition)`` pairs, never with block sizes.
:func:`multiphase_time_grid` (the block-size × partition cross product)
and :func:`multiphase_time_pairs` (one partition per block size) are
validating wrappers over it.

Bit-for-bit agreement with the scalar path is a hard requirement (the
figure and table text outputs must not move by even one ulp), so the
kernel applies *exactly the same IEEE-754 operations in exactly the
same order* as :func:`repro.model.cost.phase_cost` /
:func:`repro.model.cost.multiphase_time`:

* per phase: ``((transmission + distance) + shuffle) + global_sync``
  with ``transmission = n_tx * (λ_x + τ·(m·2**(d-d_i)))``,
  ``shuffle = ρ·(m·2**d)`` and ``global_sync = γ·d``;
* per partition: left-to-right accumulation over the phases, starting
  from ``0.0`` (Python's ``sum``);
* powers of two are stored as floats, so the scale factors are exact.

A slot a row does not use (its partition is shorter than the widest
row of the call), and the shuffle of a single-phase schedule, have
coefficient ``0.0``: such a term is an exact ``±0.0``, and adding it
leaves the running sum unchanged (every term is non-negative, so the
sum is never ``-0.0``).  No slot is ever scaled by ``m·2**d`` unless it
uses it, so an overflowing ``m`` gives the scalar model's ``inf``,
never ``0·inf = NaN``.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from repro.core.partitions import cached_partitions
from repro.model.params import MachineParams
from repro.util.validation import check_dimension, check_partition

__all__ = [
    "grid_winners",
    "multiphase_time_grid",
    "multiphase_time_pairs",
    "partition_row",
    "pool_rows",
    "price_rows",
    "row_lines",
]


class _SlotTable:
    """Eq. (3) coefficients per phase slot of every ``(d, partition)``
    priced so far: a ``(5, slots, rows)`` float array of ``n_tx``,
    scale, hops, shuffle factor and sync factor, and each row's phase
    count.  Growing copies both and publishes them as one tuple, so a
    kernel reading a snapshot never sees a torn table."""

    def __init__(self) -> None:
        self._index: dict[tuple[int, tuple[int, ...]], int] = {}
        self._pools: dict[int, tuple[tuple[tuple[int, ...], ...], np.ndarray]] = {}
        self._lock = threading.Lock()
        self.arrays = (np.zeros((5, 1, 64)), np.zeros(64, dtype=np.intp))

    def __len__(self) -> int:
        return len(self._index)

    def row(self, d: int, partition: tuple[int, ...]) -> int:
        found = self._index.get((d, partition))
        # a hit is keyed by value, and True == 1: anything but plain
        # ints goes through the validating path
        if found is None or type(d) is not int or any(type(p) is not int for p in partition):
            return self._add(d, partition)
        return found

    def _add(self, d: int, partition: tuple[int, ...]) -> int:
        parts = check_partition(partition, d)
        with self._lock:
            found = self._index.get((d, parts))
            if found is not None:
                return found
            row, width = len(self._index), len(parts)
            coef, widths = self.arrays
            if row == widths.size or width > coef.shape[1]:
                grown = np.zeros((5, max(width, coef.shape[1]), 2 * widths.size))
                grown[:, : coef.shape[1], : widths.size] = coef
                coef, widths = grown, np.concatenate([widths, np.zeros_like(widths)])
            # the shuffle pass only runs in multi-phase schedules
            shuffled = 1 << d if width > 1 else 0
            coef[:, :width, row] = np.transpose(
                [((1 << di) - 1, 1 << (d - di), di << (di - 1), shuffled, d) for di in parts]
            )
            widths[row] = width
            self.arrays = (coef, widths)
            self._index[(d, parts)] = row
            return row

    def pool(self, d: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
        found = self._pools.get(d)
        if found is None:
            ordered = tuple(sorted(cached_partitions(d)))
            rows = np.array([self.row(d, p) for p in ordered], dtype=np.intp)
            found = self._pools[d] = (ordered, rows)
        return found


_TABLE = _SlotTable()


def partition_row(d: int, partition: tuple[int, ...]) -> int:
    """The coefficient-table row of ``(d, partition)`` (a tuple), filled
    the first time the pair is seen; ``partition`` is checked like
    :func:`~repro.util.validation.check_partition` does."""
    return _TABLE.row(d, partition)


def pool_rows(d: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Every partition of ``d`` in ascending tuple order, with its
    table rows.  In that order the first minimal row of a time column is
    the winner under :func:`grid_winners`' tie rule."""
    return _TABLE.pool(d)


def row_lines(rows: np.ndarray) -> np.ndarray:
    """Each row's eq. (3) as a line ``A·m + B`` in integer coefficients:
    a ``(5, len(rows))`` float array ``I, J, K, L, M`` with ``A = τ·I +
    ρ·J`` and ``B = λ_x·K + δ_x·L + γ·M``, the slot coefficients summed
    over the row's phases.  Every entry is an integer below ``2**53``,
    so exact."""
    n_tx, scale, hops, shuffle_cube, sync_dim = _TABLE.arrays[0][:, :, rows]
    return np.stack([
        (n_tx * scale).sum(axis=0), shuffle_cube.sum(axis=0), n_tx.sum(axis=0),
        hops.sum(axis=0), sync_dim.sum(axis=0),
    ])


def price_rows(
    rows: np.ndarray, ms: np.ndarray | float, params: MachineParams
) -> np.ndarray:
    """Eq. (3) for every ``(row, m)`` pair: ``rows`` (table rows, from
    :func:`partition_row` / :func:`pool_rows`) and ``ms`` broadcast
    against each other, and the result has their broadcast shape.

    ``ms`` must be finite and ``>= 0``; nothing is re-checked here.
    Each element equals ``multiphase_time(m, d, partition, params)`` to
    the last bit.  Temporaries are a few arrays of the result's shape,
    one phase slot at a time.
    """
    coef, widths = _TABLE.arrays
    n_tx, scale, hops, shuffle_cube, sync_dim = coef
    rows = np.asarray(rows, dtype=np.intp)
    ms = np.asarray(ms, dtype=np.float64)
    total = np.zeros(np.broadcast_shapes(rows.shape, ms.shape))
    if total.size == 0:
        return total
    lam_x, tau, delta_x = params.exchange_latency, params.byte_time, params.exchange_hop_time
    rho, gamma = params.permute_time, params.global_sync_per_dim
    for slot in range(int(widths.take(rows).max())):
        phase = ms * scale[slot].take(rows)
        phase *= tau
        phase += lam_x
        phase *= n_tx[slot].take(rows)
        phase += delta_x * hops[slot].take(rows)
        shuffle = ms * shuffle_cube[slot].take(rows)
        shuffle *= rho
        phase += shuffle
        phase += gamma * sync_dim[slot].take(rows)
        total += phase
    return total


def _checked_rows(d: int, partitions: Iterable[Sequence[int]]) -> np.ndarray:
    check_dimension(d, minimum=1)
    return np.array(
        [_TABLE.row(d, check_partition(p, d)) for p in partitions], dtype=np.intp
    )


def _checked_block_sizes(ms: Sequence[float] | np.ndarray) -> np.ndarray:
    m_arr = np.asarray(ms, dtype=np.float64)
    if m_arr.ndim != 1:
        raise ValueError(f"ms must be one-dimensional, got shape {m_arr.shape}")
    if m_arr.size and (not np.all(np.isfinite(m_arr)) or np.any(m_arr < 0)):
        bad = m_arr[~(np.isfinite(m_arr) & (m_arr >= 0))][0]
        raise ValueError(f"block sizes must be finite and >= 0, got {bad}")
    return m_arr


def multiphase_time_grid(
    ms: Sequence[float] | np.ndarray,
    d: int,
    partitions: Iterable[Sequence[int]],
    params: MachineParams,
) -> np.ndarray:
    """Predicted multiphase-exchange time for every ``(partition, m)``
    pair: a ``(len(partitions), len(ms))`` float64 array.

    Equivalent to — and bitwise identical with — the scalar loop::

        [[multiphase_time(m, d, p, params) for m in ms] for p in partitions]

    The partitions are validated, then priced by :func:`price_rows`
    with their rows as a column against ``ms`` as a row.

    >>> from repro.model.params import hypothetical
    >>> multiphase_time_grid([24.0], 6, [(1,) * 6, (2, 4)], hypothetical())
    array([[15144.],
           [ 9984.]])
    """
    rows = _checked_rows(d, partitions)
    m_arr = _checked_block_sizes(ms)
    return price_rows(rows[:, np.newaxis], m_arr[np.newaxis, :], params)


def multiphase_time_pairs(
    ms: Sequence[float] | np.ndarray,
    d: int,
    partitions: Iterable[Sequence[int]],
    params: MachineParams,
) -> np.ndarray:
    """Predicted time for each ``(ms[i], partitions[i])`` pairing: a
    ``(len(ms),)`` float64 vector, bitwise identical to::

        [multiphase_time(m, d, p, params) for m, p in zip(ms, partitions)]

    Use it when each block size pairs with its own candidate (the
    lockstep crossover bisections), where the grid's cross product
    would evaluate cells nobody reads.
    """
    rows = _checked_rows(d, partitions)
    m_arr = _checked_block_sizes(ms)
    if m_arr.shape[0] != rows.shape[0]:
        raise ValueError(
            f"{m_arr.shape[0]} block sizes paired with {rows.shape[0]} partitions"
        )
    return price_rows(rows, m_arr, params)


def grid_winners(
    times: np.ndarray, pool: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Per-column winner of a ``(P, M)`` time grid, tie-broken by the
    smaller partition tuple — the same total order as
    ``min(pool, key=lambda p: (time(p), p))`` on the scalar path.
    """
    if times.shape[0] != len(pool):
        raise ValueError(
            f"time grid has {times.shape[0]} rows for {len(pool)} candidates"
        )
    order = sorted(range(len(pool)), key=lambda i: pool[i])
    # argmin returns the first minimal row; rows sorted by partition
    # tuple make "first" mean "smallest tuple among the tied"
    best = times[order, :].argmin(axis=0)
    return [pool[order[i]] for i in best]
