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
sync terms.  The table is stored row-major, so one ``take`` gathers
every coefficient of a call, and the kernel prices every phase slot of
every row in one 2-D pass of a dozen array operations, whatever the
mix of ``d`` and partitions; the table grows only with new
``(d, partition)`` pairs, never with block sizes.  The pass holds a few
temporaries of the result's size times the call's widest partition; a
call larger than ``_PRICE_CHUNK_BYTES`` per temporary is priced in
chunks of the result, so memory stays bounded whatever the call.
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
* per partition: left-to-right accumulation over the phase slots,
  starting from ``0.0`` (Python's ``sum``), one slot at a time — never
  a numpy reduction, whose pairwise order rounds differently;
* powers of two are stored as floats, so the scale factors are exact.

A slot a row does not use (its partition is shorter than the widest
row of the call), and the shuffle of a single-phase schedule, have
coefficient ``0.0``: such a term is an exact ``±0.0``, and adding it
leaves the running sum unchanged (every term is non-negative, so the
sum is never ``-0.0``).  No slot is ever scaled by ``m·2**d`` unless it
uses it, and a zero ``τ`` or ``ρ`` skips its product as the scalar
model does, so an overflowing ``m`` gives the scalar model's ``inf``
or finite time, never ``0·inf = NaN``, and the overflow itself is
silent (an invalid operation would still warn).
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


#: Bytes of one slot temporary a :func:`price_rows` pass holds.  A call
#: whose result times its widest partition is larger is priced in
#: chunks of the result, so a pass's few temporaries stay near 1 MB
#: whatever the call's size (larger chunks also fall out of cache).
_PRICE_CHUNK_BYTES = 1 << 18


class _SlotTable:
    """Eq. (3) coefficients per phase slot of every ``(d, partition)``
    priced so far: a row-major ``(rows, 5, slots)`` float array of
    ``n_tx``, scale, hops, shuffle factor and sync factor per slot, and
    each row's phase count.  The rows grow (doubling) only when full,
    the slots only when a wider partition arrives; growing copies both
    arrays and publishes them as one tuple under the lock, so a kernel
    reading a snapshot never sees a torn table."""

    def __init__(self) -> None:
        self._index: dict[tuple[int, tuple[int, ...]], int] = {}
        self._pools: dict[int, tuple[tuple[tuple[int, ...], ...], np.ndarray]] = {}
        self._lock = threading.Lock()
        self.arrays = (np.zeros((64, 5, 1)), np.zeros(64, dtype=np.intp))

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
            capacity, _, slots = coef.shape
            if row == capacity or width > slots:
                grown = np.zeros((2 * capacity if row == capacity else capacity, 5, max(width, slots)))
                grown[:capacity, :, :slots] = coef
                coef = grown
                if row == capacity:
                    widths = np.concatenate([widths, np.zeros_like(widths)])
            # the shuffle pass only runs in multi-phase schedules
            shuffled = 1 << d if width > 1 else 0
            coef[row, :, :width] = np.transpose(
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
    n_tx, scale, hops, shuffle_cube, sync_dim = np.moveaxis(
        _TABLE.arrays[0].take(rows, axis=0), 1, 0
    )
    return np.stack([
        (n_tx * scale).sum(axis=-1), shuffle_cube.sum(axis=-1), n_tx.sum(axis=-1),
        hops.sum(axis=-1), sync_dim.sum(axis=-1),
    ])


def price_rows(
    rows: np.ndarray, ms: np.ndarray | float, params: MachineParams
) -> np.ndarray:
    """Eq. (3) for every ``(row, m)`` pair: ``rows`` (table rows, from
    :func:`partition_row` / :func:`pool_rows`) and ``ms`` broadcast
    against each other, and the result has their broadcast shape.

    ``ms`` must be finite and ``>= 0``; nothing is re-checked here.
    Each element equals ``multiphase_time(m, d, partition, params)`` to
    the last bit.  One ``take`` gathers the rows' coefficients and one
    pass prices every phase slot; the gathered coefficients and the
    pass's few temporaries are the result's shape times the widest
    row's slots, at most ``_PRICE_CHUNK_BYTES`` each (or one cell) by
    chunking the result.
    """
    coef, widths = _TABLE.arrays
    rows = np.asarray(rows, dtype=np.intp)
    ms = np.asarray(ms, dtype=np.float64)
    total = np.zeros(np.broadcast(rows, ms).shape)
    if total.size == 0:
        return total
    width = int(widths.take(rows).max())
    if rows.ndim < total.ndim:  # the slot axis goes in front of the result's
        rows = rows.reshape((1,) * (total.ndim - rows.ndim) + rows.shape)
    # an m near the float maximum overflows to the scalar model's inf
    with np.errstate(over="ignore"):
        _price_chunks(
            total, rows, ms, coef, params, width,
            max(1, _PRICE_CHUNK_BYTES // (8 * width)),
        )
    return total


def _price_chunks(
    total: np.ndarray,
    rows: np.ndarray,
    ms: np.ndarray,
    coef: np.ndarray,
    params: MachineParams,
    width: int,
    cells: int,
) -> None:
    """Add every phase slot into ``total``, at most ``cells`` result
    cells per pass: chunks of the leading axis, or one leading index at
    a time when that alone is larger.  ``rows`` has ``total``'s
    dimensions and ``ms`` broadcasts to it."""
    if total.size <= cells:
        _add_slots(total, rows, ms, coef, params, width)
        return
    ms = ms.reshape((1,) * (total.ndim - ms.ndim) + ms.shape)
    step = total.shape[0] * cells // total.size
    for start in range(0, total.shape[0], max(step, 1)):
        at = slice(start, start + step) if step else start
        # a length-1 axis broadcasts: keep it whole, or index it away
        rows_at, ms_at = (a[at] if a.shape[0] > 1 else a if step else a[0] for a in (rows, ms))
        _price_chunks(total[at], rows_at, ms_at, coef, params, width, cells)


def _add_slots(
    total: np.ndarray,
    rows: np.ndarray,
    ms: np.ndarray,
    coef: np.ndarray,
    params: MachineParams,
    width: int,
) -> None:
    """Eq. (3) of every phase slot at once, each element in the scalar
    model's order, added into ``total`` slot by slot, left to right."""
    # one take, then the five coefficients slot-major: each slot is one
    # contiguous plane shaped like ``rows``
    n_tx, scale, hops, shuffle_cube, sync_dim = np.ascontiguousarray(
        coef.take(rows, axis=0)[..., :width].transpose(
            rows.ndim, rows.ndim + 1, *range(rows.ndim)
        )
    )
    # a zero rate adds +0.0, as in the scalar model, also where an
    # m·2**(d-d_i) or m·2**d overflowed to inf: its product is skipped
    phase = ms * scale if params.byte_time else np.zeros(np.broadcast(ms, scale).shape)
    phase *= params.byte_time
    phase += params.exchange_latency
    phase *= n_tx
    phase += params.exchange_hop_time * hops
    shuffle = ms * shuffle_cube if params.permute_time else 0.0
    shuffle *= params.permute_time
    phase += shuffle
    phase += params.global_sync_per_dim * sync_dim
    for slot in phase:
        total += slot


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
